// Tensor-kernel throughput tracker (not a paper figure): the serial seed
// matmul and permute kernels vs the tiled / stride-walking kernels in
// tensor/kernels.h, plus op-level activation/normalization timings, at
// several pool widths.
//
// Emits BENCH_tensor_ops.json (or argv[1]) so perf PRs have a tracked
// trajectory; docs/PERF.md explains how to read it. `--check-floor R` exits
// 1 unless, at width 1, the 512^3 mm, mm_nt and mm_tn and the attention
// head-split permute each run at least R times as fast as their seed
// kernels compiled into this binary (the perf_smoke ctest). A malformed R
// exits 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gpusim/device.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using menos::tensor::Index;
using menos::tensor::Shape;
using menos::tensor::Tensor;
using menos::util::ThreadPool;

// ----- the seed kernels, verbatim, as the fixed baseline -----

void seed_mm(const float* a, const float* b, float* c, Index m, Index k,
             Index n) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (Index p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void seed_mm_nt(const float* a, const float* b, float* c, Index m, Index n,
                Index k) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (Index p = 0; p < k; ++p) {
      const float* brow = b + p * n;
      float acc = 0.0f;
      for (Index j = 0; j < n; ++j) acc += arow[j] * brow[j];
      crow[p] += acc;
    }
  }
}

void seed_mm_tn(const float* a, const float* b, float* c, Index m, Index k,
                Index n) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (Index p = 0; p < k; ++p) {
      const float av = arow[p];
      float* crow = c + p * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of `fn`, in seconds.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

struct ThreadSample {
  int threads = 1;
  double ms = 0.0;
  double gflops = 0.0;
  double speedup_vs_seed = 0.0;
};

struct MatmulResult {
  std::string op;
  Index m = 0, k = 0, n = 0;
  double seed_ms = 0.0;
  double seed_gflops = 0.0;
  std::vector<ThreadSample> parallel;
};

std::vector<int> bench_widths() {
  std::vector<int> widths = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 4) widths.push_back(static_cast<int>(hw));
  return widths;
}

using RawKernel = void (*)(const float*, const float*, float*, Index, Index,
                           Index);

MatmulResult bench_matmul(const std::string& op, RawKernel seed,
                          RawKernel tuned, Index m, Index k, Index n,
                          Index a_elems, Index b_elems, Index c_elems,
                          int reps) {
  menos::util::Rng rng(42);
  std::vector<float> a(static_cast<std::size_t>(a_elems));
  std::vector<float> b(static_cast<std::size_t>(b_elems));
  std::vector<float> c(static_cast<std::size_t>(c_elems));
  rng.fill_normal(a.data(), a.size(), 1.0f);
  rng.fill_normal(b.data(), b.size(), 1.0f);

  MatmulResult res;
  res.op = op;
  res.m = m;
  res.k = k;
  res.n = n;

  const double flops = 2.0 * static_cast<double>(m) * k * n;
  res.seed_ms = 1e3 * time_best(reps, [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    seed(a.data(), b.data(), c.data(), m, k, n);
  });
  res.seed_gflops = flops / (res.seed_ms * 1e6);

  for (int width : bench_widths()) {
    ThreadPool::instance().set_num_threads(width);
    ThreadSample s;
    s.threads = width;
    s.ms = 1e3 * time_best(reps, [&] {
      std::fill(c.begin(), c.end(), 0.0f);
      tuned(a.data(), b.data(), c.data(), m, k, n);
    });
    s.gflops = flops / (s.ms * 1e6);
    s.speedup_vs_seed = res.seed_ms / s.ms;
    res.parallel.push_back(s);
  }
  ThreadPool::instance().set_num_threads(1);
  return res;
}

struct PermuteResult {
  std::string use;  // which trunk copy this shape stands for
  Shape shape;
  std::vector<int> dims;
  double seed_ms = 0.0;
  std::vector<ThreadSample> parallel;
};

std::string dims_label(const std::vector<int>& dims) {
  return menos::tensor::shape_to_string(Shape(dims.begin(), dims.end()));
}

PermuteResult bench_permute(const std::string& use, const Shape& shape,
                            const std::vector<int>& dims, int reps) {
  const auto n = static_cast<std::size_t>(menos::tensor::numel_of(shape));
  menos::util::Rng rng(5);
  std::vector<float> in(n);
  std::vector<float> out(n);
  rng.fill_normal(in.data(), n, 1.0f);

  PermuteResult res;
  res.use = use;
  res.shape = shape;
  res.dims = dims;
  // The seed baseline is permute_ref: the per-element div/mod loop the
  // stride-walking kernel replaced, kept verbatim as its test oracle.
  res.seed_ms = 1e3 * time_best(reps, [&] {
    menos::tensor::kernels::permute_ref(in.data(), out.data(), shape, dims);
  });
  for (int width : bench_widths()) {
    ThreadPool::instance().set_num_threads(width);
    ThreadSample s;
    s.threads = width;
    s.ms = 1e3 * time_best(reps, [&] {
      menos::tensor::kernels::permute(in.data(), out.data(), shape, dims);
    });
    s.speedup_vs_seed = res.seed_ms / s.ms;
    res.parallel.push_back(s);
  }
  ThreadPool::instance().set_num_threads(1);
  return res;
}

struct OpResult {
  std::string op;
  std::string shape;
  std::vector<ThreadSample> parallel;  // speedup is vs the 1-thread run
};

template <typename Fn>
OpResult bench_op(const std::string& op, const std::string& shape, int reps,
                  Fn&& fn) {
  OpResult res;
  res.op = op;
  res.shape = shape;
  double serial_ms = 0.0;
  for (int width : bench_widths()) {
    ThreadPool::instance().set_num_threads(width);
    ThreadSample s;
    s.threads = width;
    s.ms = 1e3 * time_best(reps, fn);
    if (width == 1) serial_ms = s.ms;
    s.speedup_vs_seed = serial_ms > 0.0 ? serial_ms / s.ms : 0.0;
    res.parallel.push_back(s);
  }
  ThreadPool::instance().set_num_threads(1);
  return res;
}

void json_samples(std::FILE* f, const std::vector<ThreadSample>& samples) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ThreadSample& s = samples[i];
    std::fprintf(f,
                 "%s\n      {\"threads\": %d, \"ms\": %.4f, \"gflops\": "
                 "%.3f, \"speedup_vs_seed\": %.3f}",
                 i == 0 ? "" : ",", s.threads, s.ms, s.gflops,
                 s.speedup_vs_seed);
  }
  std::fprintf(f, "\n    ]");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_tensor_ops.json";
  double check_floor = 0.0;  // min gated speedup vs seed at width 1
  if (!menos::bench::parse_gate_args(argc, argv, &out_path, &check_floor)) {
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("micro_tensor_ops: hardware_concurrency=%u arch=%s tile=%lldx%lld (%s)\n",
              hw, menos::tensor::kernels::vector_arch(),
              static_cast<long long>(menos::tensor::kernels::micro_tile_rows()),
              static_cast<long long>(menos::tensor::kernels::micro_tile_cols()),
              __VERSION__);

  // Matmul kernels on the 512-class shape (the fig8/fig9 training regime),
  // a squatter attention-style contraction, and the server trunk's FFN
  // shape (batch 4 x seq 32 rows, dim 128, ffn 512), whose row count is not
  // a multiple of the micro-tile height.
  std::vector<MatmulResult> matmuls;
  matmuls.push_back(bench_matmul("mm", seed_mm, menos::tensor::kernels::mm,
                                 512, 512, 512, 512 * 512, 512 * 512,
                                 512 * 512, 3));
  matmuls.push_back(bench_matmul("mm_nt", seed_mm_nt,
                                 menos::tensor::kernels::mm_nt, 512, 512, 512,
                                 512 * 512, 512 * 512, 512 * 512, 3));
  matmuls.push_back(bench_matmul("mm_tn", seed_mm_tn,
                                 menos::tensor::kernels::mm_tn, 512, 512, 512,
                                 512 * 512, 512 * 512, 512 * 512, 3));
  matmuls.push_back(bench_matmul("mm", seed_mm, menos::tensor::kernels::mm,
                                 256, 64, 256, 256 * 64, 64 * 256, 256 * 256,
                                 20));
  matmuls.push_back(bench_matmul("mm", seed_mm, menos::tensor::kernels::mm,
                                 128, 128, 512, 128 * 128, 128 * 512,
                                 128 * 512, 20));

  for (const MatmulResult& r : matmuls) {
    std::printf("%-6s %4lldx%4lldx%4lld  seed %8.2f ms (%.2f GF/s)",
                r.op.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.k), static_cast<long long>(r.n),
                r.seed_ms, r.seed_gflops);
    for (const ThreadSample& s : r.parallel) {
      std::printf("  | t=%d %.2f ms %.2fx", s.threads, s.ms,
                  s.speedup_vs_seed);
    }
    std::printf("\n");
  }

  // Permute on the server trunk's attention copies (batch 4 x seq 32,
  // 4 heads of 32): the q/k/v head split and ctx merge (contiguous rows),
  // transpose_last(k) over batch x heads (a strided gather), and the head
  // split of a 32-client fused batch.
  std::vector<PermuteResult> permutes;
  permutes.push_back(
      bench_permute("head_split", {4, 32, 4, 32}, {0, 2, 1, 3}, 50));
  permutes.push_back(
      bench_permute("transpose_last", {16, 32, 32}, {0, 2, 1}, 50));
  permutes.push_back(
      bench_permute("fused_head_split", {128, 32, 4, 32}, {0, 2, 1, 3}, 5));

  for (const PermuteResult& r : permutes) {
    const double floats =
        static_cast<double>(menos::tensor::numel_of(r.shape));
    std::printf("permute %-16s %-18s -> %-14s seed %7.3f ms (%.2f ns/float)",
                r.use.c_str(), menos::tensor::shape_to_string(r.shape).c_str(),
                dims_label(r.dims).c_str(), r.seed_ms,
                1e6 * r.seed_ms / floats);
    for (const ThreadSample& s : r.parallel) {
      std::printf("  | t=%d %.3f ms %.1fx", s.threads, s.ms,
                  s.speedup_vs_seed);
    }
    std::printf("\n");
  }

  // Op-level elementwise / normalization paths (speedup vs 1 thread).
  auto device = menos::gpusim::make_host_device("bench-host");
  menos::util::Rng rng(7);
  menos::tensor::NoGradGuard no_grad;
  Tensor act = Tensor::empty({1 << 21}, *device);
  rng.fill_normal(act.data(), static_cast<std::size_t>(act.numel()), 1.0f);
  Tensor lnx = Tensor::empty({4096, 512}, *device);
  rng.fill_normal(lnx.data(), static_cast<std::size_t>(lnx.numel()), 1.0f);
  Tensor gamma = Tensor::full({512}, 1.0f, *device);
  Tensor beta = Tensor::full({512}, 0.0f, *device);

  std::vector<OpResult> ops;
  ops.push_back(bench_op("gelu", "[2097152]", 5,
                         [&] { menos::tensor::gelu(act); }));
  ops.push_back(bench_op("layer_norm", "[4096,512]", 5, [&] {
    menos::tensor::layer_norm(lnx, gamma, beta);
  }));

  for (const OpResult& r : ops) {
    std::printf("%-10s %-12s", r.op.c_str(), r.shape.c_str());
    for (const ThreadSample& s : r.parallel) {
      std::printf("  | t=%d %.2f ms %.2fx", s.threads, s.ms,
                  s.speedup_vs_seed);
    }
    std::printf("\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const auto blocks = menos::tensor::kernels::block_config();
  std::fprintf(f, "{\n  \"bench\": \"micro_tensor_ops\",\n");
  menos::bench::write_environment(f);
  std::fprintf(f, "  \"kernel_config\": {\n");
  std::fprintf(f, "    \"thread_widths\": [");
  {
    const std::vector<int> widths = bench_widths();
    for (std::size_t i = 0; i < widths.size(); ++i) {
      std::fprintf(f, "%s%d", i == 0 ? "" : ", ", widths[i]);
    }
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"micro_tile\": [%lld, %lld],\n",
               static_cast<long long>(
                   menos::tensor::kernels::micro_tile_rows()),
               static_cast<long long>(
                   menos::tensor::kernels::micro_tile_cols()));
  std::fprintf(f, "    \"block_config\": {\"mc\": %lld, \"nc\": %lld, "
               "\"kc\": %lld}\n",
               static_cast<long long>(blocks.mc),
               static_cast<long long>(blocks.nc),
               static_cast<long long>(blocks.kc));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"matmul_kernels\": [\n");
  for (std::size_t i = 0; i < matmuls.size(); ++i) {
    const MatmulResult& r = matmuls[i];
    std::fprintf(f,
                 "%s    {\"op\": \"%s\", \"m\": %lld, \"k\": %lld, \"n\": "
                 "%lld,\n     \"seed_serial_ms\": %.3f, "
                 "\"seed_serial_gflops\": %.3f,\n     \"parallel\": ",
                 i == 0 ? "" : ",\n", r.op.c_str(),
                 static_cast<long long>(r.m), static_cast<long long>(r.k),
                 static_cast<long long>(r.n), r.seed_ms, r.seed_gflops);
    json_samples(f, r.parallel);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ],\n  \"permute_kernels\": [\n");
  for (std::size_t i = 0; i < permutes.size(); ++i) {
    const PermuteResult& r = permutes[i];
    std::fprintf(f,
                 "%s    {\"op\": \"permute\", \"use\": \"%s\", \"shape\": "
                 "\"%s\", \"dims\": \"%s\",\n     \"numel\": %lld, "
                 "\"seed_serial_ms\": %.4f,\n     \"parallel\": ",
                 i == 0 ? "" : ",\n", r.use.c_str(),
                 menos::tensor::shape_to_string(r.shape).c_str(), dims_label(r.dims).c_str(),
                 static_cast<long long>(menos::tensor::numel_of(r.shape)),
                 r.seed_ms);
    json_samples(f, r.parallel);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ],\n  \"tensor_ops\": [\n");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = ops[i];
    std::fprintf(f,
                 "%s    {\"op\": \"%s\", \"shape\": \"%s\", \"parallel\": ",
                 i == 0 ? "" : ",\n", r.op.c_str(), r.shape.c_str());
    json_samples(f, r.parallel);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_floor > 0.0) {
    // Perf smoke: ratios against the seed kernels timed in this same
    // process, so the floor means the same on any host. Width 1 keeps the
    // check independent of how many cores the host has.
    struct Gate {
      std::string what;
      double ratio;
    };
    const std::vector<Gate> gates = {
        {"mm 512^3", matmuls[0].parallel.front().speedup_vs_seed},
        {"mm_nt 512^3", matmuls[1].parallel.front().speedup_vs_seed},
        {"mm_tn 512^3", matmuls[2].parallel.front().speedup_vs_seed},
        {"permute " + menos::tensor::shape_to_string(permutes[0].shape) + " " +
             dims_label(permutes[0].dims),
         permutes[0].parallel.front().speedup_vs_seed},
    };
    bool ok = true;
    for (const Gate& g : gates) {
      const bool pass = g.ratio >= check_floor;
      std::fprintf(pass ? stdout : stderr,
                   "%s: %s at width 1 is %.2fx the seed kernel, %s the "
                   "--check-floor of %.2fx\n",
                   pass ? "check-floor ok" : "FAIL", g.what.c_str(), g.ratio,
                   pass ? "at or above" : "below", check_floor);
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
