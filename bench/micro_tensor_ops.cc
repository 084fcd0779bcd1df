// Tensor-kernel throughput tracker (not a paper figure): the serial seed
// matmul kernels vs the tiled kernels in tensor/kernels.h, the fused causal
// attention vs its serial reference, plus op-level activation /
// normalization timings, at several pool widths.
//
// Emits BENCH_tensor_ops.json (or argv[1]) so perf PRs have a tracked
// trajectory; docs/PERF.md explains how to read it. `--check-floor R` exits
// 1 unless, at width 1, the 512^3 mm, mm_nt and mm_tn each run at least R
// times as fast as their seed kernels compiled into this binary, the
// trunk-shape fused attention forward+backward at least R times as fast as
// its serial reference, and mm_nt and mm_tn at the trunk's FFN shapes at
// least kTransposedFloor times as fast as mm at the same shape, timed
// interleaved, and mm and mm_nt from a sealed weight's panels (packed once)
// at least kPrepackedFloor times as fast as the same products packing B on
// every call, also interleaved (the perf_smoke ctest). A malformed R or an
// unknown flag exits 2. The environment block records the host-contention
// probe (bench_common.h) taken before and after the measurements.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
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

/// A product C[m, n] (+)= A B with contraction depth k, in mm's argument
/// order whatever the kernel: mm_nt reads B stored [n, k] and mm_tn reads
/// A stored [k, m], so one (m, k, n) names the same flops for all three.
using RawKernel = void (*)(const float*, const float*, float*, Index, Index,
                           Index);

void mm_nt_mkn(const float* a, const float* b, float* c, Index m, Index k,
               Index n) {
  menos::tensor::kernels::mm_nt(a, b, c, m, k, n);
}

void mm_tn_mkn(const float* a, const float* b, float* c, Index m, Index k,
               Index n) {
  menos::tensor::kernels::mm_tn(a, b, c, k, m, n);
}

void seed_mm_tn_mkn(const float* a, const float* b, float* c, Index m,
                    Index k, Index n) {
  seed_mm_tn(a, b, c, k, m, n);
}

struct MatmulKernel {
  const char* op;
  RawKernel seed;
  RawKernel tuned;
};

const MatmulKernel kMm{"mm", seed_mm, menos::tensor::kernels::mm};
const MatmulKernel kMmNt{"mm_nt", seed_mm_nt, mm_nt_mkn};
const MatmulKernel kMmTn{"mm_tn", seed_mm_tn_mkn, mm_tn_mkn};

/// Random operands for one (m, k, n) product.
struct Operands {
  std::vector<float> a, b, c;
  Operands(Index m, Index k, Index n)
      : a(static_cast<std::size_t>(m * k)),
        b(static_cast<std::size_t>(k * n)),
        c(static_cast<std::size_t>(m * n)) {
    menos::util::Rng rng(42);
    rng.fill_normal(a.data(), a.size(), 1.0f);
    rng.fill_normal(b.data(), b.size(), 1.0f);
  }
};

MatmulResult bench_matmul(const MatmulKernel& kernel, Index m, Index k,
                          Index n, int reps) {
  Operands ops(m, k, n);
  MatmulResult res;
  res.op = kernel.op;
  res.m = m;
  res.k = k;
  res.n = n;

  const double flops = 2.0 * static_cast<double>(m) * k * n;
  res.seed_ms = 1e3 * time_best(reps, [&] {
    std::fill(ops.c.begin(), ops.c.end(), 0.0f);
    kernel.seed(ops.a.data(), ops.b.data(), ops.c.data(), m, k, n);
  });
  res.seed_gflops = flops / (res.seed_ms * 1e6);

  for (int width : bench_widths()) {
    ThreadPool::instance().set_num_threads(width);
    ThreadSample s;
    s.threads = width;
    s.ms = 1e3 * time_best(reps, [&] {
      std::fill(ops.c.begin(), ops.c.end(), 0.0f);
      kernel.tuned(ops.a.data(), ops.b.data(), ops.c.data(), m, k, n);
    });
    s.gflops = flops / (s.ms * 1e6);
    s.speedup_vs_seed = res.seed_ms / s.ms;
    res.parallel.push_back(s);
  }
  ThreadPool::instance().set_num_threads(1);
  return res;
}

/// The transposed kernels' speed over mm's at one shape, width 1.
struct TransposedRatio {
  std::string op;
  Index m = 0, k = 0, n = 0;
  double ratio = 0.0;  // mm's best time / this kernel's best time
};

/// Gated minimum of every TransposedRatio under --check-floor. Over 20
/// runs on a 4-vCPU AVX-512 VM (GCC 12.2, Release) both kernels read
/// 0.97-1.03 at both shapes; with a scalar transposed B pack mm_nt read
/// 0.85-0.88, which this floor fails.
constexpr double kTransposedFloor = 0.93;

/// mm_nt and mm_tn against mm at (m, k, n), width 1. The three kernels
/// take turns for `rounds` rounds and each keeps its best time, so a
/// noisy neighbour slows all three alike rather than one.
std::vector<TransposedRatio> transposed_vs_mm(Index m, Index k, Index n,
                                              int rounds) {
  Operands ops(m, k, n);
  const MatmulKernel* kernels[] = {&kMm, &kMmNt, &kMmTn};
  double best[3] = {1e30, 1e30, 1e30};
  ThreadPool::instance().set_num_threads(1);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 3; ++i) {
      std::fill(ops.c.begin(), ops.c.end(), 0.0f);
      const double t0 = now_seconds();
      kernels[i]->tuned(ops.a.data(), ops.b.data(), ops.c.data(), m, k, n);
      best[i] = std::min(best[i], now_seconds() - t0);
    }
  }
  return {{kMmNt.op, m, k, n, best[0] / best[1]},
          {kMmTn.op, m, k, n, best[0] / best[2]}};
}

/// A product from a sealed weight's panels against the same product
/// packing B on every call, at one shape, width 1.
struct PrepackedRatio {
  std::string op;
  Index m = 0, k = 0, n = 0;
  double ratio = 0.0;  // per-call-packed best time / prepacked best time
};

/// Gated minimum of every PrepackedRatio under --check-floor. Over 20 runs
/// on a 4-vCPU AVX-512 VM (GCC 12.2, Release) mm read 1.15-1.19 and mm_nt
/// 1.07-1.14 at both shapes; a build whose sealed weights never return
/// panels (so both sides pack per call) read 0.98-1.02, which this floor
/// fails.
constexpr double kPrepackedFloor = 1.04;

/// mm and mm_nt at (m, k, n), width 1, with B a sealed host tensor
/// dispatched as tensor::matmul and its backward do (its panels when
/// Tensor::packed_panels has them, else the per-call-packing kernel),
/// against the kernels that pack B per call. The four take turns for
/// `rounds` rounds, as in transposed_vs_mm.
std::vector<PrepackedRatio> prepacked_vs_packed(menos::gpusim::Device& host,
                                                Index m, Index k, Index n,
                                                int rounds) {
  namespace kn = menos::tensor::kernels;
  Operands ops(m, k, n);
  // The same values as mm's B [k, n] and as mm_nt's stored B [n, k].
  Tensor w = Tensor::from_vector(ops.b, {k, n}, host);
  Tensor wt = Tensor::from_vector(ops.b, {n, k}, host);
  w.seal();
  wt.seal();
  const float* a = ops.a.data();
  const float* b = ops.b.data();
  float* c = ops.c.data();
  const auto from_weight = [&](const Tensor& weight, bool transposed,
                               RawKernel per_call) {
    if (const float* panels = weight.packed_panels(transposed)) {
      kn::mm_packed(a, panels, c, m, k, n);
    } else {
      per_call(a, b, c, m, k, n);
    }
  };
  const std::function<void()> runs[4] = {
      [&] { kMm.tuned(a, b, c, m, k, n); },
      [&] { from_weight(w, false, kMm.tuned); },
      [&] { kMmNt.tuned(a, b, c, m, k, n); },
      [&] { from_weight(wt, true, kMmNt.tuned); },
  };
  double best[4] = {1e30, 1e30, 1e30, 1e30};
  ThreadPool::instance().set_num_threads(1);
  for (const auto& run : runs) run();  // panels packed before any timing
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 4; ++i) {
      std::fill(ops.c.begin(), ops.c.end(), 0.0f);
      const double t0 = now_seconds();
      runs[i]();
      best[i] = std::min(best[i], now_seconds() - t0);
    }
  }
  return {{kMm.op, m, k, n, best[0] / best[1]},
          {kMmNt.op, m, k, n, best[2] / best[3]}};
}

struct AttentionResult {
  std::string use;   // which workload this shape stands for
  std::string pass;  // "fwd" or "fwd+bwd"
  menos::tensor::kernels::AttentionShape shape;
  double ref_ms = 0.0;  // the serial reference kernels
  std::vector<ThreadSample> parallel;
};

std::string attention_label(const menos::tensor::kernels::AttentionShape& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%lld, %lld, %lld] x %lld heads",
                static_cast<long long>(s.batch),
                static_cast<long long>(s.seq),
                static_cast<long long>(s.heads * s.head_dim),
                static_cast<long long>(s.heads));
  return buf;
}

/// The fused forward (with P saved, as under grad mode) and, for
/// "fwd+bwd", the backward of all three operands, vs the same passes of
/// causal_attention_ref / causal_attention_backward_ref.
AttentionResult bench_attention(const std::string& use, bool backward,
                                const menos::tensor::kernels::AttentionShape& s,
                                int reps) {
  namespace k = menos::tensor::kernels;
  const auto q_elems =
      static_cast<std::size_t>(s.batch * s.seq * s.heads * s.head_dim);
  const auto kv_elems =
      static_cast<std::size_t>(s.batch * s.seq * s.kv_heads * s.head_dim);
  menos::util::Rng rng(5);
  std::vector<float> q(q_elems), kk(kv_elems), v(kv_elems), dctx(q_elems);
  for (std::vector<float>* t : {&q, &kk, &v, &dctx}) {
    rng.fill_normal(t->data(), t->size(), 1.0f);
  }
  std::vector<float> ctx(q_elems), dq(q_elems), dk(kv_elems), dv(kv_elems);
  std::vector<float> p(static_cast<std::size_t>(s.batch * s.heads * s.seq *
                                                s.seq));

  AttentionResult res;
  res.use = use;
  res.pass = backward ? "fwd+bwd" : "fwd";
  res.shape = s;
  res.ref_ms = 1e3 * time_best(reps, [&] {
    k::causal_attention_ref(q.data(), kk.data(), v.data(), ctx.data(),
                            p.data(), s);
    if (backward) {
      k::causal_attention_backward_ref(q.data(), kk.data(), v.data(),
                                       p.data(), dctx.data(), dq.data(),
                                       dk.data(), dv.data(), s);
    }
  });
  for (int width : bench_widths()) {
    ThreadPool::instance().set_num_threads(width);
    ThreadSample sample;
    sample.threads = width;
    sample.ms = 1e3 * time_best(reps, [&] {
      k::causal_attention(q.data(), kk.data(), v.data(), ctx.data(), p.data(),
                          s);
      if (backward) {
        k::causal_attention_backward(q.data(), kk.data(), v.data(), p.data(),
                                     dctx.data(), dq.data(), dk.data(),
                                     dv.data(), s);
      }
    });
    sample.speedup_vs_seed = res.ref_ms / sample.ms;
    res.parallel.push_back(sample);
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
  menos::bench::HostProbe probe;
  probe.before = menos::bench::contention_probe();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("micro_tensor_ops: hardware_concurrency=%u arch=%s tile=%lldx%lld (%s)\n",
              hw, menos::tensor::kernels::vector_arch(),
              static_cast<long long>(menos::tensor::kernels::micro_tile_rows()),
              static_cast<long long>(menos::tensor::kernels::micro_tile_cols()),
              __VERSION__);

  // Matmul kernels on the 512-class shape (the fig8/fig9 training regime),
  // a squatter attention-style contraction, and the server trunk's two FFN
  // shapes (batch 4 x seq 32 rows, dim 128, ffn 512) in all three forms,
  // whose row count is not a multiple of the micro-tile height.
  std::vector<MatmulResult> matmuls;
  for (const MatmulKernel* kernel : {&kMm, &kMmNt, &kMmTn}) {
    matmuls.push_back(bench_matmul(*kernel, 512, 512, 512, 3));
  }
  matmuls.push_back(bench_matmul(kMm, 256, 64, 256, 20));
  std::vector<TransposedRatio> transposed;
  std::vector<PrepackedRatio> prepacked;
  auto device = menos::gpusim::make_host_device("bench-host");
  const Index kTrunkFfn[][2] = {{128, 512}, {512, 128}};  // (k, n)
  for (const auto& kn : kTrunkFfn) {
    for (const MatmulKernel* kernel : {&kMm, &kMmNt, &kMmTn}) {
      matmuls.push_back(bench_matmul(*kernel, 128, kn[0], kn[1], 20));
    }
    for (const TransposedRatio& r :
         transposed_vs_mm(128, kn[0], kn[1], 2000)) {
      transposed.push_back(r);
    }
    for (const PrepackedRatio& r :
         prepacked_vs_packed(*device, 128, kn[0], kn[1], 2000)) {
      prepacked.push_back(r);
    }
  }

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
  for (const TransposedRatio& r : transposed) {
    std::printf("%-6s %4lldx%4lldx%4lld  t=1 %.2fx the speed of mm, timed "
                "interleaved\n",
                r.op.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.k), static_cast<long long>(r.n),
                r.ratio);
  }
  for (const PrepackedRatio& r : prepacked) {
    std::printf("%-6s %4lldx%4lldx%4lld  t=1 prepacked B %.2fx the speed of "
                "packing per call, timed interleaved\n",
                r.op.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.k), static_cast<long long>(r.n),
                r.ratio);
  }

  // Fused causal attention on the server trunk's shape (batch 4 x seq 32,
  // 4 heads of 32) and the memory_pressure workload's (batch 2 x seq 16,
  // 2 heads of 16).
  const menos::tensor::kernels::AttentionShape trunk{4, 32, 4, 4, 32};
  const menos::tensor::kernels::AttentionShape pressure{2, 16, 2, 2, 16};
  std::vector<AttentionResult> attentions;
  for (bool backward : {false, true}) {
    attentions.push_back(bench_attention("trunk", backward, trunk, 200));
    attentions.push_back(
        bench_attention("memory_pressure", backward, pressure, 500));
  }

  for (const AttentionResult& r : attentions) {
    std::printf("attention %-7s %-15s %-24s ref %7.3f ms", r.pass.c_str(),
                r.use.c_str(), attention_label(r.shape).c_str(), r.ref_ms);
    for (const ThreadSample& s : r.parallel) {
      std::printf("  | t=%d %.3f ms %.1fx", s.threads, s.ms,
                  s.speedup_vs_seed);
    }
    std::printf("\n");
  }

  // Op-level elementwise / normalization paths (speedup vs 1 thread).
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

  probe.after = menos::bench::contention_probe();
  std::printf("contention probe (%d threads): %.2f (%.1f ms alone) before, "
              "%.2f (%.1f ms alone) after\n",
              menos::bench::kProbeThreads, probe.before.ratio,
              probe.before.alone_ms, probe.after.ratio, probe.after.alone_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const auto blocks = menos::tensor::kernels::block_config();
  std::fprintf(f, "{\n  \"bench\": \"micro_tensor_ops\",\n");
  menos::bench::write_environment(f, 0, &probe);
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
  std::fprintf(f, "\n  ],\n  \"transposed_vs_mm\": [\n");
  for (std::size_t i = 0; i < transposed.size(); ++i) {
    const TransposedRatio& r = transposed[i];
    std::fprintf(f,
                 "%s    {\"op\": \"%s\", \"m\": %lld, \"k\": %lld, \"n\": "
                 "%lld, \"threads\": 1, \"speed_vs_mm\": %.3f}",
                 i == 0 ? "" : ",\n", r.op.c_str(),
                 static_cast<long long>(r.m), static_cast<long long>(r.k),
                 static_cast<long long>(r.n), r.ratio);
  }
  std::fprintf(f, "\n  ],\n  \"prepacked_vs_packed\": [\n");
  for (std::size_t i = 0; i < prepacked.size(); ++i) {
    const PrepackedRatio& r = prepacked[i];
    std::fprintf(f,
                 "%s    {\"op\": \"%s\", \"m\": %lld, \"k\": %lld, \"n\": "
                 "%lld, \"threads\": 1, \"speed_vs_packed\": %.3f}",
                 i == 0 ? "" : ",\n", r.op.c_str(),
                 static_cast<long long>(r.m), static_cast<long long>(r.k),
                 static_cast<long long>(r.n), r.ratio);
  }
  std::fprintf(f, "\n  ],\n  \"attention_kernels\": [\n");
  for (std::size_t i = 0; i < attentions.size(); ++i) {
    const AttentionResult& r = attentions[i];
    std::fprintf(f,
                 "%s    {\"op\": \"causal_attention\", \"pass\": \"%s\", "
                 "\"use\": \"%s\",\n     \"batch\": %lld, \"seq\": %lld, "
                 "\"heads\": %lld, \"kv_heads\": %lld, \"head_dim\": %lld,\n"
                 "     \"ref_serial_ms\": %.4f,\n     \"parallel\": ",
                 i == 0 ? "" : ",\n", r.pass.c_str(), r.use.c_str(),
                 static_cast<long long>(r.shape.batch),
                 static_cast<long long>(r.shape.seq),
                 static_cast<long long>(r.shape.heads),
                 static_cast<long long>(r.shape.kv_heads),
                 static_cast<long long>(r.shape.head_dim), r.ref_ms);
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
      const char* baseline;
      double floor;
      const char* floor_name;
    };
    std::vector<Gate> gates = {
        {"mm 512^3", matmuls[0].parallel.front().speedup_vs_seed,
         "seed kernel", check_floor, "--check-floor"},
        {"mm_nt 512^3", matmuls[1].parallel.front().speedup_vs_seed,
         "seed kernel", check_floor, "--check-floor"},
        {"mm_tn 512^3", matmuls[2].parallel.front().speedup_vs_seed,
         "seed kernel", check_floor, "--check-floor"},
        {"causal_attention fwd+bwd " + attention_label(attentions[2].shape),
         attentions[2].parallel.front().speedup_vs_seed, "serial reference",
         check_floor, "--check-floor"},
    };
    for (const TransposedRatio& r : transposed) {
      char what[64];
      std::snprintf(what, sizeof(what), "%s %lldx%lldx%lld", r.op.c_str(),
                    static_cast<long long>(r.m), static_cast<long long>(r.k),
                    static_cast<long long>(r.n));
      gates.push_back({what, r.ratio, "speed of mm at that shape",
                       kTransposedFloor, "transposed floor"});
    }
    for (const PrepackedRatio& r : prepacked) {
      char what[64];
      std::snprintf(what, sizeof(what), "prepacked %s %lldx%lldx%lld",
                    r.op.c_str(), static_cast<long long>(r.m),
                    static_cast<long long>(r.k), static_cast<long long>(r.n));
      gates.push_back({what, r.ratio, "per-call-packed kernel",
                       kPrepackedFloor, "prepacked floor"});
    }
    bool ok = true;
    for (const Gate& g : gates) {
      const bool pass = g.ratio >= g.floor;
      std::fprintf(pass ? stdout : stderr,
                   "%s: %s at width 1 is %.2fx the %s, %s the "
                   "%s of %.2fx\n",
                   pass ? "check-floor ok" : "FAIL", g.what.c_str(), g.ratio,
                   g.baseline, pass ? "at or above" : "below", g.floor_name,
                   g.floor);
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
