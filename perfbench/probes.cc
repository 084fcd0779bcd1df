#include "probes.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "core/parameter_store.h"
#include "gpusim/device.h"
#include "net/message.h"
#include "stats.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace menos::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

TrunkTiming probe_trunk(const nn::TransformerConfig& model,
                        std::int64_t batch, std::int64_t seq, int reps,
                        std::uint64_t seed, SpanRecorder* spans) {
  ScopedSpan probe(spans, "probe.nn.trunk", kProbeLane, -1);
  auto gpu = gpusim::make_sim_gpu("probe", std::size_t{1} << 32);
  core::ParameterStore store(model, *gpu, 42);
  nn::SharedSource source = store.source();
  util::Rng rng(seed);
  nn::ServerSection section(model, nn::SplitSpec{}, nn::AdapterSpec{}, source,
                            *gpu, rng);
  const tensor::Shape shape{batch, seq, model.dim};
  std::vector<float> host(static_cast<std::size_t>(batch * seq * model.dim));
  rng.fill_normal(host.data(), host.size(), 1.0f);
  tensor::Tensor x = tensor::Tensor::from_vector(host, shape, *gpu, true);
  rng.fill_normal(host.data(), host.size(), 0.02f);
  const tensor::Tensor g_c = tensor::Tensor::from_vector(host, shape, *gpu);

  std::vector<double> fwd_ms;
  std::vector<double> bwd_ms;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms up, untimed
    ScopedSpan step(spans, "probe.nn.trunk.step", kProbeLane, rep, probe.id());
    auto t0 = Clock::now();
    tensor::Tensor y = section.forward(x);
    const double f = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    tensor::backward(y, g_c);
    const double b = seconds_since(t0) * 1e3;
    x.zero_grad();
    for (auto& p : section.trainable_parameters()) p.value.zero_grad();
    step.arg("fwd_ms", f);
    step.arg("bwd_ms", b);
    if (rep >= 0) {
      fwd_ms.push_back(f);
      bwd_ms.push_back(b);
    }
  }
  return {median(fwd_ms), median(bwd_ms)};
}

MmTiming probe_mm(std::int64_t m, std::int64_t k, std::int64_t n, int reps,
                  std::uint64_t seed, SpanRecorder* spans) {
  ScopedSpan probe(spans, "probe.tensor.mm", kProbeLane, -1);
  util::Rng rng(seed);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  rng.fill_normal(a.data(), a.size(), 1.0f);
  rng.fill_normal(b.data(), b.size(), 1.0f);

  auto time_kernel = [&](const char* name, auto&& kernel) {
    std::vector<double> secs;
    for (int rep = -1; rep < reps; ++rep) {
      std::fill(c.begin(), c.end(), 0.0f);
      ScopedSpan span(spans, name, kProbeLane, rep, probe.id());
      const auto t0 = Clock::now();
      kernel(a.data(), b.data(), c.data(), m, k, n);
      if (rep >= 0) secs.push_back(seconds_since(t0));
    }
    return median(secs);
  };
  const double mm_s = time_kernel("probe.tensor.mm.blocked", tensor::kernels::mm);
  const double ref_s = time_kernel("probe.tensor.mm.ref", tensor::kernels::mm_ref);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  return {flops / mm_s / 1e9, ref_s / mm_s};
}

CodecTiming probe_codec(std::int64_t batch, std::int64_t seq,
                        std::int64_t dim, int reps, std::uint64_t seed,
                        SpanRecorder* spans) {
  ScopedSpan probe(spans, "probe.net.codec", kProbeLane, -1);
  util::Rng rng(seed);
  net::WireTensor wire;
  wire.shape = {batch, seq, dim};
  wire.data.resize(static_cast<std::size_t>(batch * seq * dim));
  rng.fill_normal(wire.data.data(), wire.data.size(), 1.0f);
  const net::Message message = net::Message::forward(std::move(wire), 7);

  std::vector<double> enc_us;
  std::vector<double> dec_us;
  for (int rep = -1; rep < reps; ++rep) {
    auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = net::encode_message(message);
    const double e = seconds_since(t0) * 1e6;
    t0 = Clock::now();
    const net::Message decoded = net::decode_message(bytes.data(), bytes.size());
    const double d = seconds_since(t0) * 1e6;
    if (decoded.tensor.data != message.tensor.data) {
      throw std::runtime_error("probe.net.codec: decode does not round-trip");
    }
    if (rep >= 0) {
      enc_us.push_back(e);
      dec_us.push_back(d);
    }
  }
  return {median(enc_us), median(dec_us)};
}

}  // namespace menos::perfbench
