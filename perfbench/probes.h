// Layer probes: time single layers of the stack from outside, through their
// public functions, on the shapes of the workload being measured. They run
// after the closed loop has stopped, so they have the host to themselves.
#pragma once

#include <cstdint>

#include "nn/transformer.h"
#include "spans.h"

namespace menos::perfbench {

/// Trace-viewer row of the probe spans.
inline constexpr int kProbeLane = 99;

/// Median milliseconds of one nn::ServerSection forward (with gradients)
/// and of the autograd backward from a g_c-shaped seed, on a fresh shared
/// store + LoRA section over an unlimited simulated GPU.
struct TrunkTiming {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
};
TrunkTiming probe_trunk(const nn::TransformerConfig& model,
                        std::int64_t batch, std::int64_t seq, int reps,
                        std::uint64_t seed, SpanRecorder* spans);

/// tensor::kernels::mm against the in-binary serial mm_ref on one
/// [m,k]x[k,n] shape, at the process pool width.
struct MmTiming {
  double gflops = 0.0;  ///< 2mkn / median mm seconds
  double vs_ref = 0.0;  ///< median mm_ref seconds / median mm seconds
};
MmTiming probe_mm(std::int64_t m, std::int64_t k, std::int64_t n, int reps,
                  std::uint64_t seed, SpanRecorder* spans);

/// Median microseconds of net::encode_message / decode_message on a
/// Forward message carrying a [batch, seq, dim] activation.
struct CodecTiming {
  double encode_us = 0.0;
  double decode_us = 0.0;
};
CodecTiming probe_codec(std::int64_t batch, std::int64_t seq,
                        std::int64_t dim, int reps, std::uint64_t seed,
                        SpanRecorder* spans);

}  // namespace menos::perfbench
