// Capped exponential backoff with seeded jitter.
//
// The client-side WAN recovery loop (core::Client) sleeps this policy's
// delays between reconnect attempts. Jitter decorrelates clients that lost
// the same link at the same moment (thundering herd on the shared server)
// while staying reproducible: the jitter stream is an ordinary util::Rng,
// so a given seed yields the same backoff sequence on every run.
#pragma once

#include "util/rng.h"

namespace menos::util {

struct RetryPolicy {
  /// Reconnect attempts per failed RPC before giving up (StateError).
  int max_attempts = 8;
  /// First backoff; attempt k sleeps ~initial * multiplier^k, capped.
  double initial_backoff_s = 0.05;
  double max_backoff_s = 2.0;
  double multiplier = 2.0;
  /// Fractional jitter: the delay is scaled by a uniform draw from
  /// [1 - jitter, 1 + jitter]. 0 disables jitter (and the rng draw).
  double jitter = 0.2;
  /// Scales every delay; 0 = no sleeping (tests exercise the retry path at
  /// zero wall-clock cost, mirroring the link model's
  /// NetworkConditioner::time_scale in net/link.h).
  double time_scale = 1.0;

  /// Backoff before retry number `attempt` (0-based). Consumes one rng
  /// draw iff jitter > 0.
  double backoff_s(int attempt, Rng& rng) const noexcept;
};

}  // namespace menos::util
