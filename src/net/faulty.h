// Deterministic fault injection for the transport layer (docs/FAULTS.md).
//
// FaultyConnection decorates any Connection (TCP or inproc) and injects
// WAN pathologies at the frame boundary: dropped frames that kill the
// link, and corrupt frames (surfaced exactly the way the CRC check would
// surface real corruption — ProtocolError plus a dead link, never a
// silently altered payload, so recovery can be bit-exact). Delay and
// jitter are the link model's job (net/link.h), not a fault.
//
// All decisions flow from one seeded util::Rng inside a FaultInjector that
// survives reconnects: a client that redials after an injected failure
// keeps consuming the same fault stream, so a given FaultPlan seed yields
// the same failure schedule on every run. Tests and benches assert on
// recovery behavior, not on luck.
#pragma once

#include <memory>

#include "net/transport.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace menos::net {

/// What to inject and how often. Probabilities are per frame; at most one
/// fault fires per frame (a single uniform draw is compared against the
/// cumulative thresholds, which keeps the rng stream independent of which
/// probabilities are zero).
struct FaultPlan {
  std::uint64_t seed = 1;

  /// Outbound frame vanishes and the link dies (the peer sees an orderly
  /// close / drained queue — a mid-frame disconnect from its perspective).
  double drop_send_prob = 0.0;
  /// Inbound frame vanishes and the link dies (receive returns nullopt).
  double drop_receive_prob = 0.0;
  /// Inbound frame arrives corrupted: receive throws ProtocolError (what
  /// the CRC check turns real corruption into) and the link dies.
  double corrupt_receive_prob = 0.0;

  /// The first `skip_frames` frames pass untouched (handshake grace).
  int skip_frames = 0;
  /// Stop injecting link-killing/corrupting faults after this many fired;
  /// -1 = unlimited. A finite cap guarantees an injected run terminates.
  int max_faults = -1;
};

/// Counters for asserting on what actually fired.
struct FaultStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t sends_dropped = 0;
  std::uint64_t receives_dropped = 0;
  std::uint64_t receives_corrupted = 0;

  std::uint64_t faults() const noexcept {
    return sends_dropped + receives_dropped + receives_corrupted;
  }
};

/// The shared, thread-safe fault stream. One injector can decorate many
/// connections over time (every redial of a reconnecting client); they all
/// consume the same deterministic sequence.
class FaultInjector {
 public:
  enum class Action : std::uint8_t { None, Kill, Corrupt };

  explicit FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {}

  Action next_send_action();
  Action next_receive_action();

  const FaultPlan& plan() const noexcept { return plan_; }
  FaultStats stats() const;

 private:
  Action draw_locked(double kill_prob, double corrupt_prob)
      MENOS_REQUIRES(mutex_);

  const FaultPlan plan_;
  mutable util::Mutex mutex_{"net.faulty", 66};
  util::Rng rng_ MENOS_GUARDED_BY(mutex_);
  FaultStats stats_ MENOS_GUARDED_BY(mutex_);
};

/// Wrap `inner` so its frames pass through `injector`'s fault stream. The
/// decorated connection keeps the injector alive. Returns nullptr if
/// `inner` is nullptr (composes with failing dialers).
std::unique_ptr<Connection> decorate_with_faults(
    std::unique_ptr<Connection> inner,
    std::shared_ptr<FaultInjector> injector);

/// Decorate a dialer so every connection it returns shares `injector`'s
/// fault stream — the reconnect hook a fault-tolerant client hands to
/// core::Client.
Dialer faulty_dialer(Dialer inner, std::shared_ptr<FaultInjector> injector);

}  // namespace menos::net
