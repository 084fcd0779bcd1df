// Per-connection link conditioning: the one model of the client<->server
// link's delay, jitter and loss.
//
// A LinkProfile describes ONE client's link — asymmetric up/down bandwidth
// and latency, seeded per-frame jitter, and a loss rate — and a
// LinkConditioner instantiates it per connection: both endpoints of one
// session share one conditioner, while different sessions on the same
// acceptor get independent links. condition_connection applies it to any
// transport (inproc or TCP); the transports themselves never delay a frame.
//
// Determinism: each direction owns a seeded util::Rng forked from the
// profile seed, and sends in one direction are serialized (the client's
// thread; the server session's strand), so a given seed yields the same
// per-frame delay sequence on every run regardless of poller timing. The
// conditioner logs the last kDelayLogCap drawn delays per direction, and
// counts every draw, so tests can pin this without the log growing by one
// entry per frame forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/faulty.h"
#include "net/transport.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace menos::net {

/// One direction's deterministic delay: each frame takes latency +
/// bytes/bandwidth, scaled by time_scale so tests can run the same code
/// path at zero cost (time_scale = 0 -> no sleeping, accounting only).
struct NetworkConditioner {
  double latency_s = 0.0;
  double bandwidth_bytes_per_s = 0.0;  ///< 0 = infinite
  double time_scale = 1.0;

  double transfer_seconds(std::size_t bytes) const noexcept {
    double s = latency_s;
    if (bandwidth_bytes_per_s > 0.0) {
      s += static_cast<double>(bytes) / bandwidth_bytes_per_s;
    }
    return s;
  }
};

/// Direction of a frame relative to the session: Up = client -> server.
enum class LinkDir : std::uint8_t { Up = 0, Down = 1 };

/// One client's link. Defaults are a perfect link: no delay, no jitter, no
/// loss — conditioning a connection with a default profile changes nothing
/// but the per-frame accounting.
struct LinkProfile {
  /// Deterministic base delay per direction (latency + bytes/bandwidth,
  /// scaled by each conditioner's own time_scale — 0 sleeps never, logging
  /// only).
  NetworkConditioner up;
  NetworkConditioner down;

  /// Extra uniform [0, jitter_s) delay per frame, drawn from the seeded
  /// per-direction rng. Scaled by the direction's time_scale like the base
  /// delay; the *unscaled* draw is what the delay log records.
  double jitter_s = 0.0;

  /// Per-frame probability that an outbound frame is lost and the link
  /// dies (composed via a per-connection FaultInjector, so loss consumes a
  /// fault stream independent of the jitter stream).
  double loss_prob = 0.0;

  /// First frames pass unconditioned by loss (handshake grace), mirroring
  /// FaultPlan::skip_frames. Jitter/delay still apply.
  int skip_frames = 0;

  /// Seed for both the jitter rngs (forked per direction) and the loss
  /// injector.
  std::uint64_t seed = 1;
};

/// The shared per-connection link state: seeded jitter streams and delay
/// logs for both directions, plus the loss injector when loss_prob > 0.
/// Both endpoints of a conditioned connection hold the same instance.
class LinkConditioner {
 public:
  /// Draws the delay log keeps per direction: the most recent ones.
  static constexpr std::size_t kDelayLogCap = 4096;

  explicit LinkConditioner(const LinkProfile& profile);

  const LinkProfile& profile() const noexcept { return profile_; }

  /// Draw the next frame's delay in `dir` for a frame of `bytes`: base
  /// transfer time + jitter, UNscaled. The draw is logged; the caller is
  /// responsible for sleeping delay * time_scale (see
  /// condition_connection).
  double next_delay(LinkDir dir, std::size_t bytes);

  /// The last min(drawn(dir), kDelayLogCap) delays drawn in `dir`
  /// (unscaled), in send order — the determinism regression surface.
  std::vector<double> delays(LinkDir dir) const;

  /// Every delay drawn so far in `dir`, retained in the log or not.
  std::uint64_t drawn(LinkDir dir) const;

  /// Shared loss stream; nullptr when the profile has loss_prob == 0.
  const std::shared_ptr<FaultInjector>& injector() const noexcept {
    return injector_;
  }

 private:
  struct DirState {
    util::Rng rng;
    std::vector<double> log;  // ring of the last kDelayLogCap draws
    std::uint64_t drawn = 0;  // draw i sits at log[i % kDelayLogCap]
  };

  DirState& dir_state(LinkDir dir) MENOS_REQUIRES(mutex_) {
    return dir == LinkDir::Up ? up_ : down_;
  }
  const DirState& dir_state(LinkDir dir) const MENOS_REQUIRES(mutex_) {
    return dir == LinkDir::Up ? up_ : down_;
  }

  const LinkProfile profile_;
  std::shared_ptr<FaultInjector> injector_;
  mutable util::Mutex mutex_{"net.link", 56};
  DirState up_ MENOS_GUARDED_BY(mutex_);
  DirState down_ MENOS_GUARDED_BY(mutex_);
};

/// Decorate one endpoint of a connection with `conditioner`, where
/// `send_dir` is the direction of THIS endpoint's sends (Up for the client
/// end, Down for the server end). Delay is paid in the sender's thread
/// before the frame enters the inner transport — transport-agnostic, so
/// the inner pair should be minted unconditioned. Loss (when configured)
/// wraps outermost via the conditioner's shared FaultInjector. Returns
/// nullptr if `inner` is nullptr (composes with failing dialers).
std::unique_ptr<Connection> condition_connection(
    std::unique_ptr<Connection> inner,
    std::shared_ptr<LinkConditioner> conditioner, LinkDir send_dir);

}  // namespace menos::net
