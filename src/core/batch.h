// Cross-client fused batched trunk compute (Policy::CoalescedBatch).
//
// When the scheduler coalesces compatible pending requests into one group
// grant (same batch_key: identical model topology, cut point, effective
// sequence length and serving mode), the BatchCoordinator collects each
// member's activations, stacks them along the leading batch axis, runs ONE
// pass through a shared frozen trunk, and hands every member back its own
// row slice. Per-client numerics are bit-identical to the solo run because
// every trunk op is batch-row independent: matmul accumulates K-ascending
// per output element, the norms/softmaxes reduce per row, attention mixes
// only within one (batch, head) pair — so stacking rows and slicing them
// back reproduces each client's reduction order exactly (pinned by
// tests/batching_test.cc, argued in docs/PERF.md).
//
// Concurrency shape: begin_group() posts a join to every member's strand
// (raw posts — a member that finished mid-flight still decrements the
// countdown, so a group can never stall on a dead session). Each member
// copies its contribution OUT of its strand state; the last one to deliver
// runs the fused pass inline on its own strand. The coordinator's mutex
// only guards the trunk cache and is never held across compute or
// scheduler calls. Both fused passes run eagerly through the public ops, so
// concurrent groups on one trunk never serialize.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "net/message.h"
#include "sched/scheduler.h"
#include "tensor/tensor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::nn {
class ServerSection;
}  // namespace menos::nn

namespace menos::core {

class BatchCoordinator;
class ParameterStore;
class ServingSession;

/// Coalescing compatibility key for one client, passed to
/// sched::Scheduler::register_client (0 = never coalesce). Non-zero keys
/// hash every property that must match for two clients' trunk passes to
/// stack along the batch axis: model topology (incl. kv heads), cut point,
/// effective sequence length (seq_len + prefix tokens) and serving mode.
/// batch_size is deliberately EXCLUDED — rows stack along dim 0, so
/// clients with different batch sizes still fuse. Only the re-forward
/// modes (OnDemand / ReleaseEarly) with a fully frozen server section
/// (None or Prefix adapters) coalesce; everything else runs solo.
std::uint64_t compute_batch_key(const ServerConfig& server,
                                const net::FinetuneConfig& client);

/// One member's strand-copied inputs to the fused pass. Owned copies only:
/// the fused pass runs on another member's strand, so no references into a
/// foreign session's state may escape its own strand.
struct BatchContribution {
  bool joined = false;
  std::uint64_t batch_key = 0;
  net::FinetuneConfig config;
  /// Forward: the client's x_c. Backward: the cached activation the fused
  /// re-forward starts from (Algorithm 1 line 10, batched).
  net::WireTensor activation;
  /// Backward only: the client's g_c.
  net::WireTensor grad;
  std::uint64_t iteration = 0;
  double wait_seconds = 0.0;
};

/// What the fused pass hands back to one member.
struct BatchOutcome {
  bool ok = false;
  std::string error;  ///< set when !ok; the member fails with it
  sched::OpKind kind = sched::OpKind::Forward;
  /// Forward: this member's x_s rows. Backward: its g_s rows at the cut.
  net::WireTensor result;
  std::uint64_t iteration = 0;
  double wait_seconds = 0.0;
  double compute_seconds = 0.0;  ///< whole fused pass (shared by members)
};

/// Shared state of one in-flight group grant. sessions/contributions are
/// parallel to grant.group; a slot only writes its own contribution (from
/// its own strand), and the fused pass reads them all only after
/// `outstanding` hits zero — the countdown is the synchronization.
struct BatchGroup {
  sched::Grant grant;
  std::vector<std::shared_ptr<ServingSession>> sessions;
  std::vector<BatchContribution> contributions;
  std::atomic<int> outstanding{0};
  BatchCoordinator* coordinator = nullptr;
};

class BatchCoordinator {
 public:
  /// Counters for tests/benches (monotonic, read from any thread).
  struct BatchingStats {
    std::uint64_t groups = 0;    ///< fused passes run
    std::uint64_t members = 0;   ///< member slices served by fused passes
  };

  /// `store` hosts the shared frozen parameters the per-key trunks are
  /// built over; both it and `scheduler` must outlive the coordinator.
  BatchCoordinator(const ServerConfig& config, const ParameterStore& store,
                   sched::Scheduler& scheduler);
  ~BatchCoordinator();

  BatchCoordinator(const BatchCoordinator&) = delete;
  BatchCoordinator& operator=(const BatchCoordinator&) = delete;

  /// Start a group grant: post a join to every live member. `sessions` is
  /// parallel to grant.group (null = the member already left the table;
  /// its charge is reclaimed with the group's).
  void begin_group(const sched::Grant& grant,
                   std::vector<std::shared_ptr<ServingSession>> sessions);

  /// Called by the last member to deliver (on that member's strand): run
  /// the fused pass, release the whole group's scheduler charge in one
  /// call, and post each member its outcome.
  void finish_group(const std::shared_ptr<BatchGroup>& group);

  BatchingStats stats() const;

 private:
  /// A lazily built, fully frozen trunk for one batch_key (thread-safe to
  /// forward concurrently: shared parameter handles, no trainable state).
  struct Trunk {
    std::unique_ptr<nn::ServerSection> section;
    gpusim::Device* entry = nullptr;
  };

  Trunk& ensure_trunk_locked(const BatchContribution& lead)
      MENOS_REQUIRES(mutex_);
  void run_group(BatchGroup& group);
  void compute_group(BatchGroup& group, const std::vector<std::size_t>& joined,
                     std::vector<BatchOutcome>& outcomes);

  ServerConfig config_;
  const ParameterStore* store_;
  sched::Scheduler* scheduler_;

  mutable util::Mutex mutex_{"core.batch", 26};
  std::map<std::uint64_t, Trunk> trunks_ MENOS_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> groups_{0};
  std::atomic<std::uint64_t> members_{0};
};

}  // namespace menos::core
