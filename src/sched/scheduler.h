// Operation-level GPU memory scheduler — Algorithm 2 of the paper.
//
// Event-driven: on_request(client, kind) when activations/gradients arrive
// (lines 7-9), on_complete(client) when a computation finishes and frees
// its memory (lines 10-13). Both trigger the SCHEDULE procedure, which
// combines FCFS at the head with backfilling over the remainder, adapted
// from the IBM SP2 backfilling scheduler the paper cites [Mu'alem &
// Feitelson 2001].
//
// Every policy runs the same single SCHEDULE pass. It first builds a scan
// order — the FCFS queue, or under StragglerAware the fast clients ahead
// of deferred stragglers — then walks that order once, erasing the
// granted entries when the walk ends. The policies differ only in what
// that one walk does at a request: FcfsOnly stops at the first request
// it cannot grant, SwapOnIdle reclaims idle memory before declaring a
// request blocked, and CoalescedBatch grants compatible requests as one
// group (below).
//
// Interpretation of the paper's two fairness claims, which the raw
// pseudo-code leaves ambiguous:
//  * "the FCFS logic prevents long-waiting backward requests from being
//    consistently bypassed by newer, smaller forward requests" — backward
//    requests are served FCFS *among themselves*: a backward may never be
//    granted while an earlier backward is still waiting.
//  * "our scheduling algorithm can always select and parallelize
//    [forwards] with the backward computations of other clients" — forward
//    requests may backfill past a blocked backward head whenever they fit.
// tests/sched_test.cc pins both properties down.
//
// Policy::CoalescedBatch extends backfilling with group grants: waiting
// requests of the same kind whose clients registered the same nonzero
// batch_key (same model spec + cut depth) may be granted together as ONE
// Grant carrying a member list, so the serving core can run one fused
// batched pass through the shared trunk. Fairness is preserved: the
// member scan never crosses a non-member Backward (an earlier waiting
// backward can never be overtaken by a newly coalesced group), each
// member is charged its own bytes under its own allocation, and a member
// granted past a skipped non-member forward counts as a backfill grant.
// When more compatible requests are waiting than currently fit, the
// scheduler HOLDS the group until the target size (what an empty
// partition could hold, capped by max_group_size) fits — group releases
// via on_complete_group free members' memory atomically, so held groups
// always eventually form; a lone compatible request is still granted
// solo immediately.
//
// Memory is tracked per partition (one partition per GPU): a request must
// fit entirely inside one GPU, and the "GPU memory" of Fig 2 is the union
// of partitions. Single-GPU setups use one partition.
//
// The scheduler is thread-safe. Grants produced by a SCHEDULE pass are
// buffered while the lock is held and the grant callback is invoked AFTER
// the scheduler mutex drops, from the same thread that triggered the pass
// (still in FCFS grant order). Callbacks may therefore re-enter the
// scheduler — the event-driven serving core relies on this to enqueue
// GrantEvents onto the executor without lock-ordering hazards. The reclaim
// callback is different: it still fires with the lock held and must not
// re-enter (see set_reclaim_callback).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::sched {

enum class OpKind : std::uint8_t { Forward, Backward };

const char* op_kind_name(OpKind kind) noexcept;

/// Each policy is the one SCHEDULE pass (see the class comment) with one
/// step changed; FcfsBackfill changes nothing.
enum class Policy : std::uint8_t {
  /// The walk stops at the first request it cannot grant: strict FCFS.
  FcfsOnly,
  FcfsBackfill,  ///< the Menos scheduler (default)
  /// Before the walk declares a request (or a persistent reservation)
  /// blocked, it invokes the reclaim callback so the owner can evict idle
  /// clients' persistent state to host memory (the mem::OffloadEngine)
  /// and hand the freed bytes back to the pool.
  SwapOnIdle,
  /// The walk grants compatible waiting requests (same kind, same nonzero
  /// batch_key) as one group grant for a fused batched pass through the
  /// shared trunk (see the class comment).
  CoalescedBatch,
  /// Straggler-aware scan order. Per-client service times (grant ->
  /// release wall time, EWMA) classify clients whose estimate exceeds
  /// straggler_ratio x the population median as stragglers; the scan
  /// order lists the non-straggler queue first (in FCFS order) and the
  /// stragglers after (also FCFS), so a slow client at the head cannot
  /// pin fast clients behind its long memory-hold cycles. Anti-starvation:
  /// a straggler waiting longer than promote_slack x its own estimate is
  /// scanned with the fast class again. With no classified stragglers the
  /// scan order is the FCFS queue, so the pass is exactly FcfsBackfill —
  /// grant order, stats and all — which is what keeps homogeneous
  /// populations bit-identical under this policy (pinned in
  /// sched_test/hetero_test).
  StragglerAware,
};

/// Per-client memory demands measured during profiling (§3.3): M_f for the
/// no-grad forward, M_b for the re-forward + backward.
struct ClientDemands {
  std::size_t forward_bytes = 0;
  std::size_t backward_bytes = 0;

  std::size_t bytes_for(OpKind kind) const noexcept {
    return kind == OpKind::Forward ? forward_bytes : backward_bytes;
  }
};

/// A grant: the request of `client_id` may run on partition (GPU)
/// `partition`. Under Policy::CoalescedBatch a grant may cover a whole
/// group: `group` then lists every member client (leader == client_id
/// first, in FCFS order), each charged its own bytes under its own
/// allocation; the owner completes them together via on_complete_group.
/// Empty `group` means an ordinary solo grant.
struct Grant {
  int client_id = -1;
  OpKind kind = OpKind::Forward;
  int partition = 0;
  std::vector<int> group;
};

/// A memory-pressure observation: a reclaim pass ran because `partition`
/// could not cover `bytes_needed` from free memory. Emitted through the
/// pressure callback AFTER the scheduler mutex drops, so subscribers (the
/// fleet's rebalancer) may freely call back into the scheduler.
struct PressureEvent {
  int partition = 0;
  std::size_t bytes_needed = 0;  ///< shortfall handed to the reclaim pass
  std::size_t bytes_freed = 0;   ///< what eviction actually recovered
  std::size_t free_after = 0;    ///< partition free bytes after the pass
};

struct SchedulerStats {
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  std::uint64_t backfill_grants = 0;  ///< granted past a blocked earlier request
  std::uint64_t blocked_cycles = 0;   ///< SCHEDULE passes that left the head waiting
  std::uint64_t reclaims = 0;         ///< reclaim callbacks that freed bytes
  std::size_t reclaimed_bytes = 0;    ///< persistent bytes evicted to host
  std::uint64_t coalesced_groups = 0;   ///< group grants issued (size >= 2)
  std::uint64_t coalesced_members = 0;  ///< members across all group grants
  /// StragglerAware: grants issued ahead of an earlier-arrived request
  /// that was deferred as a straggler.
  std::uint64_t straggler_reorders = 0;
  /// StragglerAware: passes in which a starving straggler was promoted
  /// back into the fast scan.
  std::uint64_t straggler_promotions = 0;
};

class Scheduler {
 public:
  /// One partition per GPU with its schedulable capacity in bytes (i.e.
  /// what remains after the shared base model and per-client persistent
  /// adapter/optimizer state).
  explicit Scheduler(std::vector<std::size_t> partition_capacities,
                     Policy policy = Policy::FcfsBackfill);

  /// Convenience: single partition.
  Scheduler(std::size_t capacity, Policy policy = Policy::FcfsBackfill);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Must be set before any request arrives.
  void set_grant_callback(std::function<void(const Grant&)> callback);

  /// Reclaim hook for Policy::SwapOnIdle: `fn(partition, bytes_needed)`
  /// evicts idle persistent state and returns the bytes it freed, which
  /// the scheduler credits back to the partition (the inverse of
  /// reserve_persistent). Fires with the scheduler mutex held, under the
  /// same no-re-entry contract as the grant callback.
  using ReclaimCallback =
      std::function<std::size_t(int partition, std::size_t bytes_needed)>;
  void set_reclaim_callback(ReclaimCallback callback);

  /// Pressure signal: invoked once per reclaim pass (SwapOnIdle), after
  /// the scheduler mutex drops, from the thread that triggered the pass.
  /// Unlike the reclaim callback this one may re-enter the scheduler; it
  /// exists so an owner one level up (the fleet) can react to a shard
  /// running hot — e.g. by migrating a session elsewhere — without polling.
  using PressureCallback = std::function<void(const PressureEvent&)>;
  void set_pressure_callback(PressureCallback callback);

  /// Try to bring `partition`'s free memory up to `bytes` by invoking the
  /// reclaim callback. Returns true if `bytes` are now free. Public so
  /// owners can pre-drain before a known-large operation; the scheduler
  /// itself calls it before declaring a request blocked (SwapOnIdle).
  bool try_reclaim(std::size_t bytes, int partition = 0);

  /// Register a client and its profiled demands. Throws InvalidArgument if
  /// a demand cannot fit in ANY partition (the profiling phase rejects the
  /// client instead of OOMing at runtime — scheduler principle 1).
  /// `batch_key` identifies the client's coalescing class under
  /// Policy::CoalescedBatch (same model spec + cut depth => same key);
  /// 0 (the default) means "never coalesce".
  void register_client(int client_id, const ClientDemands& demands,
                       std::uint64_t batch_key = 0);

  /// Cap on group-grant size under Policy::CoalescedBatch (default 32).
  void set_max_group_size(std::size_t n);

  /// Remove a waiting/idle client. A client with a live allocation must
  /// on_complete first (StateError otherwise).
  void unregister_client(int client_id);

  /// Drop `client_id`'s queued request, if any (no-op otherwise). Teardown
  /// calls this BEFORE releasing/unregistering so no fresh grant can land
  /// in between — a grant in that window would make unregister_client
  /// throw and leak the allocation.
  void cancel_pending(int client_id);

  /// Event: data arrived from `client_id` — enqueue and run SCHEDULE.
  /// A client may have at most one outstanding request or allocation.
  void on_request(int client_id, OpKind kind);

  /// Event: the client's computation finished; reclaim its memory and run
  /// SCHEDULE.
  void on_complete(int client_id);

  /// Event: a whole group grant's fused computation finished. Frees every
  /// listed member's allocation atomically, then runs ONE SCHEDULE pass —
  /// so the next held group sees all the freed memory at once. Members
  /// whose allocation is already gone (torn down mid-pass through their
  /// own cleanup) are skipped.
  void on_complete_group(const std::vector<int>& clients);

  /// Permanently shrink a partition's schedulable memory — used for the
  /// per-client persistent adapter + optimizer state (A + O), which lives
  /// outside the request/complete cycle. Throws OutOfMemory if the
  /// partition cannot cover it right now.
  void reserve_persistent(int partition, std::size_t bytes);

  /// Return memory taken by reserve_persistent (client departure).
  void release_persistent(int partition, std::size_t bytes);

  // ----- straggler awareness (Policy::StragglerAware) -----

  /// Fold an observed service time (seconds from grant to release) into
  /// `client_id`'s EWMA estimate. The scheduler feeds this automatically
  /// from every on_complete / on_complete_group; it is public so benches
  /// and tests can seed estimates without waiting for the EWMA to warm up.
  void record_service_time(int client_id, double seconds);

  /// Current EWMA service-time estimate for `client_id` (0 until the first
  /// observation).
  double service_estimate(int client_id) const;

  /// A client is a straggler when its estimate exceeds `ratio` x the
  /// population median estimate (default 2.0; must be > 1).
  void set_straggler_ratio(double ratio);

  /// A deferred straggler rejoins the fast scan once it has waited longer
  /// than `slack` x its own service estimate (default 4.0; must be > 0).
  void set_straggler_promote_slack(double slack);

  /// Replace the clock behind service estimates, enqueue stamps and
  /// promotion waits (steady wall-clock seconds by default). The
  /// discrete-event sim injects its virtual clock here so StragglerAware
  /// classifies on simulated time, not host microseconds. Only differences
  /// of consecutive readings are ever used; the clock must be monotone.
  void set_clock(std::function<double()> clock);

  // ----- introspection -----
  std::size_t available(int partition = 0) const;
  std::size_t total_available() const;
  std::size_t allocated_to(int client_id) const;
  std::size_t waiting_count() const;
  SchedulerStats stats() const;
  int partition_count() const;

 private:
  struct Waiting {
    int client_id;
    OpKind kind;
    std::uint64_t seq;
    double enqueued_at = 0.0;  ///< steady-clock seconds, for anti-starvation
  };

  struct Allocation {
    std::size_t bytes = 0;
    int partition = -1;
    double granted_at = 0.0;  ///< steady-clock seconds, for service timing
  };

  // SCHEDULE procedure (Algorithm 2 lines 14-24), one pass for every
  // policy (see the class comment). Runs with mutex_ held and appends
  // grants to pending_grants_ instead of invoking the callback inline;
  // every public mutator drains pending_grants_ into the callback after
  // unlocking.
  void schedule_locked() MENOS_REQUIRES(mutex_);

  /// Fill `order` with waiting_ indices in scan order and return how many
  /// lead it in the fast class; order[fast..] are the deferred stragglers.
  /// FCFS for every policy but StragglerAware, which moves classified
  /// stragglers (promotions excepted) behind the fast class, FCFS within
  /// each class.
  std::size_t scan_order_locked(std::vector<std::size_t>& order)
      MENOS_REQUIRES(mutex_);

  /// Book one grant's memory and stats (solo or one group member).
  void charge_locked(int client_id, std::size_t bytes, int partition,
                     bool backfill) MENOS_REQUIRES(mutex_);

  /// Release the listed clients' allocations, then run one SCHEDULE pass.
  /// `must_hold`: a listed client without an allocation is an error
  /// (on_complete) rather than skipped (on_complete_group).
  void complete(std::span<const int> clients, bool must_hold);

  /// EWMA fold of one observed service time.
  void update_estimate_locked(int client_id, double seconds)
      MENOS_REQUIRES(mutex_);

  /// Lower median of all current service estimates (0 when none exist).
  double estimate_median_locked() const MENOS_REQUIRES(mutex_);

  /// Everything buffered under the lock for post-unlock dispatch: grants
  /// (in FCFS order) and pressure events, each with a callback copy.
  struct PendingDispatch {
    std::vector<Grant> grants;
    std::function<void(const Grant&)> grant_callback;
    std::vector<PressureEvent> pressure;
    PressureCallback pressure_callback;
  };

  /// Steal the buffered grants/pressure + callback copies for post-unlock
  /// dispatch (see the class comment).
  PendingDispatch take_pending_locked() MENOS_REQUIRES(mutex_);

  /// Invoke the callbacks over a stolen PendingDispatch. Must be called
  /// WITHOUT mutex_ held.
  static void dispatch(PendingDispatch& pending);

  /// Best-fit partition for `bytes`, or nullopt.
  std::optional<int> find_partition_locked(std::size_t bytes) const
      MENOS_REQUIRES(mutex_);

  /// Coalescing class of `client_id` (0 if none / unregistered).
  std::uint64_t batch_key_of_locked(int client_id) const
      MENOS_REQUIRES(mutex_);

  /// Try to commit a group grant led by waiting_[leader_idx] (whose solo
  /// demand already fits `partition`). Entries flagged in `granted` are
  /// invisible to the member scan. Returns true and flags the members if
  /// the group committed (possibly as a solo grant when no compatible
  /// request waits behind the leader); returns false when more compatible
  /// requests are waiting than currently fit — the caller holds the whole
  /// (key, kind) class back for this pass.
  bool try_coalesce_locked(std::size_t leader_idx, std::uint64_t key,
                           int partition, bool leader_backfill,
                           std::vector<bool>& granted) MENOS_REQUIRES(mutex_);

  /// Invoke the reclaim callback until `bytes` fit in `partition` (or the
  /// callback runs dry). Credits freed bytes to free_ and capacity_.
  bool try_reclaim_locked(int partition, std::size_t bytes)
      MENOS_REQUIRES(mutex_);

  mutable util::Mutex mutex_{"sched.scheduler", 30};
  std::vector<std::size_t> capacity_ MENOS_GUARDED_BY(mutex_);
  std::vector<std::size_t> free_ MENOS_GUARDED_BY(mutex_);
  Policy policy_;  // immutable after construction
  std::function<void(const Grant&)> grant_callback_ MENOS_GUARDED_BY(mutex_);
  ReclaimCallback reclaim_callback_ MENOS_GUARDED_BY(mutex_);
  PressureCallback pressure_callback_ MENOS_GUARDED_BY(mutex_);
  std::deque<Waiting> waiting_ MENOS_GUARDED_BY(mutex_);
  std::unordered_map<int, ClientDemands> demands_ MENOS_GUARDED_BY(mutex_);
  std::unordered_map<int, std::uint64_t> batch_key_ MENOS_GUARDED_BY(mutex_);
  std::size_t max_group_ MENOS_GUARDED_BY(mutex_) = 32;
  std::unordered_map<int, Allocation> allocations_
      MENOS_GUARDED_BY(mutex_);  // live grants
  std::uint64_t next_seq_ MENOS_GUARDED_BY(mutex_) = 0;
  SchedulerStats stats_ MENOS_GUARDED_BY(mutex_);
  /// Per-client EWMA of grant -> release seconds (StragglerAware inputs;
  /// maintained under every policy, they are cheap telemetry).
  std::unordered_map<int, double> service_est_ MENOS_GUARDED_BY(mutex_);
  double straggler_ratio_ MENOS_GUARDED_BY(mutex_) = 2.0;
  double promote_slack_ MENOS_GUARDED_BY(mutex_) = 4.0;
  /// Seconds source for the timestamps above (defaults to steady clock).
  std::function<double()> clock_ MENOS_GUARDED_BY(mutex_);
  /// Grants produced under the lock, dispatched after it drops. Always
  /// empty between public calls (every mutator drains it before returning).
  std::vector<Grant> pending_grants_ MENOS_GUARDED_BY(mutex_);
  /// Pressure events buffered the same way (one per reclaim pass).
  std::vector<PressureEvent> pending_pressure_ MENOS_GUARDED_BY(mutex_);
};

}  // namespace menos::sched
