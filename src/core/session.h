// Per-client serving session (Algorithm 1 + Fig 4's "serving processes").
//
// Each connected client gets one session. The session owns the client's
// model *structure* (built over the shared ParameterStore in Menos modes,
// or over a private copy in the vanilla baseline), the client's adapter +
// optimizer state, and drives the four-step loop of §2.2 under the memory
// policy of its ServingMode.
//
// Sessions are event-driven state machines, not threads (see
// docs/ARCHITECTURE.md):
//
//   Handshake -> Profiling -> AwaitRequest -> AwaitForwardGrant -> Forward
//        -> AwaitRequest -> AwaitBackwardGrant -> Backward -> AwaitRequest
//        ... -> Parked (link loss under a lease) -> AwaitRequest (resume)
//        ... -> Finished
//
// Forward and Backward requests take one path from request to reply: the
// shared await-grant step (skipped while a hold-across-iteration mode
// still owns its allocation), one grant event keyed on the awaited kind,
// the solo compute or a fused batch pass (Policy::CoalescedBatch), and
// one reply epilogue (reply_result) that records stats and trace events,
// replies in the session's codec and returns to AwaitRequest.
//
// All transitions run on the session's util::Strand over the server's
// shared core::Executor, so events are serialized per session without a
// per-session thread or lock. Readiness ("a frame may have arrived")
// comes from the server's net::Poller; scheduler grants arrive as strand
// events posted by on_grant. Server concurrency is therefore bounded by
// GPU memory — the paper's resource — not by OS thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/executor.h"
#include "core/parameter_store.h"
#include "core/runtime.h"
#include "mem/offload_engine.h"
#include "net/poller.h"
#include "net/transport.h"
#include "optim/optimizer.h"
#include "util/mutex.h"
#include "util/queue.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace menos::core {

struct BatchGroup;    // core/batch.h
struct BatchOutcome;  // core/batch.h

/// Cached profiling results shared across sessions with identical
/// fine-tuning configurations (the paper profiles each *configuration*
/// once; identical clients reuse the measurement).
class ProfileCache {
 public:
  std::optional<sched::ClientDemands> find(const std::string& key) const;
  void insert(const std::string& key, const sched::ClientDemands& demands);

 private:
  mutable util::Mutex mutex_{"core.profile_cache", 16};
  std::unordered_map<std::string, sched::ClientDemands> cache_
      MENOS_GUARDED_BY(mutex_);
};

/// Everything needed to recreate a live session on another shard
/// (fleet::Fleet drives Server::migrate_out -> Server::migrate_in). The
/// ticket is in-memory only: the client's adapter and optimizer state
/// travel as host-side serialized bytes, while the base model is NOT
/// carried — every shard shares base_seed, so their ParameterStores are
/// bit-identical by construction and only the per-client state moves.
/// The at-least-once bookkeeping (backwards_applied, last_backward_reply,
/// cached_activation) rides along so a replayed iteration on the target
/// shard stays bit-identical to the uninterrupted run.
struct MigrationTicket {
  std::uint64_t token = 0;
  net::FinetuneConfig client_config;
  sched::ClientDemands demands;
  std::vector<std::uint8_t> adapter_blob;  ///< serialize_adapter output
  /// Optimizer state buffers in state_tensors() order, plus the step
  /// counter (Adam's bias correction depends on it).
  std::vector<std::vector<float>> optimizer_state;
  std::int64_t optimizer_steps = 0;
  std::uint64_t backwards_applied = 0;
  net::Message last_backward_reply;
  net::WireTensor cached_activation;
  std::uint64_t resumes = 0;
  std::size_t persistent_bytes = 0;  ///< the A + O scheduler charge
  /// Offload-engine accounting carried across shards (SwapOnIdle only).
  mem::ExportedUnit unit;
  bool had_unit = false;
};

/// Aggregate per-session timing, mirroring the paper's Table 1-3 breakdown
/// (as observed server-side).
struct SessionStats {
  util::RunningStat schedule_wait_s;  ///< request -> grant (Table 3)
  util::RunningStat compute_s;        ///< forward+backward compute (Table 2)
  std::uint64_t iterations = 0;
  std::uint64_t reforwards = 0;  ///< extra forward passes paid by on-demand
  std::uint64_t swaps = 0;       ///< vanilla task swaps (in+out pairs)
};

class ServingSession
    : public std::enable_shared_from_this<ServingSession> {
 public:
  /// Routes a ResumeSession received on a fresh connection to the parked
  /// session holding `token`; returns true once the connection has been
  /// handed over (set by the Server, which owns the session table).
  using ResumeRouter =
      std::function<bool(std::uint64_t token,
                         std::shared_ptr<net::Connection> connection)>;

  /// `offload` is non-null only under Policy::SwapOnIdle (shared modes):
  /// the session registers its A + O as a residency unit at handshake.
  /// `token` is the opaque session identity echoed in HelloAck; a
  /// reconnecting client presents it in ResumeSession (docs/FAULTS.md).
  /// `executor` and `poller` are the server's shared serving core; both
  /// must outlive the session.
  ServingSession(int id, std::uint64_t token,
                 std::unique_ptr<net::Connection> connection,
                 const ServerConfig& config, const ParameterStore* store,
                 const nn::TransformerConfig& model,
                 sched::Scheduler& scheduler,
                 gpusim::DeviceManager& devices,
                 util::Mutex& profiling_mutex, ProfileCache& profile_cache,
                 Executor& executor, net::Poller& poller,
                 mem::OffloadEngine* offload = nullptr);
  ~ServingSession();

  /// Register with the poller and begin consuming events. Must be called
  /// on a shared_ptr-owned session (shared_from_this).
  void start();

  /// Close the connection and post a stop event; the session winds down
  /// through cleanup on its strand and then fires the on_finished hook.
  void request_stop();

  /// Must be set before start() for ResumeSession routing to work; without
  /// it a resume attempt is answered with Error.
  void set_resume_router(ResumeRouter router) {
    resume_router_ = std::move(router);
  }

  /// Invoked (from the strand) exactly once, after the session reaches
  /// Finished — the Server uses it to wake stop() waiters.
  void set_on_finished(std::function<void()> hook) {
    on_finished_ = std::move(hook);
  }

  /// Hand a reconnecting client's fresh connection to this session. Closes
  /// the dead one, refreshes the lease, replies ResumeAck, and posts a
  /// resume event that un-parks the state machine. False if the session
  /// cannot be resumed (leases off, already expired/stopped/finished).
  bool attach(std::shared_ptr<net::Connection> connection);

  /// Reaper hook: expire the session if its lease deadline passed — close
  /// the connection and post an expiry event so the state machine runs
  /// cleanup and releases every byte it holds.
  void expire_if_overdue();

  /// Scheduler grant arrived for this session (posted as a GrantEvent).
  void on_grant(const sched::Grant& grant);

  /// Fused-batch path (Policy::CoalescedBatch, core/batch.h): the
  /// BatchCoordinator asks this member to contribute slot `slot` of
  /// `group`. Posted RAW onto the strand — it must run even for a session
  /// that just finished, so the group's delivery countdown always reaches
  /// zero and the fused pass can never stall on a dead member (the member
  /// simply contributes nothing). The last member to deliver runs the
  /// fused pass inline on its own strand.
  void batch_join(const std::shared_ptr<BatchGroup>& group, std::size_t slot);

  /// The fused pass finished: deliver this member's row slice (or the
  /// group's failure). Posted with the normal event contract — a finished
  /// member ignores it; its scheduler charge was released with the group.
  void batch_complete(BatchOutcome outcome);

  /// Fleet migration, source side. Blocks until the strand runs the export
  /// event, so it must be called OFF the executor (the fleet's migrator
  /// thread) — a worker waiting on its own pool could deadlock. Returns
  /// nullopt if the session is not migratable right now: mid-iteration,
  /// holding an allocation or a live graph, vanilla mode, leases off, or
  /// already finishing. On success the session is finished locally WITHOUT
  /// releasing what the ticket now owns; the client's next frame finds the
  /// link closed and its retry/ResumeSession path replays on the target.
  std::optional<MigrationTicket> export_for_migration();

  /// Fleet migration, target side: rebuild the exported session over THIS
  /// server's store/scheduler. Runs caller-side (no strand activity yet —
  /// the session must not be published before this returns). Throws on
  /// failure (e.g. the shard cannot fit A + O) after rolling back its own
  /// registrations; the ticket stays valid for re-import elsewhere.
  void import_migrated(const MigrationTicket& ticket);

  int id() const noexcept { return id_; }
  std::uint64_t token() const noexcept { return token_; }
  bool lease_enabled() const noexcept { return config_.lease_seconds > 0.0; }
  bool finished() const noexcept { return finished_.load(); }

  /// Times a fresh connection was attached via ResumeSession.
  std::uint64_t resumes() const noexcept { return resumes_.load(); }

  /// Persistent GPU bytes attributable to this client: A + O in shared
  /// modes; the whole task copy in vanilla mode (0 while swapped out).
  std::size_t persistent_gpu_bytes() const;

  SessionStats stats() const;
  const sched::ClientDemands& demands() const noexcept { return demands_; }

 private:
  enum class State : std::uint8_t {
    Handshake,          ///< waiting for the first frame (Hello/Resume)
    Profiling,          ///< measuring M_f / M_b inside handshake()
    AwaitRequest,       ///< idle, watching the connection for a frame
    AwaitForwardGrant,  ///< Forward queued on the scheduler
    Forward,            ///< forward compute in progress (transient)
    AwaitBackwardGrant, ///< Backward queued on the scheduler
    Backward,           ///< backward compute in progress (transient)
    Parked,             ///< link down, lease alive, awaiting resume
    Finished,
  };

  // ----- event plumbing (everything below runs on the strand) -----

  /// Post an event onto the strand with the session kept alive and the
  /// serve loop's error contract applied: an Error escaping the event is
  /// logged, answered with an Error frame, and finishes the session.
  void post_event(std::function<void(ServingSession&)> event);

  /// Drain frames while in a frame-consuming state; rearms the poller
  /// watch once the connection runs Empty.
  void pump();
  void handle_frame(const net::Message& msg);
  void handshake(const net::Message& hello);
  void route_resume(std::uint64_t token);

  void start_forward(const net::Message& msg);
  void start_backward(const net::Message& msg);
  /// The solo compute halves of run_op; `compute_sw` started before the
  /// residency/swap-in prologue.
  void finish_forward(const net::Message& msg, double wait_s,
                      const util::Stopwatch& compute_sw);
  void finish_backward(const net::Message& msg, double wait_s,
                       const util::Stopwatch& compute_sw);

  /// The shared await-grant step: run `msg` at once when the allocation is
  /// still held (holds_across_iteration modes), else queue it on the
  /// scheduler and wait in the matching Await*Grant state.
  void await_grant(sched::OpKind kind, const net::Message& msg);
  /// Enter the compute state for `kind`, make the client's state resident
  /// (offload swap-in, vanilla task swap-in) and run the solo op.
  void run_op(sched::OpKind kind, const net::Message& msg, double wait_s);
  /// The kind the current Await*Grant state waits for, or nullopt.
  std::optional<sched::OpKind> awaited_kind() const;
  void grant_event();

  /// The reply epilogue every op ends in (solo forward, solo backward,
  /// fused batch): wait/compute stats, trace events, a Forward/Backward
  /// result carrying the session codec and timings, the backward dedup
  /// bookkeeping, then back to AwaitRequest and pump().
  void reply_result(sched::OpKind kind, net::WireTensor result,
                    std::uint64_t iteration, double wait_s, double compute_s);
  void resume_event();
  void stop_event();
  void expire_event();

  /// Strand halves of the fused-batch hooks above.
  void batch_join_event(BatchGroup& group, std::size_t slot);
  void batch_complete_event(BatchOutcome& outcome);

  /// The watched connection died (Closed). Switch to a freshly attached
  /// link, park under a lease, or finish. Returns true when pumping may
  /// continue on a new connection.
  bool handle_link_down();

  /// Strand half of export_for_migration: checks migratability, fills the
  /// ticket, releases this shard's claims, and finishes the session via
  /// finish_migrated (which must NOT double-release what the ticket owns).
  std::optional<MigrationTicket> export_event();
  void finish_migrated();

  /// Build section_ + optimizer_ for client_config_ (handshake and import
  /// share it, so both consume the adapter RNG streams identically).
  void build_section();

  /// Terminal transitions. finish_now: the pre-handshake exits that leave
  /// the connection open and skip cleanup (nothing was registered).
  /// finish_session: the full teardown path through cleanup().
  void finish_now();
  void finish_session();
  void fail_session(const std::string& reason);
  void cleanup();
  /// The state-dropping tail of cleanup() and finish_migrated(): free the
  /// client's GPU state and iteration caches, close and drop the link.
  void drop_state();

  // ----- poller plumbing -----
  void watch_conn(const std::shared_ptr<net::Connection>& conn);
  void unwatch_conn();
  void rearm_watch();

  bool send_reply(const net::Message& message);

  void touch_lease_locked() MENOS_REQUIRES(conn_mutex_);
  void expire_locked() MENOS_REQUIRES(conn_mutex_);

  /// Profile M_f / M_b (§3.3) with random inputs on the real device.
  sched::ClientDemands profile();
  std::string profile_key() const;

  void release();  ///< hand the live allocation back to the scheduler

  /// Vanilla task-swap helpers (migrate params + optimizer state).
  void swap_to(gpusim::Device& device);

  /// Offload-engine helpers (no-ops unless a unit is registered). Busy
  /// nests; MenosPreserveAll never drops its last nesting level, so its
  /// unit — like its graph — stays pinned for the session's lifetime.
  void register_residency_unit();
  /// Build the unit's move/charge callbacks, snapshotting each tensor's
  /// CURRENT device as its home — so an import must call this before
  /// migrating the freshly built section to host.
  mem::UnitCallbacks make_unit_callbacks();
  void offload_begin_use();
  void offload_end_use();
  void offload_ensure_resident();

  int id_;
  std::uint64_t token_;
  ResumeRouter resume_router_;
  std::function<void()> on_finished_;

  // The live connection table. attach()/request_stop()/the reaper mutate
  // it from foreign threads; the strand snapshots it into serving_conn_.
  mutable util::Mutex conn_mutex_{"core.session.conn", 20};
  std::shared_ptr<net::Connection> connection_ MENOS_GUARDED_BY(conn_mutex_);
  std::chrono::steady_clock::time_point lease_deadline_
      MENOS_GUARDED_BY(conn_mutex_);
  bool expired_ MENOS_GUARDED_BY(conn_mutex_) = false;
  /// Strand-only: the connection the in-flight request arrived on. Replies
  /// go here and never to a connection attached mid-computation.
  std::shared_ptr<net::Connection> serving_conn_;

  ServerConfig config_;
  const ParameterStore* store_;  // null in vanilla mode
  nn::TransformerConfig model_;
  sched::Scheduler* scheduler_;
  gpusim::DeviceManager* devices_;
  gpusim::Device* gpu_;   ///< entry device (first server block's GPU)
  gpusim::Device* host_;
  util::Mutex* profiling_mutex_;  // owned by the Server; serializes profiling
  ProfileCache* profile_cache_;
  Executor* executor_;
  net::Poller* poller_;
  mem::OffloadEngine* offload_;   // owned by the Server; null unless SwapOnIdle

  net::FinetuneConfig client_config_;
  /// Heterogeneity profile shorthands, validated + latched at handshake /
  /// import (strand only). frozen_: SplitFrozen — the client half is
  /// frozen, so backward never materializes (or ships) an activation
  /// gradient at the cut. codec_: wire encoding for this session's
  /// activation payloads in both directions.
  bool frozen_ = false;
  ActivationCodec codec_ = ActivationCodec::None;
  /// Coalescing compatibility key (0 = never coalesce), computed at
  /// handshake/import and registered with the scheduler. Strand only.
  std::uint64_t batch_key_ = 0;
  std::unique_ptr<nn::ServerSection> section_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  sched::ClientDemands demands_;
  /// A + O reserved on the scheduler (shared modes). Atomic because
  /// persistent_gpu_bytes() reads it from introspection threads.
  std::atomic<std::size_t> persistent_bytes_{0};
  std::atomic<std::size_t> task_bytes_{0};  ///< vanilla: M_copy + A + O
  /// True once the A + O residency unit is registered with the offload
  /// engine (read by persistent_gpu_bytes from other threads).
  std::atomic<bool> unit_registered_{false};

  std::atomic<bool> stop_requested_{false};
  bool holding_allocation_ = false;        // strand only
  std::atomic<bool> on_gpu_{true};

  // ----- state machine (strand only) -----
  State state_ = State::Handshake;
  util::Strand strand_;
  std::uint64_t watch_token_ = 0;          // 0 = not watching
  net::Message pending_msg_;               ///< request awaiting its grant
  util::Stopwatch wait_sw_;                ///< request -> grant timing

  // At-least-once delivery bookkeeping (docs/FAULTS.md): count of applied
  // backward steps, and — when leases are enabled — the last BackwardResult
  // so a resumed client resending a Backward whose reply was lost gets the
  // cached result instead of a double optimizer step.
  std::atomic<std::uint64_t> backwards_applied_{0};
  net::Message last_backward_reply_;  // strand only
  std::atomic<std::uint64_t> resumes_{0};

  // Iteration state for modes that hold the graph across fwd -> bwd.
  tensor::Tensor held_input_;
  tensor::Tensor held_output_;
  // Cached activations x_c for the on-demand re-forward (host-side copy;
  // "we just need to cache the forward activations for the re-forward
  // computation, which is negligible" — §3.2).
  net::WireTensor cached_activation_;

  mutable util::Mutex stats_mutex_{"core.session.stats", 22};
  SessionStats stats_ MENOS_GUARDED_BY(stats_mutex_);

  std::atomic<bool> finished_{false};
};

}  // namespace menos::core
