// The Menos server (Fig 4): accepts clients, profiles them, and serves
// forward/backward computation under the operation-level scheduler.
//
// Serving is event-driven (docs/ARCHITECTURE.md): sessions are state
// machines multiplexed onto a shared core::Executor, with readiness demuxed
// by one net::Poller service thread. The server's OS thread count is
// therefore O(executor width), not O(clients).
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/session.h"
#include "mem/offload_engine.h"
#include "net/poller.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace menos::core {

class BatchCoordinator;  // core/batch.h

class Server {
 public:
  /// The server hosts exactly one base model (`model`) on
  /// `devices.gpu(0)`. In shared modes the ParameterStore is preloaded
  /// here; the schedulable capacity is whatever the GPU has left.
  Server(const ServerConfig& config, gpusim::DeviceManager& devices,
         const nn::TransformerConfig& model);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start accepting clients on `acceptor` (runs on a background thread).
  /// `acceptor` is borrowed, not owned: it must stay alive until stop()
  /// returns — declare it before the Server (or stop in a destructor) so
  /// exception unwinding cannot destroy it under the accept loop.
  void start(net::Acceptor& acceptor);

  /// Start serving WITHOUT an acceptor: connections arrive only through
  /// adopt_connection / migrate_in. This is the fleet-shard mode, where the
  /// fleet's Router owns the single accept loop.
  void start();

  /// Stop accepting, wind every session down through its state machine,
  /// then stop the poller and executor (owned core only — a shared core is
  /// stopped by its owner after every shard has stopped). Idempotent.
  void stop();

  /// Hand an accepted connection to a new session and return its token
  /// (the same identity HelloAck echoes to the client). This is the only
  /// place a session for a new connection is built: the accept loop calls
  /// it with no `first` frame; the fleet Router passes the Hello it read to
  /// place the connection, and the session handles that frame before any
  /// other. Returns 0 while the server is stopping (the caller closes the
  /// connection).
  std::uint64_t adopt_connection(std::shared_ptr<net::Connection> connection,
                                 std::optional<net::Message> first);

  /// Route a reconnecting client's fresh connection to the parked session
  /// owning `token`. False -> the session is gone (lease expired or never
  /// existed) and the caller answers Error. Sessions use this through
  /// their ResumeRouter hook; the fleet Router calls it directly.
  bool route_resume(std::uint64_t token,
                    std::shared_ptr<net::Connection> connection);

  /// Live-migration source side: synchronously export the session holding
  /// `token`. Blocks on the session's strand, so it must be called from a
  /// thread OUTSIDE the executor (the fleet's migrator thread). Nullopt if
  /// the token is unknown or the session is not migratable right now.
  std::optional<MigrationTicket> migrate_out(std::uint64_t token);

  /// Live-migration target side: rebuild the exported session here. False
  /// if the import failed (e.g. this shard cannot fit its A + O); the
  /// ticket stays valid for re-import elsewhere (including the source).
  bool migrate_in(const MigrationTicket& ticket);

  /// Observer fired (from a session's strand, with no server locks held)
  /// whenever a session reaches Finished, keyed by its token. Set before
  /// start(); the fleet Router uses it to drop its placement entry.
  using SessionClosedHook = std::function<void(std::uint64_t token)>;
  void set_session_closed_hook(SessionClosedHook hook) {
    session_closed_hook_ = std::move(hook);
  }

  // ----- introspection for tests/benches -----

  /// GPU bytes that persist across iterations: shared base model + every
  /// client's adapter and optimizer state (the Fig 5 metric). In vanilla
  /// mode: the sum of resident per-client task copies.
  std::size_t persistent_gpu_bytes() const;

  sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  const ParameterStore* store() const noexcept { return store_.get(); }

  /// Non-null iff sched_policy == Policy::SwapOnIdle.
  mem::OffloadEngine* offload_engine() noexcept { return offload_.get(); }

  /// Non-null iff sched_policy == Policy::CoalescedBatch in a shared mode
  /// (docs/ARCHITECTURE.md "Cross-client batched trunk compute").
  BatchCoordinator* batch_coordinator() noexcept { return batching_.get(); }

  /// The shared serving executor (width = ServerConfig::executor_threads).
  Executor& executor() noexcept { return *executor_; }

  int session_count() const;

  /// Aggregate stats across sessions (live ones only).
  std::vector<SessionStats> session_stats() const;

 private:
  void accept_loop(net::Acceptor* acceptor);
  void reap_finished_locked() MENOS_REQUIRES(sessions_mutex_);

  /// Shared start()/start(acceptor) body: start the owned poller (a shared
  /// one is already running) and schedule the lease reaper.
  void start_core();

  /// Wire a freshly built session into the server: resume router, live
  /// count, and the on_finished hook. Does not start() it.
  void install_session_locked(const std::shared_ptr<ServingSession>& session)
      MENOS_REQUIRES(sessions_mutex_);

  bool owns_core() const noexcept { return owned_executor_ != nullptr; }

  /// Lease-reaper tick, hosted on the poller's timer wheel (lease_seconds
  /// > 0 only): expires sessions whose deadline passed and sweeps finished
  /// ones, so a crashed client's GPU memory is reclaimed without waiting
  /// for the next accept.
  void reap_tick();

  ServerConfig config_;
  gpusim::DeviceManager* devices_;
  nn::TransformerConfig model_;
  std::unique_ptr<ParameterStore> store_;  // null in vanilla mode
  std::unique_ptr<sched::Scheduler> scheduler_;
  // Declared after scheduler_ (engine swap tasks charge the scheduler, so
  // the engine must be destroyed first) and before sessions_ (sessions hold
  // a raw pointer and unregister their units in cleanup()).
  std::unique_ptr<mem::OffloadEngine> offload_;  // SwapOnIdle only
  // Fused cross-client trunk compute (CoalescedBatch only). Declared after
  // scheduler_ (run_group releases group charges into it) and before the
  // serving core + sessions_: in-flight groups transiently hold session
  // pointers, and every group drains before stop() returns.
  std::unique_ptr<BatchCoordinator> batching_;
  // The serving core. Declared before sessions_: a session's destructor
  // may still unwatch itself, so the poller must outlive every session.
  // When ServerConfig::shared_executor/shared_poller are set (fleet mode)
  // the owned pointers stay null and the raw ones alias the shared core.
  std::unique_ptr<Executor> owned_executor_;
  std::unique_ptr<net::Poller> owned_poller_;
  Executor* executor_ = nullptr;
  net::Poller* poller_ = nullptr;
  SessionClosedHook session_closed_hook_;  ///< immutable after start
  // Serializes the profiling runs themselves (device headroom), not a data
  // member — sessions lock it around profile().
  // NOLINTNEXTLINE(mutex-annotation)
  util::Mutex profiling_mutex_{"core.server.profiling", 14};
  ProfileCache profile_cache_;

  mutable util::Mutex sessions_mutex_{"core.server.sessions", 10};
  std::vector<std::shared_ptr<ServingSession>> sessions_
      MENOS_GUARDED_BY(sessions_mutex_);
  int next_client_id_ MENOS_GUARDED_BY(sessions_mutex_) = 0;
  /// Mints session tokens; seeded from base_seed so runs are reproducible
  /// but tokens are not trivially guessable across configurations.
  util::Rng token_rng_ MENOS_GUARDED_BY(sessions_mutex_);

  net::Acceptor* acceptor_ = nullptr;
  std::atomic<bool> started_{false};
  // The accept thread is infrastructure (it blocks in accept(), which the
  // poller cannot demux for every Acceptor flavor), not a per-client thread.
  std::thread accept_thread_;  // NOLINT(raw-thread)
  std::atomic<bool> stopping_{false};
  std::uint64_t reaper_timer_ = 0;  ///< poller timer token (0 = none)

  /// Sessions that exist but have not fired on_finished yet. stop() waits
  /// for this to reach zero before tearing the executor down.
  mutable util::Mutex live_mutex_{"core.server.live", 12};
  util::CondVar live_cv_;
  int live_sessions_ MENOS_GUARDED_BY(live_mutex_) = 0;
};

}  // namespace menos::core
