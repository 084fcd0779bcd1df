// fleet::Router — the fleet's single front door.
//
// One accept thread takes every inbound connection; the first frame decides
// where it goes (event-driven: the router watches the pending connection on
// the shared net::Poller and reads the frame from an executor task, so a
// silent connector cannot stall other arrivals):
//
//  * Hello          -> ask the PlacementPolicy for a shard and adopt the
//                      connection there, handing the consumed Hello to
//                      Server::adopt_connection as the session's first
//                      frame. Placement, adoption and the token -> shard
//                      record happen under one hold of the router mutex;
//                      the placement is traced as "router.placed".
//  * ResumeSession  -> look the token up and hand the connection straight
//                      to that shard's parked session. A token mid-
//                      migration queues the connection; finish_migration
//                      flushes the queue at the target shard.
//  * anything else  -> Error + close.
//
// The token table is maintained by two feeds: placements here, and each
// shard's session-closed hook (a normally finished session drops its entry;
// a session finishing because it was EXPORTED is marked migrating and
// survives until finish_migration remaps it).
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/server.h"
#include "fleet/policy.h"
#include "net/poller.h"
#include "net/transport.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace menos::fleet {

class Router {
 public:
  /// `shards`, `policy`, `executor` and `poller` are borrowed and must
  /// outlive the router. The poller must already be running when start()
  /// is called (the Fleet starts it first).
  Router(std::vector<core::Server*> shards, PlacementPolicy& policy,
         core::Executor& executor, net::Poller& poller,
         util::EventTrace* trace);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Start the accept thread on `acceptor` (borrowed; alive until stop()).
  void start(net::Acceptor& acceptor);

  /// Close the acceptor, join the accept thread, and drop pending
  /// connections. Shards keep running — the Fleet stops them next.
  void stop();

  // ----- migration coordination (called by the Fleet's migrator) -----

  /// Mark `token` migrating so concurrent ResumeSessions queue instead of
  /// racing the move. Returns the current shard, or -1 if the token is
  /// unknown or already migrating.
  int begin_migration(std::uint64_t token);

  /// Record `token` as living on `shard` (the migration target — or the
  /// source again, when the move was aborted) and flush any ResumeSession
  /// connections that queued while the ticket was in flight.
  void finish_migration(std::uint64_t token, int shard);

  /// The session was lost mid-migration (both import attempts failed):
  /// drop the entry and close any queued connections.
  void drop_session(std::uint64_t token);

  /// Shard `shard`'s session-closed hook feed: a session owning `token`
  /// finished there. The entry is dropped unless it is mid-migration (the
  /// EXPORTED source session fires this too) or already remapped.
  void on_session_closed(int shard, std::uint64_t token);

  // ----- introspection -----

  /// Sessions placed per shard since start (placement counters, not live
  /// counts — the distribution tests assert on these).
  std::vector<int> placements() const;

  /// Tokens currently mapped to `shard` (victim selection for rebalance).
  std::vector<std::uint64_t> tokens_on(int shard) const;

  /// Shard currently responsible for `token`, or -1.
  int shard_of(std::uint64_t token) const;

 private:
  struct PendingConn {
    std::shared_ptr<net::Connection> conn;
    std::uint64_t watch = 0;
  };
  struct Entry {
    int shard = -1;
    bool migrating = false;
    /// ResumeSession connections that arrived mid-migration.
    std::vector<std::shared_ptr<net::Connection>> queued;
  };

  void accept_loop(net::Acceptor* acceptor);
  /// Executor task: read the pending connection's first frame and route it.
  void handle_first(std::uint64_t pending_id);
  void route_hello(std::shared_ptr<net::Connection> conn,
                   net::Message hello);
  void route_resume(std::shared_ptr<net::Connection> conn,
                    std::uint64_t token);
  /// Remove a pending entry and unwatch it (never from a poller callback).
  void remove_pending(std::uint64_t pending_id);

  std::vector<ShardLoad> gather_loads() MENOS_REQUIRES(mutex_);

  std::vector<core::Server*> shards_;
  PlacementPolicy* policy_;
  core::Executor* executor_;
  net::Poller* poller_;
  util::EventTrace* trace_;

  net::Acceptor* acceptor_ = nullptr;
  std::thread accept_thread_;  // NOLINT(raw-thread) one per fleet, like Server's
  std::atomic<bool> stopping_{false};

  // Rank below every core/sched lock: gather_loads() queries shards (ranks
  // 10/30) and route_hello adopts a connection on one (server sessions 10
  // through the executor's taskpool 70) while holding this; shard hooks
  // take it with nothing held.
  mutable util::Mutex mutex_{"fleet.router", 6};
  std::unordered_map<std::uint64_t, PendingConn> pending_
      MENOS_GUARDED_BY(mutex_);
  std::uint64_t next_pending_ MENOS_GUARDED_BY(mutex_) = 1;
  std::unordered_map<std::uint64_t, Entry> table_ MENOS_GUARDED_BY(mutex_);
  std::vector<int> placed_ MENOS_GUARDED_BY(mutex_);
};

}  // namespace menos::fleet
