#include "fleet/router.h"

#include <utility>

#include "util/logging.h"

namespace menos::fleet {

Router::Router(std::vector<core::Server*> shards, PlacementPolicy& policy,
               core::Executor& executor, net::Poller& poller,
               util::EventTrace* trace)
    : shards_(std::move(shards)),
      policy_(&policy),
      executor_(&executor),
      poller_(&poller),
      trace_(trace) {
  MENOS_CHECK_MSG(!shards_.empty(), "router needs at least one shard");
  util::MutexLock lock(mutex_);
  placed_.assign(shards_.size(), 0);
}

Router::~Router() { stop(); }

void Router::start(net::Acceptor& acceptor) {
  MENOS_CHECK_MSG(!accept_thread_.joinable(), "router already started");
  acceptor_ = &acceptor;
  accept_thread_ = std::thread([this] { accept_loop(acceptor_); });  // NOLINT(raw-thread)
}

void Router::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (acceptor_ != nullptr) acceptor_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drop connections still waiting for their first frame. Unwatch happens
  // off the poller thread (here), which is the contract poller::unwatch
  // synchronizes on.
  std::unordered_map<std::uint64_t, PendingConn> pending;
  {
    util::MutexLock lock(mutex_);
    pending.swap(pending_);
  }
  for (auto& [id, p] : pending) {
    if (p.watch != 0) poller_->unwatch(p.watch);
    p.conn->close();
  }
}

void Router::accept_loop(net::Acceptor* acceptor) {
  while (true) {
    std::unique_ptr<net::Connection> accepted = acceptor->accept();
    if (accepted == nullptr) return;  // acceptor closed
    if (stopping_.load()) {
      accepted->close();
      continue;
    }
    std::shared_ptr<net::Connection> conn = std::move(accepted);
    std::uint64_t id = 0;
    {
      util::MutexLock lock(mutex_);
      id = next_pending_++;
      pending_[id].conn = conn;
    }
    // Event-driven first read: the poller signals readiness, an executor
    // task does the (non-blocking) read — the accept loop never waits on a
    // slow connector. Watches start disarmed, so the callback cannot fire
    // before the token is stored below.
    const std::uint64_t watch = poller_->watch(*conn, [this, id] {
      executor_->post([this, id] { handle_first(id); });
    });
    bool keep = false;
    {
      util::MutexLock lock(mutex_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        it->second.watch = watch;
        keep = true;
      }
    }
    if (keep) {
      poller_->rearm(watch);
    } else {
      // stop() swept the map between insert and watch.
      poller_->unwatch(watch);
      conn->close();
    }
  }
}

void Router::remove_pending(std::uint64_t pending_id) {
  std::uint64_t watch = 0;
  {
    util::MutexLock lock(mutex_);
    auto it = pending_.find(pending_id);
    if (it == pending_.end()) return;
    watch = it->second.watch;
    pending_.erase(it);
  }
  if (watch != 0) poller_->unwatch(watch);
}

void Router::handle_first(std::uint64_t pending_id) {
  if (stopping_.load()) return;
  std::shared_ptr<net::Connection> conn;
  std::uint64_t watch = 0;
  {
    util::MutexLock lock(mutex_);
    auto it = pending_.find(pending_id);
    if (it == pending_.end()) return;
    conn = it->second.conn;
    watch = it->second.watch;
  }
  net::Message msg;
  net::RecvStatus status;
  try {
    status = conn->try_receive(&msg);
  } catch (const ProtocolError& e) {
    MENOS_LOG(Warn) << "router dropping corrupt connection: " << e.what();
    conn->close();
    remove_pending(pending_id);
    return;
  }
  if (status == net::RecvStatus::Empty) {
    poller_->rearm(watch);
    return;
  }
  remove_pending(pending_id);
  if (status == net::RecvStatus::Closed) return;
  try {
    switch (msg.type) {
      case net::MessageType::Hello:
        route_hello(std::move(conn), std::move(msg));
        break;
      case net::MessageType::ResumeSession:
        route_resume(std::move(conn), msg.session_token);
        break;
      default:
        conn->send(net::Message::error(
            "expected Hello or ResumeSession, got " +
            std::string(net::message_type_name(msg.type))));
        conn->close();
    }
  } catch (const Error& e) {
    MENOS_LOG(Warn) << "router failed to place a connection: " << e.what();
    conn->send(net::Message::error(e.what()));
    conn->close();
  }
}

void Router::route_hello(std::shared_ptr<net::Connection> conn,
                         net::Message hello) {
  int shard = 0;
  std::uint64_t token = 0;
  {
    // Placement, adoption and the table insert share one hold. Placements
    // are serialized, so every decision sees the loads left by the previous
    // one — LeastLoaded distributes near-perfectly even under a burst of
    // simultaneous connects. And the entry and the trace record exist
    // before the session can send HelloAck (so a resume always finds the
    // entry) or finish (its closed hook waits for this hold, then erases
    // the entry).
    util::MutexLock lock(mutex_);
    shard = policy_->place(hello.config, gather_loads());
    MENOS_CHECK_MSG(shard >= 0 && shard < static_cast<int>(shards_.size()),
                    "policy returned shard " << shard << " out of range");
    token = shards_[static_cast<std::size_t>(shard)]->adopt_connection(
        conn, std::move(hello));
    if (token != 0) {
      table_[token].shard = shard;
      ++placed_[static_cast<std::size_t>(shard)];
      if (trace_ != nullptr) {
        trace_->record(util::TraceCategory::Session, "router.placed", shard,
                       token);
      }
    }
  }
  if (token == 0) conn->close();  // shard is stopping
}

void Router::route_resume(std::shared_ptr<net::Connection> conn,
                          std::uint64_t token) {
  int shard = -1;
  {
    util::MutexLock lock(mutex_);
    auto it = table_.find(token);
    if (it != table_.end()) {
      if (it->second.migrating) {
        // The session is in flight between shards; park the connection
        // until finish_migration knows where it landed.
        it->second.queued.push_back(std::move(conn));
        return;
      }
      shard = it->second.shard;
    }
  }
  if (shard < 0 ||
      !shards_[static_cast<std::size_t>(shard)]->route_resume(token, conn)) {
    conn->send(net::Message::error("unknown or expired session token"));
    conn->close();
  }
}

int Router::begin_migration(std::uint64_t token) {
  util::MutexLock lock(mutex_);
  auto it = table_.find(token);
  if (it == table_.end() || it->second.migrating) return -1;
  it->second.migrating = true;
  return it->second.shard;
}

void Router::finish_migration(std::uint64_t token, int shard) {
  std::vector<std::shared_ptr<net::Connection>> queued;
  {
    util::MutexLock lock(mutex_);
    Entry& entry = table_[token];
    entry.shard = shard;
    entry.migrating = false;
    queued.swap(entry.queued);
  }
  for (auto& conn : queued) {
    if (!shards_[static_cast<std::size_t>(shard)]->route_resume(token,
                                                                conn)) {
      conn->send(net::Message::error("unknown or expired session token"));
      conn->close();
    }
  }
}

void Router::drop_session(std::uint64_t token) {
  std::vector<std::shared_ptr<net::Connection>> queued;
  {
    util::MutexLock lock(mutex_);
    auto it = table_.find(token);
    if (it == table_.end()) return;
    queued.swap(it->second.queued);
    table_.erase(it);
  }
  for (auto& conn : queued) {
    conn->send(net::Message::error("session lost in migration"));
    conn->close();
  }
}

void Router::on_session_closed(int shard, std::uint64_t token) {
  util::MutexLock lock(mutex_);
  auto it = table_.find(token);
  if (it == table_.end()) return;
  // A migrating entry outlives its (exported) source session; an entry
  // already remapped to another shard belongs to the new session there.
  if (it->second.migrating || it->second.shard != shard) return;
  table_.erase(it);
}

std::vector<int> Router::placements() const {
  util::MutexLock lock(mutex_);
  return placed_;
}

std::vector<std::uint64_t> Router::tokens_on(int shard) const {
  util::MutexLock lock(mutex_);
  std::vector<std::uint64_t> tokens;
  for (const auto& [token, entry] : table_) {
    if (entry.shard == shard && !entry.migrating) tokens.push_back(token);
  }
  return tokens;
}

int Router::shard_of(std::uint64_t token) const {
  util::MutexLock lock(mutex_);
  auto it = table_.find(token);
  return it == table_.end() ? -1 : it->second.shard;
}

std::vector<ShardLoad> Router::gather_loads() {
  std::vector<ShardLoad> loads;
  loads.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardLoad load;
    load.shard = static_cast<int>(i);
    load.sessions = shards_[i]->session_count();
    load.reserved_bytes = shards_[i]->persistent_gpu_bytes();
    load.available_bytes = shards_[i]->scheduler().total_available();
    loads.push_back(load);
  }
  return loads;
}

}  // namespace menos::fleet
