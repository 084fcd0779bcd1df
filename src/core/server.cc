#include "core/server.h"

#include <algorithm>

#include "core/batch.h"
#include "util/logging.h"

namespace menos::core {

Server::Server(const ServerConfig& config, gpusim::DeviceManager& devices,
               const nn::TransformerConfig& model)
    : config_(config),
      devices_(&devices),
      model_(model),
      token_rng_(config.token_seed != 0
                     ? config.token_seed
                     : config.base_seed ^ 0x6d656e6f73ULL /* "menos" */) {
  MENOS_CHECK_MSG(devices.gpu_count() >= 1, "server needs at least one GPU");
  model_.validate();
  if (shares_base_model(config_.mode)) {
    // Load the single shared copy up front ("only one copy of the base
    // model is preloaded into the GPU memory in advance" — §3.1). With
    // several GPUs the layers are split contiguously across them.
    store_ = std::make_unique<ParameterStore>(model_, devices,
                                              config_.base_seed);
  }
  // One scheduling pool over the union of all GPUs (Fig 2's "GPU memory"
  // abstraction); the devices themselves remain the hard per-GPU backstop.
  const std::size_t available = devices.total_gpu_available();
  MENOS_CHECK_MSG(available > config_.reserve_bytes,
                  "GPU capacity exhausted by the base model");
  scheduler_ = std::make_unique<sched::Scheduler>(
      available - config_.reserve_bytes, config_.sched_policy);
  if (config_.sched_policy == sched::Policy::SwapOnIdle) {
    // SwapOnIdle evicts per-client A + O through the offload engine; the
    // vanilla baseline swaps whole task copies itself and has no separate
    // persistent unit to evict.
    MENOS_CHECK_MSG(shares_base_model(config_.mode),
                    "SwapOnIdle requires a shared serving mode");
    offload_ = std::make_unique<mem::OffloadEngine>(devices.transfer_model());
    scheduler_->set_reclaim_callback(
        [this](int /*partition*/, std::size_t bytes_needed) {
          // Runs with the scheduler mutex held (reclaim contract); the
          // engine never calls back into the scheduler on this path.
          return offload_->evict_idle(bytes_needed);
        });
  }
  if (config_.sched_policy == sched::Policy::CoalescedBatch &&
      store_ != nullptr) {
    // Cross-client fused trunk compute: the scheduler coalesces compatible
    // requests into group grants; the coordinator stacks their activations
    // and runs one pass over a shared frozen trunk. Vanilla mode has no
    // shared trunk — every session's batch_key is 0 there and the policy
    // degrades to plain FCFS + backfill.
    scheduler_->set_max_group_size(
        std::max<std::size_t>(1, config_.batch_max_group));
    batching_ =
        std::make_unique<BatchCoordinator>(config_, *store_, *scheduler_);
  }
  if (config_.shared_executor != nullptr || config_.shared_poller != nullptr) {
    // Fleet mode: all shards multiplex onto one serving core. Both halves
    // come together — a shard with its own poller but a shared executor
    // (or vice versa) has no sane stop() ordering.
    MENOS_CHECK_MSG(
        config_.shared_executor != nullptr && config_.shared_poller != nullptr,
        "shared_executor and shared_poller must be set together");
    executor_ = config_.shared_executor;
    poller_ = config_.shared_poller;
  } else {
    owned_executor_ = std::make_unique<Executor>(config_.executor_threads);
    owned_poller_ = std::make_unique<net::Poller>();
    executor_ = owned_executor_.get();
    poller_ = owned_poller_.get();
  }
  scheduler_->set_grant_callback([this](const sched::Grant& grant) {
    // Dispatched after the scheduler mutex drops (see sched::Scheduler).
    // Sessions never vanish while registered (cleanup unregisters before
    // the session leaves the table), so the lookup here is safe.
    if (grant.group.size() > 1 && batching_ != nullptr) {
      // Group grant: hand every member to the batch coordinator, which
      // fuses their trunk passes into one computation. Members are looked
      // up under the lock; the joins start after it drops.
      std::vector<std::shared_ptr<ServingSession>> members(
          grant.group.size());
      {
        util::MutexLock lock(sessions_mutex_);
        for (auto& session : sessions_) {
          for (std::size_t i = 0; i < grant.group.size(); ++i) {
            if (session->id() == grant.group[i]) members[i] = session;
          }
        }
      }
      batching_->begin_group(grant, std::move(members));
      return;
    }
    // Single grant: as above, find the session under the lock and post
    // its grant after the lock drops.
    std::shared_ptr<ServingSession> target;
    {
      util::MutexLock lock(sessions_mutex_);
      for (auto& session : sessions_) {
        if (session->id() == grant.client_id) {
          target = session;
          break;
        }
      }
    }
    if (target != nullptr) target->on_grant(grant);
  });
}

Server::~Server() { stop(); }

void Server::start_core() {
  MENOS_CHECK_MSG(!started_.exchange(true), "server already started");
  // A shared poller is started by its owner (the fleet) before any shard.
  if (owns_core()) poller_->start();
  if (config_.lease_seconds > 0.0) {
    const double interval = config_.reaper_interval_s > 0.0
                                ? config_.reaper_interval_s
                                : config_.lease_seconds / 4.0;
    reaper_timer_ = poller_->schedule_every(interval, [this] { reap_tick(); });
  }
}

void Server::start() { start_core(); }

void Server::start(net::Acceptor& acceptor) {
  acceptor_ = &acceptor;
  start_core();
  // Infrastructure thread: accept() blocks in ways the poller cannot demux
  // for every Acceptor flavor. One per server, not per client.
  accept_thread_ = std::thread([this] { accept_loop(acceptor_); });  // NOLINT(raw-thread)
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // A concurrent or repeated stop() only needs the accept thread gone;
    // the first caller performs the teardown.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (reaper_timer_ != 0) {
    poller_->cancel_timer(reaper_timer_);
    reaper_timer_ = 0;
  }
  if (acceptor_ != nullptr) acceptor_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wind every session down through its state machine and wait for the
  // executor to run them all to Finished.
  std::vector<std::shared_ptr<ServingSession>> sessions;
  {
    util::MutexLock lock(sessions_mutex_);
    sessions = sessions_;
  }
  for (auto& session : sessions) session->request_stop();
  sessions.clear();
  {
    util::MutexLock lock(live_mutex_);
    while (live_sessions_ > 0) live_cv_.wait(live_mutex_);
  }
  // A shared core keeps running — other shards' sessions live on it; the
  // fleet stops it once every shard has drained.
  if (owns_core()) {
    poller_->stop();
    executor_->stop_and_join();
  }
  util::MutexLock lock(sessions_mutex_);
  sessions_.clear();
}

void Server::install_session_locked(
    const std::shared_ptr<ServingSession>& session) {
  session->set_resume_router(
      [this](std::uint64_t t, std::shared_ptr<net::Connection> conn) {
        return route_resume(t, std::move(conn));
      });
  {
    util::MutexLock live(live_mutex_);
    ++live_sessions_;
  }
  const std::uint64_t token = session->token();
  session->set_on_finished([this, token] {
    // The closed hook runs first, with no server locks held (we are on the
    // session's strand): it may take fleet-level locks freely.
    if (session_closed_hook_) session_closed_hook_(token);
    util::MutexLock live(live_mutex_);
    --live_sessions_;
    live_cv_.notify_all();
  });
  sessions_.push_back(session);
}

void Server::accept_loop(net::Acceptor* acceptor) {
  // A null accept means the acceptor closed.
  while (std::shared_ptr<net::Connection> connection = acceptor->accept()) {
    if (adopt_connection(connection, std::nullopt) == 0) connection->close();
  }
}

std::uint64_t Server::adopt_connection(
    std::shared_ptr<net::Connection> connection,
    std::optional<net::Message> first) {
  MENOS_CHECK_MSG(connection != nullptr, "adopting a null connection");
  util::MutexLock lock(sessions_mutex_);
  // Checked under the table lock: stop() sets stopping_ before it snapshots
  // the table, so a session published here is always in that snapshot.
  if (stopping_.load()) return 0;
  reap_finished_locked();
  // `| 1` keeps 0 reserved as "no token" (the Hello/HelloAck default).
  const std::uint64_t token = token_rng_.next_u64() | 1;
  auto session = std::make_shared<ServingSession>(
      next_client_id_++, token, std::move(connection), config_, store_.get(),
      model_, *scheduler_, *devices_, profiling_mutex_, profile_cache_,
      *executor_, *poller_, offload_.get());
  install_session_locked(session);
  session->start(std::move(first));
  return token;
}

std::optional<MigrationTicket> Server::migrate_out(std::uint64_t token) {
  std::shared_ptr<ServingSession> session;
  {
    util::MutexLock lock(sessions_mutex_);
    for (auto& s : sessions_) {
      if (s->token() == token && !s->finished()) {
        session = s;
        break;
      }
    }
  }
  if (session == nullptr) return std::nullopt;
  // Off-lock: the export event runs scheduler calls whose post-unlock grant
  // dispatch takes sessions_mutex_ — waiting under it would deadlock.
  return session->export_for_migration();
}

bool Server::migrate_in(const MigrationTicket& ticket) {
  if (stopping_.load()) return false;
  MENOS_CHECK_MSG(ticket.token != 0, "migration ticket without a token");
  int id = 0;
  {
    util::MutexLock lock(sessions_mutex_);
    reap_finished_locked();
    id = next_client_id_++;
  }
  auto session = std::make_shared<ServingSession>(
      id, ticket.token, nullptr, config_, store_.get(), model_, *scheduler_,
      *devices_, profiling_mutex_, profile_cache_, *executor_, *poller_,
      offload_.get());
  try {
    session->import_migrated(ticket);
  } catch (const Error& e) {
    MENOS_LOG(Warn) << "migrate_in of session token " << ticket.token
                    << " refused: " << e.what();
    return false;
  }
  {
    util::MutexLock lock(sessions_mutex_);
    install_session_locked(session);
    // No start(): the session has no connection yet. The client's
    // ResumeSession attach() installs the watch; until then the session is
    // Parked under its lease.
  }
  // Stop may have raced the publish: either its snapshot (taken under
  // sessions_mutex_) already includes this session, or the stopping_ store
  // is visible here — both orders leave exactly one stop request.
  if (stopping_.load()) session->request_stop();
  return true;
}

bool Server::route_resume(std::uint64_t token,
                          std::shared_ptr<net::Connection> connection) {
  if (token == 0) return false;
  util::MutexLock lock(sessions_mutex_);
  for (auto& session : sessions_) {
    if (session->token() == token) {
      return session->attach(std::move(connection));
    }
  }
  return false;
}

void Server::reap_tick() {
  util::MutexLock lock(sessions_mutex_);
  for (auto& session : sessions_) session->expire_if_overdue();
  reap_finished_locked();
}

void Server::reap_finished_locked() {
  // No join: a finished session's strand holds no further work (posted
  // events bail out at Finished), so dropping the table reference is
  // enough — the shared_ptr keeps it alive through any stragglers.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Server::persistent_gpu_bytes() const {
  std::size_t total = store_ != nullptr ? store_->bytes() : 0;
  util::MutexLock lock(sessions_mutex_);
  for (const auto& session : sessions_) {
    total += session->persistent_gpu_bytes();
  }
  return total;
}

int Server::session_count() const {
  util::MutexLock lock(sessions_mutex_);
  int live = 0;
  for (const auto& session : sessions_) {
    if (!session->finished()) ++live;
  }
  return live;
}

std::vector<SessionStats> Server::session_stats() const {
  util::MutexLock lock(sessions_mutex_);
  std::vector<SessionStats> out;
  out.reserve(sessions_.size());
  for (const auto& session : sessions_) out.push_back(session->stats());
  return out;
}

}  // namespace menos::core
