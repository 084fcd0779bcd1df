#include "core/session.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/checkpoint.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace menos::core {

std::optional<sched::ClientDemands> ProfileCache::find(
    const std::string& key) const {
  util::MutexLock lock(mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void ProfileCache::insert(const std::string& key,
                          const sched::ClientDemands& demands) {
  util::MutexLock lock(mutex_);
  cache_[key] = demands;
}

ServingSession::ServingSession(int id, std::uint64_t token,
                               std::unique_ptr<net::Connection> connection,
                               const ServerConfig& config,
                               const ParameterStore* store,
                               const nn::TransformerConfig& model,
                               sched::Scheduler& scheduler,
                               gpusim::DeviceManager& devices,
                               util::Mutex& profiling_mutex,
                               ProfileCache& profile_cache,
                               Executor& executor, net::Poller& poller,
                               mem::OffloadEngine* offload)
    : id_(id),
      token_(token),
      config_(config),
      store_(store),
      model_(model),
      scheduler_(&scheduler),
      devices_(&devices),
      gpu_(&devices.gpu(0)),
      host_(&devices.host()),
      profiling_mutex_(&profiling_mutex),
      profile_cache_(&profile_cache),
      executor_(&executor),
      poller_(&poller),
      offload_(offload),
      strand_(executor.pool()) {
  MENOS_CHECK_MSG(!shares_base_model(config.mode) || store_ != nullptr,
                  "shared serving modes require a ParameterStore");
  util::MutexLock lock(conn_mutex_);
  connection_ = std::move(connection);
  serving_conn_ = connection_;
  // Arm the lease immediately: a connection that never completes its
  // handshake must still be reaped, or an attacker (or a crashed client)
  // could strand a session slot forever.
  touch_lease_locked();
}

ServingSession::~ServingSession() {
  // Normal teardown unwatches on the strand (finish_now/finish_session);
  // this is the backstop for a session destroyed without ever starting.
  if (watch_token_ != 0) poller_->unwatch(watch_token_);
}

void ServingSession::start() {
  watch_conn(serving_conn_);
}

void ServingSession::request_stop() {
  stop_requested_.store(true);
  {
    util::MutexLock lock(conn_mutex_);
    if (connection_ != nullptr) connection_->close();
  }
  post_event([](ServingSession& s) { s.stop_event(); });
}

void ServingSession::on_grant(const sched::Grant& grant) {
  (void)grant;  // single-GPU runtime: partition is always 0
  if (unit_registered_.load()) {
    // Prefetch-on-grant: start the swap-in on the background task lane so
    // it overlaps other clients' compute; the strand's ensure_resident()
    // joins it (or retries a failed charge).
    offload_->prefetch(id_);
  }
  post_event([](ServingSession& s) { s.grant_event(); });
}

std::size_t ServingSession::persistent_gpu_bytes() const {
  if (config_.mode == ServingMode::VanillaTaskSwap) {
    return on_gpu_.load() ? task_bytes_.load() : 0;
  }
  if (unit_registered_.load() && !offload_->resident(id_)) {
    return 0;  // A + O currently evicted to host memory
  }
  return persistent_bytes_.load();
}

SessionStats ServingSession::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

// ----- event plumbing --------------------------------------------------

void ServingSession::post_event(std::function<void(ServingSession&)> event) {
  strand_.post([self = shared_from_this(), event = std::move(event)] {
    if (self->state_ == State::Finished) return;
    try {
      event(*self);
    } catch (const Error& e) {
      // The serve loop's error contract: surface the failure to the client
      // and tear the session down through cleanup.
      MENOS_LOG(Warn) << "session " << self->id_ << " failed: " << e.what();
      self->send_reply(net::Message::error(e.what()));
      self->finish_session();
    }
  });
}

void ServingSession::watch_conn(
    const std::shared_ptr<net::Connection>& conn) {
  std::weak_ptr<ServingSession> weak = weak_from_this();
  watch_token_ = poller_->watch(*conn, [weak] {
    if (auto self = weak.lock()) {
      self->post_event([](ServingSession& s) { s.pump(); });
    }
  });
  // Watches start disarmed with a latched signal; delivery (including the
  // initial "there may be buffered frames" kick) begins here, after
  // watch_token_ is safely stored for rearm_watch().
  poller_->rearm(watch_token_);
}

void ServingSession::unwatch_conn() {
  if (watch_token_ == 0) return;
  poller_->unwatch(watch_token_);
  watch_token_ = 0;
}

void ServingSession::rearm_watch() {
  if (watch_token_ != 0) poller_->rearm(watch_token_);
}

void ServingSession::pump() {
  while (state_ == State::Handshake || state_ == State::AwaitRequest) {
    std::shared_ptr<net::Connection> conn = serving_conn_;
    if (conn == nullptr) {
      if (!handle_link_down()) return;
      continue;
    }
    net::Message msg;
    net::RecvStatus status;
    try {
      status = conn->try_receive(&msg);
    } catch (const ProtocolError& e) {
      // A frame failed CRC/length checks: the stream cannot be
      // resynchronized. Without leases this stays fatal to the session
      // (pre-fault-tolerance behavior); with leases only the link dies and
      // the client reconnects with ResumeSession.
      if (!lease_enabled() || state_ == State::Handshake) throw;
      MENOS_LOG(Warn) << "session " << id_
                      << " dropping corrupt link: " << e.what();
      conn->close();
      continue;
    }
    if (status == net::RecvStatus::Empty) {
      rearm_watch();
      return;
    }
    if (status == net::RecvStatus::Closed) {
      if (!handle_link_down()) return;
      continue;
    }
    {
      util::MutexLock lock(conn_mutex_);
      touch_lease_locked();
    }
    if (msg.type == net::MessageType::Heartbeat) {
      conn->send(net::Message::heartbeat_ack());
      continue;
    }
    handle_frame(msg);
  }
}

void ServingSession::handle_frame(const net::Message& msg) {
  if (state_ == State::Handshake) {
    if (msg.type == net::MessageType::ResumeSession) {
      // A reconnecting client: hand the connection to the parked session
      // that minted the token. This session existed only to read the first
      // frame and never registered anything, so no cleanup is needed.
      route_resume(msg.session_token);
      finish_now();
      return;
    }
    if (msg.type != net::MessageType::Hello) {
      send_reply(net::Message::error(
          "expected Hello, got " +
          std::string(net::message_type_name(msg.type))));
      finish_now();
      return;
    }
    handshake(msg);
    return;
  }
  switch (msg.type) {
    case net::MessageType::Forward:
      start_forward(msg);
      break;
    case net::MessageType::Backward:
      start_backward(msg);
      break;
    case net::MessageType::FetchAdapter:
      // The server-side adapter phi_s belongs to the client: hand over a
      // serialized copy (never the frozen base parameters). Busy-pin the
      // residency unit so an eviction cannot migrate the adapter tensors
      // mid-serialize.
      offload_begin_use();
      send_reply(net::Message::adapter_blob(serialize_adapter(*section_)));
      offload_end_use();
      break;
    case net::MessageType::PushAdapter:
      offload_begin_use();
      deserialize_adapter(msg.blob.data(), msg.blob.size(), *section_);
      offload_end_use();
      send_reply(net::Message::push_ack());
      break;
    case net::MessageType::Bye:
      finish_session();
      break;
    default:
      throw ProtocolError("unexpected message in serve loop: " +
                          std::string(net::message_type_name(msg.type)));
  }
}

void ServingSession::route_resume(std::uint64_t token) {
  // Clear our readiness hook before handing the connection over: the
  // parked session installs its own watch on attach.
  unwatch_conn();
  std::shared_ptr<net::Connection> conn;
  {
    // Disown the connection either way: on success the parked session owns
    // it, and on failure it is closed below — never by our destructor.
    util::MutexLock lock(conn_mutex_);
    conn = std::move(connection_);
    connection_ = nullptr;
  }
  serving_conn_.reset();
  if (conn == nullptr) return;
  if (resume_router_ != nullptr && resume_router_(token, conn)) return;
  conn->send(net::Message::error("unknown or expired session token"));
  conn->close();
}

bool ServingSession::handle_link_down() {
  unwatch_conn();
  if (state_ == State::Handshake) {
    // The peer vanished before its first frame; nothing was registered, so
    // no cleanup is needed.
    finish_now();
    return false;
  }
  std::shared_ptr<net::Connection> conn;
  bool expired = false;
  {
    util::MutexLock lock(conn_mutex_);
    conn = connection_;
    expired = expired_;
  }
  const bool stopped = stop_requested_.load();
  if (conn != nullptr && conn != serving_conn_ && !stopped && !expired) {
    // attach() already delivered a resumed link (possibly while we were
    // computing); switch to it and keep serving.
    serving_conn_ = conn;
    watch_conn(conn);
    return true;
  }
  if (!lease_enabled() || stopped || expired) {
    finish_session();
    return false;
  }
  // Park across link loss until attach() posts a resume event or the lease
  // reaper expires us (docs/FAULTS.md).
  state_ = State::Parked;
  serving_conn_.reset();
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "session.parked",
                          id_);
  }
  return false;
}

std::optional<sched::OpKind> ServingSession::awaited_kind() const {
  if (state_ == State::AwaitForwardGrant) return sched::OpKind::Forward;
  if (state_ == State::AwaitBackwardGrant) return sched::OpKind::Backward;
  return std::nullopt;
}

void ServingSession::grant_event() {
  // Any state but a grant wait: a stale grant that raced a stop/expiry;
  // cleanup's allocated_to() check reclaims the allocation.
  const std::optional<sched::OpKind> kind = awaited_kind();
  if (!kind.has_value()) return;
  holding_allocation_ = true;
  run_op(*kind, std::exchange(pending_msg_, net::Message()),
         wait_sw_.elapsed_seconds());
}

// ----- fused-batch path (core/batch.h) ----------------------------------

void ServingSession::batch_join(const std::shared_ptr<BatchGroup>& group,
                                std::size_t slot) {
  // Raw strand post, not post_event: the delivery countdown must reach
  // zero even when this member finished between the grant and this post —
  // otherwise the whole group (and every other member's memory) would
  // stall forever on one dead session.
  strand_.post([self = shared_from_this(), group, slot] {
    try {
      self->batch_join_event(*group, slot);
    } catch (const Error& e) {
      MENOS_LOG(Warn) << "session " << self->id_ << " failed: " << e.what();
      if (self->state_ != State::Finished) {
        self->send_reply(net::Message::error(e.what()));
        self->finish_session();
      }
    }
    if (group->outstanding.fetch_sub(1) == 1) {
      // Last member to deliver runs the fused pass inline on its strand.
      group->coordinator->finish_group(group);
    }
  });
}

void ServingSession::batch_join_event(BatchGroup& group, std::size_t slot) {
  // Join only from the matching grant-wait state; anything else (Finished
  // included) is a stale group grant that raced a stop/expiry — contribute
  // nothing, the coordinator's group release reclaims the member's charge.
  if (awaited_kind() != group.grant.kind) return;
  BatchContribution& c = group.contributions[slot];
  const bool forward = group.grant.kind == sched::OpKind::Forward;

  holding_allocation_ = true;
  state_ = forward ? State::Forward : State::Backward;
  net::Message msg = std::exchange(pending_msg_, net::Message());
  c.batch_key = batch_key_;
  c.config = client_config_;
  c.iteration = msg.iteration;
  c.wait_seconds = wait_sw_.elapsed_seconds();
  if (forward) {
    // Mirror finish_forward's re-forward modes: cache x_c for the later
    // Backward before handing it to the fused pass.
    if (!msg.eval_only) cached_activation_ = msg.tensor;
    c.activation = std::move(msg.tensor);
  } else {
    if (cached_activation_.data.empty()) {
      throw ProtocolError("Backward with no preceding Forward");
    }
    c.activation = cached_activation_;
    c.grad = std::move(msg.tensor);
  }
  // Owned copies only from here: the fused pass runs on another member's
  // strand and must not reach back into this session's state.
  c.joined = true;
}

void ServingSession::batch_complete(BatchOutcome outcome) {
  auto carried = std::make_shared<BatchOutcome>(std::move(outcome));
  post_event([carried](ServingSession& s) {
    s.batch_complete_event(*carried);
  });
}

void ServingSession::batch_complete_event(BatchOutcome& outcome) {
  const bool forward = outcome.kind == sched::OpKind::Forward;
  if (state_ != (forward ? State::Forward : State::Backward)) return;
  // The coordinator released the whole group's scheduler charge in one
  // on_complete_group call — drop the local claim without a round trip.
  holding_allocation_ = false;
  offload_end_use();  // balances start_forward/start_backward's pin
  if (!outcome.ok) {
    throw StateError("fused batch failed: " + outcome.error);
  }
  if (!forward) {
    // The fused Backward re-forwards the trunk. There is no optimizer
    // step: a coalescible session's server section is fully frozen
    // (checked at handshake), so the solo path's step/zero_grad would have
    // been a no-op anyway.
    util::MutexLock lock(stats_mutex_);
    ++stats_.reforwards;
  }
  reply_result(outcome.kind, std::move(outcome.result), outcome.iteration,
               outcome.wait_seconds, outcome.compute_seconds);
}

void ServingSession::resume_event() {
  std::shared_ptr<net::Connection> conn;
  {
    util::MutexLock lock(conn_mutex_);
    conn = connection_;
  }
  if (conn == nullptr || conn == serving_conn_) return;
  if (state_ == State::Parked || state_ == State::AwaitRequest) {
    state_ = State::AwaitRequest;
    unwatch_conn();
    serving_conn_ = conn;
    watch_conn(conn);
    pump();
  }
  // Grant-wait states keep replying on the connection the in-flight
  // request arrived on; the switch happens through handle_link_down once
  // that reply fails.
}

void ServingSession::stop_event() {
  switch (state_) {
    case State::Handshake:
      finish_now();
      return;
    case State::AwaitForwardGrant:
    case State::AwaitBackwardGrant:
      // The grant never arrives for a stopped/expired session; surface the
      // same error the blocking acquire() used to throw, then tear down
      // (cleanup's unregister drops the pending request).
      fail_session("session stopped while waiting to be scheduled");
      return;
    default:
      finish_session();
  }
}

void ServingSession::expire_event() { stop_event(); }

void ServingSession::finish_now() {
  if (finished_.exchange(true)) return;
  state_ = State::Finished;
  unwatch_conn();
  if (on_finished_) on_finished_();
}

void ServingSession::finish_session() {
  if (finished_.load()) return;
  state_ = State::Finished;
  unwatch_conn();
  cleanup();  // sets finished_
  if (on_finished_) on_finished_();
}

void ServingSession::fail_session(const std::string& reason) {
  MENOS_LOG(Warn) << "session " << id_ << " failed: " << reason;
  send_reply(net::Message::error(reason));
  finish_session();
}

// ----- handshake + profiling -------------------------------------------

void ServingSession::handshake(const net::Message& hello) {
  state_ = State::Profiling;
  client_config_ = hello.config;
  client_config_.model.validate();
  client_config_.split.validate(client_config_.model);
  if (!same_model(client_config_.model, model_)) {
    throw InvalidArgument("client requested a model this server does not host");
  }
  MENOS_CHECK_MSG(client_config_.batch_size > 0 &&
                      client_config_.seq_len > 0 &&
                      client_config_.seq_len <= model_.max_seq,
                  "invalid batch/sequence configuration");
  // Heterogeneity profile (net::ClientProfile): the declared cut depth must
  // agree with the split actually sent — a disagreement means the client is
  // confused about where its half ends, and serving the wrong trunk would
  // corrupt training silently.
  const net::ClientProfile& hello_profile = client_config_.profile;
  if (hello_profile.cut_depth != 0 &&
      hello_profile.cut_depth != client_config_.split.front_blocks) {
    throw InvalidArgument(
        "client profile cut_depth disagrees with split.front_blocks");
  }
  frozen_ = hello_profile.frozen_client_half;
  codec_ = hello_profile.codec;

  build_section();
  const bool vanilla = config_.mode == ServingMode::VanillaTaskSwap;
  if (vanilla) {
    task_bytes_.store(section_->parameter_bytes() +
                      optimizer_->state_bytes());
  } else {
    const std::size_t wanted =
        section_->trainable_parameter_bytes() + optimizer_->state_bytes();
    scheduler_->reserve_persistent(0, wanted);  // throws OutOfMemory if full
    persistent_bytes_.store(wanted);
  }

  demands_ = profile();
  // Frozen-half sessions stay out of coalescing: the fused batched
  // backward materializes per-member cut gradients, which a SplitFrozen
  // session must never produce or ship.
  batch_key_ =
      (vanilla || frozen_) ? 0 : compute_batch_key(config_, client_config_);
  // A coalescible session's trunk pass runs on the coordinator's shared
  // frozen trunk — there must be no per-client server-side trainables for
  // it to miss (compute_batch_key only admits None/Prefix adapters, which
  // guarantee this by construction).
  MENOS_CHECK_MSG(batch_key_ == 0 ||
                      section_->trainable_parameters().empty(),
                  "coalescible sessions require a frozen server section");
  scheduler_->register_client(id_, demands_, batch_key_);
  if (!vanilla && offload_ != nullptr) register_residency_unit();
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "handshake", id_);
    config_.trace->record(util::TraceCategory::Memory, "profile.forward",
                          id_, demands_.forward_bytes);
    config_.trace->record(util::TraceCategory::Memory, "profile.backward",
                          id_, demands_.backward_bytes);
  }
  send_reply(net::Message::hello_ack(demands_.forward_bytes,
                                     demands_.backward_bytes, token_,
                                     config_.lease_seconds));
  state_ = State::AwaitRequest;
}

void ServingSession::build_section() {
  // Adapter RNG derivation shared with nn::LocalModel: stream #1 is the
  // client's input section, #2 ours, #3 the client's output section.
  util::Rng root(client_config_.adapter_seed);
  (void)root.fork();
  util::Rng server_rng = root.fork();

  if (config_.mode == ServingMode::VanillaTaskSwap) {
    // Vanilla duplicates the base parameters per client. Build on the host
    // and swap in for profiling so an occupied GPU cannot OOM mid-build.
    // (Vanilla is single-GPU: it swaps whole tasks through gpu(0).)
    nn::FreshInit init(config_.base_seed);
    section_ = std::make_unique<nn::ServerSection>(
        client_config_.model, client_config_.split, client_config_.adapter,
        init, *host_, server_rng);
    gpu_ = &devices_->gpu(0);
    on_gpu_.store(false);
  } else {
    // The structure follows the store's block-to-GPU layer assignment, so
    // a multi-GPU server splits every client's section the same way.
    nn::SharedSource source = store_->source();
    const std::function<gpusim::Device&(int)> device_for =
        [this](int block) -> gpusim::Device& {
      return store_->device_for_block(block);
    };
    section_ = std::make_unique<nn::ServerSection>(
        client_config_.model, client_config_.split, client_config_.adapter,
        source, device_for, server_rng);
    gpu_ = &section_->entry_device();
    on_gpu_.store(true);
  }

  optimizer_ = optim::make_optimizer(client_config_.optimizer,
                                     section_->trainable_parameters(),
                                     client_config_.lr);
}

std::string ServingSession::profile_key() const {
  std::ostringstream os;
  const auto& c = client_config_;
  os << serving_mode_name(config_.mode) << '|'
     << nn::model_family_name(c.model.family) << '|' << c.model.dim << 'x'
     << c.model.n_layers << 'h' << c.model.n_heads << 'f'
     << c.model.ffn_hidden << 'v' << c.model.vocab_size << '|'
     << c.split.front_blocks << '-' << c.split.back_blocks << '|'
     << nn::adapter_type_name(c.adapter.type) << 'r' << c.adapter.rank << 'p'
     << c.adapter.prefix_len << '|'
     << optim::optimizer_kind_name(c.optimizer) << '|' << c.batch_size << 'x'
     << c.seq_len;
  // Frozen sessions profile with a no-grad cut input, which changes the
  // measured backward peak — they must not share cache entries with
  // trainable-half sessions of the same config.
  if (frozen_) os << "|frozen";
  return os.str();
}

sched::ClientDemands ServingSession::profile() {
  using tensor::Index;
  using tensor::Tensor;

  const bool vanilla = config_.mode == ServingMode::VanillaTaskSwap;
  const std::string key = profile_key();
  if (auto cached = profile_cache_->find(key)) {
    if (vanilla) {
      // Activation demands transfer between identical configs; the task
      // residency component is this session's own.
      sched::ClientDemands d = *cached;
      d.forward_bytes += task_bytes_.load();
      d.backward_bytes += task_bytes_.load();
      return d;
    }
    return *cached;
  }

  // §3.3: "the server generates random input sequences based on the
  // reported configurations ... passed through forward and backward
  // computations to measure the GPU memory demands."
  util::MutexLock lock(*profiling_mutex_);
  if (vanilla) swap_to(*gpu_);

  const Index batch = client_config_.batch_size;
  const Index prefix = client_config_.adapter.type == nn::AdapterType::Prefix
                           ? client_config_.adapter.prefix_len
                           : 0;
  const Index seq = client_config_.seq_len + prefix;
  const Index dim = client_config_.model.dim;
  util::Rng rng(0x9ec0ffee ^ static_cast<std::uint64_t>(id_));

  const auto make_input = [&](bool requires_grad) {
    Tensor x = Tensor::empty({batch, seq, dim}, *gpu_);
    rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.5f);
    x.set_requires_grad(requires_grad);
    return x;
  };

  // Demands aggregate across every GPU the section's layers touch (the
  // scheduler manages the Fig 2 "GPU memory" abstraction — the union of
  // all GPUs).
  const int gpus = devices_->gpu_count();
  std::vector<std::size_t> bases(static_cast<std::size_t>(gpus));
  const auto mark = [&] {
    for (int g = 0; g < gpus; ++g) {
      bases[static_cast<std::size_t>(g)] = devices_->gpu(g).allocated();
      devices_->gpu(g).reset_peak();
    }
  };
  const auto measure = [&] {
    std::size_t total = 0;
    for (int g = 0; g < gpus; ++g) {
      total += devices_->gpu(g).stats().peak -
               bases[static_cast<std::size_t>(g)];
    }
    return total;
  };

  sched::ClientDemands d;
  {
    mark();
    if (config_.mode == ServingMode::MenosOnDemand) {
      tensor::NoGradGuard no_grad;
      Tensor x = make_input(false);
      Tensor y = section_->forward(x);
    } else {
      // SplitFrozen: the cut input never tracks gradients, shrinking the
      // held graph — profile what the serving path will actually allocate.
      Tensor x = make_input(!frozen_);
      Tensor y = section_->forward(x);
    }
    d.forward_bytes = measure();
  }
  {
    mark();
    {
      Tensor x = make_input(!frozen_);
      Tensor y = section_->forward(x);
      Tensor seed;
      {
        tensor::NoGradGuard no_grad;
        seed = Tensor::zeros(y.shape(), *gpu_);
      }
      // Optimizer.step() allocates nothing (state is pre-allocated), so the
      // peak here covers the full backward path. No step is taken: profiling
      // must not perturb the adapter.
      tensor::backward(y, seed);
      optimizer_->zero_grad();
      if (!frozen_) x.zero_grad();
    }
    d.backward_bytes = measure();
  }

  if (holds_across_iteration(config_.mode)) {
    // The allocation spans forward -> backward, so its size must cover the
    // backward peak from the start.
    d.forward_bytes = d.backward_bytes;
  }

  profile_cache_->insert(key, d);
  if (vanilla) {
    swap_to(*host_);
    d.forward_bytes += task_bytes_.load();
    d.backward_bytes += task_bytes_.load();
  }
  return d;
}

// ----- scheduler + residency helpers -----------------------------------

void ServingSession::release() {
  if (!holding_allocation_) return;
  holding_allocation_ = false;
  // Under a group grant the BatchCoordinator releases the whole group's
  // charge itself (on_complete_group); a member failing or tearing down
  // mid-pass must only hand back what the scheduler still holds for it.
  if (scheduler_->allocated_to(id_) == 0) return;
  try {
    scheduler_->on_complete(id_);
  } catch (const Error&) {
    // Lost the race to the group release between the check above and the
    // call — the charge is already free.
  }
}

void ServingSession::swap_to(gpusim::Device& device) {
  const bool to_gpu = &device == gpu_;
  if (on_gpu_.load() == to_gpu) return;
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Memory,
                          to_gpu ? "swap.in" : "swap.out", id_,
                          task_bytes_.load());
  }
  for (nn::Parameter& p : section_->parameters()) {
    p.value.migrate(device);
  }
  for (tensor::Tensor t : optimizer_->state_tensors()) {
    t.migrate(device);
  }
  on_gpu_.store(to_gpu);
}

mem::UnitCallbacks ServingSession::make_unit_callbacks() {
  // Snapshot the unit's tensors with their home devices: the trainable
  // adapter parameters plus the optimizer state (exactly the A + O the
  // scheduler charge covers). Tensors are shared handles, so migrating
  // these copies moves the live storage the section and optimizer use.
  std::vector<std::pair<tensor::Tensor, gpusim::Device*>> homed;
  for (nn::Parameter& p : section_->trainable_parameters()) {
    homed.emplace_back(p.value, &p.value.device());
  }
  for (tensor::Tensor t : optimizer_->state_tensors()) {
    homed.emplace_back(t, &t.device());
  }
  mem::UnitCallbacks callbacks;
  callbacks.move = [this, homed](bool to_device) mutable {
    if (config_.trace != nullptr) {
      config_.trace->record(util::TraceCategory::Memory,
                            to_device ? "swap.in" : "swap.out", id_,
                            persistent_bytes_.load());
    }
    for (auto& [t, home] : homed) t.migrate(to_device ? *home : *host_);
  };
  callbacks.charge = [this] {
    // SwapOnIdle: reserve_persistent runs its own reclaim pass before
    // giving up, so a move-in can in turn evict somebody idler.
    scheduler_->reserve_persistent(0, persistent_bytes_.load());
  };
  return callbacks;
}

void ServingSession::register_residency_unit() {
  offload_->register_unit(id_, persistent_bytes_.load(),
                          make_unit_callbacks());
  unit_registered_.store(true);
}

void ServingSession::offload_begin_use() {
  if (unit_registered_.load()) offload_->begin_use(id_);
}

void ServingSession::offload_end_use() {
  if (unit_registered_.load()) offload_->end_use(id_);
}

void ServingSession::offload_ensure_resident() {
  if (unit_registered_.load()) offload_->ensure_resident(id_);
}

// ----- lease + resume ---------------------------------------------------

bool ServingSession::send_reply(const net::Message& message) {
  if (serving_conn_ == nullptr) return false;
  return serving_conn_->send(message);
}

void ServingSession::touch_lease_locked() {
  if (!lease_enabled()) return;
  lease_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.lease_seconds));
}

void ServingSession::expire_locked() {
  if (expired_) return;
  expired_ = true;
  if (connection_ != nullptr) connection_->close();
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session,
                          "session.lease_expired", id_);
  }
}

void ServingSession::expire_if_overdue() {
  if (!lease_enabled() || finished_.load()) return;
  bool fired = false;
  {
    util::MutexLock lock(conn_mutex_);
    if (expired_ || stop_requested_.load()) return;
    if (std::chrono::steady_clock::now() >= lease_deadline_) {
      expire_locked();
      fired = true;
    }
  }
  // The expiry event tears the state machine down on the strand — in
  // particular a session waiting on a grant, which no longer has a watch
  // to notice the closed connection.
  if (fired) post_event([](ServingSession& s) { s.expire_event(); });
}

bool ServingSession::attach(std::shared_ptr<net::Connection> connection) {
  {
    util::MutexLock lock(conn_mutex_);
    if (!lease_enabled() || expired_ || stop_requested_.load() ||
        finished_.load()) {
      return false;
    }
    if (connection_ != nullptr) connection_->close();
    connection_ = std::move(connection);
    touch_lease_locked();
    // ResumeAck carries how many Backwards actually landed, so the client
    // knows whether its in-flight optimizer step applied before the link
    // died (at-least-once dedup — docs/FAULTS.md).
    connection_->send(
        net::Message::resume_ack(token_, backwards_applied_.load()));
    resumes_.fetch_add(1);
    if (config_.trace != nullptr) {
      config_.trace->record(util::TraceCategory::Session, "session.resumed",
                            id_);
    }
  }
  post_event([](ServingSession& s) { s.resume_event(); });
  return true;
}

// ----- forward / backward ----------------------------------------------

void ServingSession::start_forward(const net::Message& msg) {
  // Busy-pin before requesting so eviction cannot race the computation;
  // swap the adapter + optimizer back in (if evicted) once granted.
  offload_begin_use();
  await_grant(sched::OpKind::Forward, msg);
}

void ServingSession::await_grant(sched::OpKind kind, const net::Message& msg) {
  if (holding_allocation_) {
    // holds_across_iteration modes still own the allocation from the
    // previous grant — no scheduler round trip.
    run_op(kind, msg, 0.0);
    return;
  }
  pending_msg_ = msg;
  state_ = kind == sched::OpKind::Forward ? State::AwaitForwardGrant
                                          : State::AwaitBackwardGrant;
  wait_sw_.reset();
  scheduler_->on_request(id_, kind);
  // The grant arrives as a strand event (possibly already queued if the
  // scheduler granted synchronously).
}

void ServingSession::run_op(sched::OpKind kind, const net::Message& msg,
                            double wait_s) {
  const bool forward = kind == sched::OpKind::Forward;
  state_ = forward ? State::Forward : State::Backward;
  offload_ensure_resident();

  util::Stopwatch compute_sw;
  if (!on_gpu_.load()) {
    swap_to(*gpu_);
    util::MutexLock lock(stats_mutex_);
    ++stats_.swaps;
  }
  if (forward) {
    finish_forward(msg, wait_s, compute_sw);
  } else {
    finish_backward(msg, wait_s, compute_sw);
  }
}

void ServingSession::reply_result(sched::OpKind kind, net::WireTensor result,
                                  std::uint64_t iteration, double wait_s,
                                  double compute_s) {
  const bool forward = kind == sched::OpKind::Forward;
  {
    util::MutexLock lock(stats_mutex_);
    stats_.schedule_wait_s.add(wait_s);
    stats_.compute_s.add(compute_s);
    if (!forward) ++stats_.iterations;
  }
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Scheduler,
                          forward ? "forward.wait" : "backward.wait", id_,
                          static_cast<std::uint64_t>(wait_s * 1e6));
    config_.trace->record(util::TraceCategory::Session,
                          forward ? "forward.compute" : "backward.compute",
                          id_, static_cast<std::uint64_t>(compute_s * 1e6));
  }
  net::Message reply =
      forward ? net::Message::forward_result(std::move(result), iteration)
              : net::Message::backward_result(std::move(result), iteration);
  reply.tensor_codec = codec_;
  reply.compute_seconds = compute_s;
  reply.schedule_wait_seconds = wait_s;
  if (!forward) {
    // At-least-once bookkeeping for start_backward's redelivery check.
    backwards_applied_.store(iteration + 1);
    if (lease_enabled()) last_backward_reply_ = reply;
  }
  send_reply(reply);
  state_ = State::AwaitRequest;
  pump();  // drain frames that buffered while we were computing
}

void ServingSession::finish_forward(const net::Message& msg, double wait_s,
                                    const util::Stopwatch& compute_sw) {
  using tensor::Tensor;
  const bool eval = msg.eval_only;
  const bool keep = !eval && holds_across_iteration(config_.mode);

  net::WireTensor result;
  if (keep) {
    // Fig 3(a)/(b) + vanilla: gradient-tracking forward, graph retained
    // until the matching Backward. PreserveAll may still be holding last
    // iteration's graph; drop it now, at the last possible moment.
    held_input_ = tensor::Tensor();
    held_output_ = tensor::Tensor();
    // SplitFrozen: the frozen client half will never consume a cut
    // gradient, so the cut input does not track one.
    held_input_ = from_wire(msg.tensor, *gpu_, /*requires_grad=*/!frozen_);
    held_output_ = section_->forward(held_input_);
    result = to_wire(held_output_);
  } else if (!eval && config_.mode == ServingMode::MenosReleaseEarly) {
    // Fig 3(c): full forward, but the graph is dropped right away (scope
    // exit) and a re-forward happens at Backward.
    cached_activation_ = msg.tensor;
    Tensor x = from_wire(msg.tensor, *gpu_, /*requires_grad=*/!frozen_);
    Tensor y = section_->forward(x);
    result = to_wire(y);
  } else {
    // Fig 3(d) / evaluation: non-gradient environment — the activation
    // cache (I) is never materialized (Algorithm 1 line 6).
    if (!eval) cached_activation_ = msg.tensor;
    tensor::NoGradGuard no_grad;
    Tensor x = from_wire(msg.tensor, *gpu_, /*requires_grad=*/false);
    Tensor y = section_->forward(x);
    result = to_wire(y);
  }
  const double compute_s = compute_sw.elapsed_seconds();

  // Unpin before release() so the reclaim pass the release may trigger
  // already sees this unit as an eviction candidate. A kept graph keeps
  // the pin until the matching Backward (PreserveAll: forever — an evicted
  // adapter under a live tape could not be migrated).
  if (!keep) offload_end_use();
  if (!keep && config_.mode != ServingMode::MenosPreserveAll) {
    // Release GPU memory (Algorithm 1 line 7): vanilla additionally swaps
    // the task out when other clients are queued for the capacity.
    if (config_.mode == ServingMode::VanillaTaskSwap &&
        scheduler_->waiting_count() > 0) {
      swap_to(*host_);
    }
    release();
  }

  reply_result(sched::OpKind::Forward, std::move(result), msg.iteration,
               wait_s, compute_s);
}

void ServingSession::start_backward(const net::Message& msg) {
  // At-least-once redelivery: if this Backward's optimizer step already
  // landed but the BackwardResult was lost with the link, resend the cached
  // reply. Re-applying would double-step the adapter and fork the loss
  // curve from the fault-free run.
  if (lease_enabled() && msg.iteration + 1 == backwards_applied_.load() &&
      last_backward_reply_.type == net::MessageType::BackwardResult) {
    send_reply(last_backward_reply_);
    return;
  }
  // Modes that hold the graph across the iteration are still pinned from
  // their Forward; the re-forward modes pin afresh here.
  if (!holds_across_iteration(config_.mode)) offload_begin_use();
  await_grant(sched::OpKind::Backward, msg);
}

void ServingSession::finish_backward(const net::Message& msg, double wait_s,
                                     const util::Stopwatch& compute_sw) {
  using tensor::Tensor;

  Tensor x_in;
  Tensor x_out;
  if (held_output_.defined()) {
    x_in = held_input_;
    x_out = held_output_;
  } else {
    if (cached_activation_.data.empty()) {
      throw ProtocolError("Backward with no preceding Forward");
    }
    // The on-demand re-forward (Algorithm 1 line 10).
    x_in = from_wire(cached_activation_, *gpu_, /*requires_grad=*/!frozen_);
    x_out = section_->forward(x_in);
    util::MutexLock lock(stats_mutex_);
    ++stats_.reforwards;
  }

  Tensor g_c = from_wire(msg.tensor, *gpu_);
  MENOS_CHECK_MSG(g_c.numel() == x_out.numel(),
                  "gradient size does not match server activations");
  tensor::backward(x_out, g_c);
  // Algorithm 1 line 12: optimize the server adapter. Under gradient
  // accumulation the client defers the step: gradients keep accumulating
  // in the adapter's .grad buffers (A-sized, negligible) until a
  // non-deferred Backward applies them. A client-evaluated LR schedule
  // rides along in the message so both halves of the adapter step at the
  // same rate.
  if (msg.lr_override > 0.0f) optimizer_->set_lr(msg.lr_override);
  if (!msg.defer_update) optimizer_->step();

  net::WireTensor result;
  if (frozen_) {
    // SplitFrozen: the backward stops at the server's first layer — the
    // cut input tracked no gradient, and the client has nothing upstream
    // to apply one to. The reply carries an explicitly empty tensor
    // (shape {0}) so the client can assert the server honored the mode.
    result.shape = {0};
  } else {
    Tensor g_s = x_in.grad();
    MENOS_CHECK_MSG(g_s.defined(), "no gradient reached the cut point");
    result = to_wire(g_s);
  }

  // Release GPU memory (Algorithm 1 line 13): dropping every tensor and
  // graph reference frees the intermediate results I. PreserveAll is the
  // exception (Fig 3(a)): it keeps the graph allocated through the waiting
  // phases and only replaces it at the next forward.
  if (!msg.defer_update) optimizer_->zero_grad();
  if (!frozen_) x_in.zero_grad();
  if (config_.mode != ServingMode::MenosPreserveAll) {
    held_input_ = Tensor();
    held_output_ = Tensor();
  }
  x_in = Tensor();
  x_out = Tensor();
  g_c = Tensor();
  const double compute_s = compute_sw.elapsed_seconds();

  if (config_.mode != ServingMode::MenosPreserveAll) {
    // Unpin before release() — see finish_forward. PreserveAll keeps the
    // pin: its graph stays live, so its adapter must stay on device.
    offload_end_use();
    if (config_.mode == ServingMode::VanillaTaskSwap &&
        scheduler_->waiting_count() > 0) {
      swap_to(*host_);
    }
    release();
  }

  reply_result(sched::OpKind::Backward, std::move(result), msg.iteration,
               wait_s, compute_s);
}

// ----- live migration (fleet) -------------------------------------------

std::optional<MigrationTicket> ServingSession::export_for_migration() {
  // Raw strand post, not post_event: the export must answer even when it
  // loses a race with Finished, and its failure mode is "return nullopt",
  // never "error-reply and tear down".
  auto result = std::make_shared<
      util::BlockingQueue<std::optional<MigrationTicket>>>();
  strand_.post([self = shared_from_this(), result] {
    std::optional<MigrationTicket> ticket;
    try {
      ticket = self->export_event();
    } catch (const Error& e) {
      MENOS_LOG(Warn) << "session " << self->id_
                      << " export failed: " << e.what();
    }
    result->push(std::move(ticket));
  });
  auto out = result->pop();
  return out.has_value() ? std::move(*out) : std::nullopt;
}

std::optional<MigrationTicket> ServingSession::export_event() {
  // Only an idle, fully handshaken session in a shared mode migrates: no
  // live allocation, no held graph (PreserveAll's pinned tape and the
  // holds-across-iteration window both decline), not already finishing.
  if (state_ != State::AwaitRequest && state_ != State::Parked) {
    return std::nullopt;
  }
  if (finished_.load() || stop_requested_.load()) return std::nullopt;
  if (holding_allocation_ || held_output_.defined() || held_input_.defined()) {
    return std::nullopt;
  }
  if (section_ == nullptr || !shares_base_model(config_.mode)) {
    return std::nullopt;
  }
  // The client can only follow the move through ResumeSession, so a
  // leaseless session has nowhere to go.
  if (!lease_enabled()) return std::nullopt;
  {
    util::MutexLock lock(conn_mutex_);
    if (expired_) return std::nullopt;
  }

  MigrationTicket ticket;
  ticket.token = token_;
  ticket.client_config = client_config_;
  ticket.demands = demands_;
  ticket.adapter_blob = serialize_adapter(*section_);
  for (const tensor::Tensor& t : optimizer_->state_tensors()) {
    ticket.optimizer_state.push_back(t.to_vector());
  }
  ticket.optimizer_steps = optimizer_->step_count();
  ticket.backwards_applied = backwards_applied_.load();
  ticket.last_backward_reply = last_backward_reply_;
  ticket.cached_activation = cached_activation_;
  ticket.resumes = resumes_.load();
  ticket.persistent_bytes = persistent_bytes_.load();

  // Hand this shard's claims back. The engine path swaps the unit out
  // through the source's OffloadEngine (the satellite API this PR adds),
  // so the move is metered like any other eviction; a unit already evicted
  // had its charge credited back by the reclaim pass, so only a resident
  // one releases the scheduler reservation here.
  if (unit_registered_.load()) {
    ticket.unit = offload_->release_unit(id_);
    ticket.had_unit = true;
    unit_registered_.store(false);
    if (ticket.unit.was_resident) {
      scheduler_->release_persistent(0, ticket.persistent_bytes);
    }
  } else if (ticket.persistent_bytes != 0) {
    ticket.unit.bytes = ticket.persistent_bytes;
    ticket.unit.was_resident = true;
    scheduler_->release_persistent(0, ticket.persistent_bytes);
  }
  persistent_bytes_.store(0);
  scheduler_->unregister_client(id_);
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "session.exported",
                          id_, ticket.persistent_bytes);
  }
  finish_migrated();
  return ticket;
}

void ServingSession::finish_migrated() {
  // Terminal path for a session whose state now lives in a ticket: drop
  // everything WITHOUT the releases cleanup() performs — the scheduler and
  // engine claims were already transferred by export_event.
  state_ = State::Finished;
  unwatch_conn();
  drop_state();
  finished_.store(true);
  if (on_finished_) on_finished_();
}

void ServingSession::import_migrated(const MigrationTicket& ticket) {
  MENOS_CHECK_MSG(shares_base_model(config_.mode) && store_ != nullptr,
                  "session migration requires a shared serving mode");
  MENOS_CHECK_MSG(lease_enabled(),
                  "session migration requires session leases");
  client_config_ = ticket.client_config;
  frozen_ = client_config_.profile.frozen_client_half;
  codec_ = client_config_.profile.codec;
  demands_ = ticket.demands;
  batch_key_ = frozen_ ? 0 : compute_batch_key(config_, client_config_);
  // Cheapest-to-roll-back first: validate demands against this shard's
  // partitions before building anything on the GPU.
  scheduler_->register_client(id_, demands_, batch_key_);
  try {
    // Same builder as handshake(): the fresh adapters are overwritten by
    // the blob below, but building them identically keeps the section
    // layout (and RNG stream consumption) in lockstep with the source.
    build_section();
    deserialize_adapter(ticket.adapter_blob.data(),
                        ticket.adapter_blob.size(), *section_);
    std::vector<tensor::Tensor> state = optimizer_->state_tensors();
    MENOS_CHECK_MSG(state.size() == ticket.optimizer_state.size(),
                    "migrated optimizer state layout mismatch");
    for (std::size_t i = 0; i < state.size(); ++i) {
      const std::vector<float>& src = ticket.optimizer_state[i];
      MENOS_CHECK_MSG(
          static_cast<std::size_t>(state[i].numel()) == src.size(),
          "migrated optimizer state size mismatch at buffer " << i);
      std::copy(src.begin(), src.end(), state[i].data());
    }
    optimizer_->set_step_count(ticket.optimizer_steps);

    persistent_bytes_.store(ticket.persistent_bytes);
    if (offload_ != nullptr) {
      // Land as an adopted unit: OnHost and uncharged, exactly like a
      // post-eviction unit — the charge is paid on first use through the
      // charge callback, which may in turn evict idler units here.
      mem::UnitCallbacks callbacks = make_unit_callbacks();  // homes = GPU
      for (nn::Parameter& p : section_->trainable_parameters()) {
        p.value.migrate(*host_);
      }
      for (tensor::Tensor t : optimizer_->state_tensors()) {
        t.migrate(*host_);
      }
      mem::ExportedUnit unit;
      unit.bytes = ticket.persistent_bytes;
      unit.was_resident = false;
      offload_->adopt_unit(id_, unit, std::move(callbacks));
      unit_registered_.store(true);
    } else if (ticket.persistent_bytes != 0) {
      // No engine: the A + O lands resident, charged up front. This is the
      // one call that can refuse (OutOfMemory) — last, so rollback is easy.
      scheduler_->reserve_persistent(0, ticket.persistent_bytes);
    }
  } catch (...) {
    try {
      scheduler_->unregister_client(id_);
    } catch (const Error&) {
      // Rollback is best-effort; the registration may not have happened.
    }
    section_.reset();
    optimizer_.reset();
    persistent_bytes_.store(0);
    unit_registered_.store(false);
    throw;
  }
  backwards_applied_.store(ticket.backwards_applied);
  last_backward_reply_ = ticket.last_backward_reply;
  cached_activation_ = ticket.cached_activation;
  resumes_.store(ticket.resumes);
  // Park until the client's ResumeSession attaches a connection; the lease
  // armed in the constructor reaps the session if it never does.
  state_ = State::Parked;
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "session.imported",
                          id_, ticket.persistent_bytes);
  }
}

// ----- teardown ---------------------------------------------------------

void ServingSession::cleanup() {
  // Drop any still-queued request FIRST: with the waiting entry gone no
  // fresh grant can land between the release below and the unregister.
  // (Previously a grant landing in that window made unregister_client
  // throw StateError — swallowed below — and the allocation leaked for
  // the server's lifetime.)
  scheduler_->cancel_pending(id_);
  // A grant may have raced the stop notification; reclaim it either way.
  if (!holding_allocation_ && scheduler_->allocated_to(id_) > 0) {
    holding_allocation_ = true;
  }
  release();
  if (section_ != nullptr) {
    // Only registered sessions appear in the scheduler; a failed handshake
    // may not have gotten that far.
    try {
      scheduler_->unregister_client(id_);
    } catch (const Error&) {
      // Never registered — nothing to undo.
    }
  }
  if (unit_registered_.load()) {
    // unregister_unit waits out any in-flight swap and reports whether the
    // scheduler charge is still held; an evicted unit's bytes were already
    // credited back to the pool by the reclaim path.
    const bool was_resident = offload_->unregister_unit(id_);
    unit_registered_.store(false);
    if (!was_resident) persistent_bytes_.store(0);
  }
  if (persistent_bytes_.load() != 0) {
    scheduler_->release_persistent(0, persistent_bytes_.load());
    persistent_bytes_.store(0);
  }
  drop_state();
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "disconnect", id_);
  }
  finished_.store(true);
}

void ServingSession::drop_state() {
  // Free the client's GPU state promptly, then let go of the link.
  held_input_ = tensor::Tensor();
  held_output_ = tensor::Tensor();
  cached_activation_ = net::WireTensor();
  pending_msg_ = net::Message();
  last_backward_reply_ = net::Message();
  section_.reset();
  optimizer_.reset();
  {
    util::MutexLock lock(conn_mutex_);
    if (connection_ != nullptr) connection_->close();
    connection_ = nullptr;
  }
  serving_conn_.reset();
}

}  // namespace menos::core
