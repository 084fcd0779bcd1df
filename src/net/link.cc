#include "net/link.h"

#include <chrono>
#include <thread>
#include <utility>

namespace menos::net {
namespace {

/// Pays the per-frame link delay in the sender's thread, then forwards to
/// the inner transport. A decorator, so any transport (inproc, TCP) can be
/// shaped per connection.
class ConditionedConnection final : public Connection {
 public:
  ConditionedConnection(std::unique_ptr<Connection> inner,
                        std::shared_ptr<LinkConditioner> conditioner,
                        LinkDir send_dir)
      : inner_(std::move(inner)),
        conditioner_(std::move(conditioner)),
        send_dir_(send_dir) {}

  bool send(const Message& message) override {
    // The delay model sees the exact frame size TCP would carry, added up
    // from the message's fields without encoding it.
    const std::size_t frame_bytes = framed_size(message);
    const double delay = conditioner_->next_delay(send_dir_, frame_bytes);
    const NetworkConditioner& shape = send_dir_ == LinkDir::Up
                                          ? conditioner_->profile().up
                                          : conditioner_->profile().down;
    const double scaled = delay * shape.time_scale;
    if (scaled > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(scaled));
    }
    return inner_->send(message);
  }

  std::optional<Message> receive() override { return inner_->receive(); }

  RecvStatus try_receive(Message* out) override {
    return inner_->try_receive(out);
  }

  void set_ready_hook(std::function<void()> hook) override {
    inner_->set_ready_hook(std::move(hook));
  }

  int poll_fd() const override { return inner_->poll_fd(); }

  void set_receive_timeout(double seconds) override {
    inner_->set_receive_timeout(seconds);
  }

  void close() override { inner_->close(); }

  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }

 private:
  std::unique_ptr<Connection> inner_;
  std::shared_ptr<LinkConditioner> conditioner_;
  LinkDir send_dir_;
};

}  // namespace

LinkConditioner::LinkConditioner(const LinkProfile& profile)
    : profile_(profile) {
  // Fork the per-direction jitter streams from one root so the Up sequence
  // is independent of how much the Down side draws (and vice versa), then
  // give loss its own derived seed so enabling loss never shifts jitter.
  util::Rng root(profile.seed);
  {
    util::MutexLock lock(mutex_);
    up_.rng = root.fork();
    down_.rng = root.fork();
  }
  if (profile.loss_prob > 0.0) {
    FaultPlan plan;
    plan.seed = root.fork().next_u64();
    plan.drop_send_prob = profile.loss_prob;
    plan.skip_frames = profile.skip_frames;
    injector_ = std::make_shared<FaultInjector>(plan);
  }
}

double LinkConditioner::next_delay(LinkDir dir, std::size_t bytes) {
  const NetworkConditioner& shape =
      dir == LinkDir::Up ? profile_.up : profile_.down;
  util::MutexLock lock(mutex_);
  DirState& state = dir_state(dir);
  double delay = shape.transfer_seconds(bytes);
  if (profile_.jitter_s > 0.0) {
    delay += state.rng.next_double() * profile_.jitter_s;
  }
  if (state.log.size() < kDelayLogCap) {
    state.log.push_back(delay);
  } else {
    state.log[state.drawn % kDelayLogCap] = delay;
  }
  ++state.drawn;
  return delay;
}

std::vector<double> LinkConditioner::delays(LinkDir dir) const {
  util::MutexLock lock(mutex_);
  const DirState& state = dir_state(dir);
  // Once the ring has wrapped, the oldest retained draw sits where the
  // next one will go.
  const auto oldest = static_cast<std::ptrdiff_t>(
      state.log.size() < kDelayLogCap ? 0 : state.drawn % kDelayLogCap);
  std::vector<double> out(state.log.begin() + oldest, state.log.end());
  out.insert(out.end(), state.log.begin(), state.log.begin() + oldest);
  return out;
}

std::uint64_t LinkConditioner::drawn(LinkDir dir) const {
  util::MutexLock lock(mutex_);
  return dir_state(dir).drawn;
}

std::unique_ptr<Connection> condition_connection(
    std::unique_ptr<Connection> inner,
    std::shared_ptr<LinkConditioner> conditioner, LinkDir send_dir) {
  if (inner == nullptr) return nullptr;
  std::shared_ptr<FaultInjector> injector = conditioner->injector();
  auto conditioned = std::make_unique<ConditionedConnection>(
      std::move(inner), std::move(conditioner), send_dir);
  if (injector == nullptr) return conditioned;
  return decorate_with_faults(std::move(conditioned), std::move(injector));
}

}  // namespace menos::net
