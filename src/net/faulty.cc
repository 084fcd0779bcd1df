#include "net/faulty.h"

#include <utility>

namespace menos::net {
namespace {

class FaultyConnection final : public Connection {
 public:
  FaultyConnection(std::unique_ptr<Connection> inner,
                   std::shared_ptr<FaultInjector> injector)
      : inner_(std::move(inner)), injector_(std::move(injector)) {}

  bool send(const Message& message) override {
    if (injector_->next_send_action() == FaultInjector::Action::Kill) {
      // The frame is lost in flight and the link is gone: the peer's
      // receive() drains and returns nullopt, our own next call fails.
      inner_->close();
      return false;
    }
    return inner_->send(message);
  }

  std::optional<Message> receive() override {
    switch (injector_->next_receive_action()) {
      case FaultInjector::Action::Kill:
        inner_->close();
        return std::nullopt;  // mid-frame disconnect
      case FaultInjector::Action::Corrupt:
        // Real corruption is caught by the frame CRC and surfaces as
        // ProtocolError; the payload is never delivered altered. Kill the
        // link too — a stream that lost framing cannot be resynchronized.
        inner_->close();
        throw ProtocolError("injected frame corruption");
      default:
        break;
    }
    return inner_->receive();
  }

  RecvStatus try_receive(Message* out) override {
    // Probe the inner link first and only consume a fault draw when a real
    // frame crossed the boundary — Empty polls must not advance the
    // deterministic fault stream, or the schedule would depend on poll
    // timing instead of on frame count.
    const RecvStatus status = inner_->try_receive(out);
    if (status != RecvStatus::Frame) return status;
    switch (injector_->next_receive_action()) {
      case FaultInjector::Action::Kill:
        inner_->close();
        return RecvStatus::Closed;  // mid-frame disconnect
      case FaultInjector::Action::Corrupt:
        inner_->close();
        throw ProtocolError("injected frame corruption");
      default:
        return RecvStatus::Frame;
    }
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
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace

std::unique_ptr<Connection> decorate_with_faults(
    std::unique_ptr<Connection> inner,
    std::shared_ptr<FaultInjector> injector) {
  if (inner == nullptr) return nullptr;
  return std::make_unique<FaultyConnection>(std::move(inner),
                                            std::move(injector));
}

FaultInjector::Action FaultInjector::draw_locked(double kill_prob,
                                                 double corrupt_prob) {
  ++stats_.frames_seen;
  if (stats_.frames_seen <= static_cast<std::uint64_t>(
                                plan_.skip_frames > 0 ? plan_.skip_frames : 0)) {
    return Action::None;
  }
  // One draw per frame regardless of configuration, so enabling a fault
  // class never shifts the schedule of another.
  const double u = rng_.next_double();
  const bool capped =
      plan_.max_faults >= 0 &&
      stats_.faults() >= static_cast<std::uint64_t>(plan_.max_faults);
  if (capped) return Action::None;
  if (u < kill_prob) return Action::Kill;
  if (u < kill_prob + corrupt_prob) return Action::Corrupt;
  return Action::None;
}

FaultInjector::Action FaultInjector::next_send_action() {
  util::MutexLock lock(mutex_);
  const Action a = draw_locked(plan_.drop_send_prob, 0.0);
  if (a == Action::Kill) ++stats_.sends_dropped;
  return a;
}

FaultInjector::Action FaultInjector::next_receive_action() {
  util::MutexLock lock(mutex_);
  const Action a =
      draw_locked(plan_.drop_receive_prob, plan_.corrupt_receive_prob);
  if (a == Action::Kill) ++stats_.receives_dropped;
  if (a == Action::Corrupt) ++stats_.receives_corrupted;
  return a;
}

FaultStats FaultInjector::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

Dialer faulty_dialer(Dialer inner, std::shared_ptr<FaultInjector> injector) {
  return [inner = std::move(inner), injector = std::move(injector)]() {
    return decorate_with_faults(inner(), injector);
  };
}

}  // namespace menos::net
