#include <atomic>

#include "net/link.h"
#include "net/transport.h"
#include "util/mutex.h"
#include "util/queue.h"
#include "util/thread_annotations.h"

namespace menos::net {
namespace {

/// One direction of the duplex channel.
struct Pipe {
  util::BlockingQueue<Message> queue;

  // Readiness hook for the event-driven core (Connection::set_ready_hook):
  // fired after every push and on close. Invoked *under* hook_mutex so that
  // set_hook(nullptr) synchronizes with in-flight invocations — once it
  // returns, the old hook cannot be entered again (the Poller relies on
  // this to unwatch safely). Hook bodies must therefore not call back into
  // this pipe.
  util::Mutex hook_mutex{"net.inproc.hook", 58};
  std::function<void()> hook MENOS_GUARDED_BY(hook_mutex);

  void set_hook(std::function<void()> h) {
    util::MutexLock lock(hook_mutex);
    hook = std::move(h);
  }

  void fire_hook() {
    util::MutexLock lock(hook_mutex);
    if (hook) hook();
  }
};

class InprocConnection final : public Connection {
 public:
  InprocConnection(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~InprocConnection() override { close(); }

  bool send(const Message& message) override {
    if (out_->queue.closed()) return false;
    // Wire-size accounting uses the exact frame size, added up from the
    // message's fields without encoding it, so the comm-time model sees
    // what TCP would carry.
    const std::size_t frame_bytes = framed_size(message);
    // The peer may have closed since the check above: a push onto a closed
    // queue is dropped, and a dropped frame must not count as sent or the
    // comm accounting reports bytes nobody received.
    if (!out_->queue.push(message)) return false;
    bytes_sent_ += frame_bytes;
    out_->fire_hook();
    return true;
  }

  std::optional<Message> receive() override {
    const double timeout_s = receive_timeout_.load();
    return timeout_s > 0.0 ? in_->queue.pop_for(timeout_s) : in_->queue.pop();
  }

  void set_receive_timeout(double seconds) override {
    receive_timeout_.store(seconds);
  }

  RecvStatus try_receive(Message* out) override {
    if (auto msg = in_->queue.try_pop()) {
      *out = std::move(*msg);
      return RecvStatus::Frame;
    }
    return in_->queue.closed() ? RecvStatus::Closed : RecvStatus::Empty;
  }

  void set_ready_hook(std::function<void()> hook) override {
    in_->set_hook(std::move(hook));
  }

  void close() override {
    out_->queue.close();
    in_->queue.close();
    // Wake both poll loops: each peer's readiness hook hangs off its own
    // inbound pipe, and close makes both directions "readable" (Closed).
    out_->fire_hook();
    in_->fire_hook();
  }

  std::uint64_t bytes_sent() const override { return bytes_sent_; }

 private:
  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<double> receive_timeout_{0.0};
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_inproc_pair() {
  auto ab = std::make_shared<Pipe>();
  auto ba = std::make_shared<Pipe>();
  return {std::make_unique<InprocConnection>(ab, ba),
          std::make_unique<InprocConnection>(ba, ab)};
}

struct InprocAcceptor::State {
  util::BlockingQueue<std::unique_ptr<Connection>> pending;
};

InprocAcceptor::InprocAcceptor() : state_(std::make_shared<State>()) {}

InprocAcceptor::~InprocAcceptor() { close(); }

std::unique_ptr<Connection> InprocAcceptor::connect() {
  auto [client_end, server_end] = make_inproc_pair();
  state_->pending.push(std::move(server_end));
  return std::move(client_end);
}

std::unique_ptr<Connection> InprocAcceptor::connect(
    const LinkProfile& profile,
    std::shared_ptr<LinkConditioner>* conditioner_out) {
  // The delay is paid in the decorator, so the same LinkConditioner shapes
  // a TCP connection too.
  auto [client_end, server_end] = make_inproc_pair();
  auto conditioner = std::make_shared<LinkConditioner>(profile);
  if (conditioner_out != nullptr) *conditioner_out = conditioner;
  state_->pending.push(
      condition_connection(std::move(server_end), conditioner, LinkDir::Down));
  return condition_connection(std::move(client_end), std::move(conditioner),
                              LinkDir::Up);
}

std::unique_ptr<Connection> InprocAcceptor::accept() {
  auto conn = state_->pending.pop();
  return conn.has_value() ? std::move(*conn) : nullptr;
}

void InprocAcceptor::close() { state_->pending.close(); }

}  // namespace menos::net
