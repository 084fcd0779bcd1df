// Transport abstraction between clients and the Menos server.
//
// Two implementations share the Connection interface:
//  * In-process channels — used by tests, benches and the multi-client
//    examples.
//  * Real TCP over POSIX sockets with length-prefixed CRC-checked frames —
//    used by the tcp_demo example and the transport integration tests.
//
// Neither delays a frame. Latency, bandwidth, jitter and loss are one
// per-connection decorator over either transport: condition_connection
// with a LinkConditioner (net/link.h).
//
// Per the codebase error-handling policy, connection teardown is part of
// normal operation and is reported via return values (send -> bool,
// receive -> nullopt), while data corruption is exceptional and throws
// ProtocolError.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "net/message.h"
#include "util/check.h"

namespace menos::net {

/// Result of a non-blocking try_receive() probe.
enum class RecvStatus : std::uint8_t {
  Frame,   ///< a complete message was produced
  Empty,   ///< no complete frame buffered right now; link still up
  Closed,  ///< peer closed (or link error); no more frames will arrive
};

class Connection {
 public:
  virtual ~Connection() = default;

  /// Deliver a message to the peer. Returns false if the connection is
  /// closed (message dropped).
  virtual bool send(const Message& message) = 0;

  /// Block until a message arrives; nullopt once the peer closed and the
  /// inbound queue drained — or, when a receive timeout is set, once that
  /// much time passes without a frame. Throws ProtocolError on corrupted
  /// input.
  virtual std::optional<Message> receive() = 0;

  /// Bound future receive() calls to `seconds` (<= 0 restores blocking
  /// forever). A timed-out receive returns nullopt, which callers treat as
  /// a lost link; transports without timeout support ignore this.
  virtual void set_receive_timeout(double seconds) { (void)seconds; }

  virtual void close() = 0;

  /// Bytes sent so far on this endpoint (wire-level, for comm accounting).
  virtual std::uint64_t bytes_sent() const = 0;

  // ---- Non-blocking event-driven interface (net::Poller) -----------------
  //
  // The event-driven serving core never blocks in receive(); it waits for
  // readiness (set_ready_hook / poll_fd) and then drains frames with
  // try_receive. Transports that predate the refactor may not support it —
  // the default throws so a misuse is loud, not a silent hang.

  /// Non-blocking receive: *out is filled only when RecvStatus::Frame is
  /// returned. Throws ProtocolError on corrupted input (same contract as
  /// receive()). Never blocks and never honours the receive timeout —
  /// timeouts are the Poller's job in event-driven mode.
  virtual RecvStatus try_receive(Message* out) {
    (void)out;
    throw StateError("this Connection does not support try_receive()");
  }

  /// Install a hook invoked whenever the connection *may* have become
  /// readable (frame arrival or close). Edge-style and allowed to fire
  /// spuriously; the consumer must drain with try_receive until Empty.
  /// Pass nullptr to clear; clearing synchronizes with in-flight hook
  /// invocations (after it returns, the old hook will not be entered).
  /// The default is a no-op for transports polled by fd instead.
  virtual void set_ready_hook(std::function<void()> hook) { (void)hook; }

  /// File descriptor to poll(2) for readability, or -1 when the transport
  /// signals readiness through set_ready_hook instead. At most one reader
  /// may consume readiness from the fd at a time.
  virtual int poll_fd() const { return -1; }
};

/// Factory for (re)establishing a client's transport — the reconnect hook
/// used by core::Client's retry loop. Returns nullptr on failure.
using Dialer = std::function<std::unique_ptr<Connection>()>;

/// Create a connected pair of in-process endpoints.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_inproc_pair();

/// Source of inbound connections for a server. accept() blocks; returns
/// nullptr once closed.
class Acceptor {
 public:
  virtual ~Acceptor() = default;
  virtual std::unique_ptr<Connection> accept() = 0;
  virtual void close() = 0;
};

// Per-connection link conditioning (net/link.h). Declared here so the
// acceptor can mint conditioned links without transport.h depending on the
// full link machinery.
struct LinkProfile;
class LinkConditioner;

/// In-process acceptor: connect() mints a connected pair, hands the server
/// end to the accept loop and returns the client end.
class InprocAcceptor final : public Acceptor {
 public:
  InprocAcceptor();
  ~InprocAcceptor() override;

  std::unique_ptr<Connection> connect();
  /// Conditioned variant: shape both ends with a fresh LinkConditioner for
  /// `profile` — each connection gets its own link. `conditioner_out`,
  /// when non-null, receives the shared conditioner so callers can read
  /// delay logs / loss stats.
  std::unique_ptr<Connection> connect(
      const LinkProfile& profile,
      std::shared_ptr<LinkConditioner>* conditioner_out = nullptr);
  std::unique_ptr<Connection> accept() override;
  void close() override;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// TCP listener. accept() blocks; returns nullptr after close().
class TcpListener : public Acceptor {
 public:
  virtual int port() const = 0;
};

/// Bind on 127.0.0.1. Port 0 picks a free port (read it back via port()).
std::unique_ptr<TcpListener> tcp_listen(int port);

/// Connect to a listener. Returns nullptr on refusal.
std::unique_ptr<Connection> tcp_connect(const std::string& host, int port);

}  // namespace menos::net
