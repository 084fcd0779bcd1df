// Failure injection against the full stack: abrupt socket death, garbage
// bytes on the wire, half-open protocol states, server resilience across
// repeated client failures — and the fault-tolerance layer: session
// leases, reconnect/resume with backoff, and deterministic fault plans.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/client.h"
#include "core/server.h"
#include "net/faulty.h"
#include "net/link.h"
#include "net/transport.h"
#include "util/trace.h"

namespace menos {
namespace {

nn::TransformerConfig fail_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  return c;
}

struct TcpRig {
  TcpRig() : devices(1, 256u << 20) {
    config.base_seed = 42;
    server = std::make_unique<core::Server>(config, devices, fail_model());
    listener = net::tcp_listen(0);
    server->start(*listener);
  }
  ~TcpRig() { server->stop(); }

  int port() const { return listener->port(); }

  gpusim::DeviceManager devices;
  core::ServerConfig config;
  std::unique_ptr<core::Server> server;
  std::unique_ptr<net::TcpListener> listener;
};

core::ClientOptions fail_options(std::uint64_t adapter_seed) {
  core::ClientOptions options;
  options.finetune.model = fail_model();
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.adapter_seed = adapter_seed;
  options.base_seed = 42;
  return options;
}

data::DataLoader fail_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 5).text), 2, 8, seed);
}

/// Write raw bytes to the server's port and close.
void blast_bytes(int port, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::close(fd);
}

TEST(TcpFailure, GarbageBytesDoNotKillTheServer) {
  TcpRig rig;
  // A storm of malformed connections: random junk, valid magic with a huge
  // length, an empty connection.
  util::Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> junk(64 + rng.next_below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    blast_bytes(rig.port(), junk);
  }
  {
    // Correct magic, absurd payload length.
    std::vector<std::uint8_t> frame(12, 0);
    const std::uint32_t magic = net::kFrameMagic;
    std::memcpy(frame.data(), &magic, 4);
    const std::uint64_t huge = 1ull << 40;
    std::memcpy(frame.data() + 4, &huge, 8);
    blast_bytes(rig.port(), frame);
  }
  blast_bytes(rig.port(), {});

  // A legitimate client still gets served.
  auto conn = net::tcp_connect("127.0.0.1", rig.port());
  ASSERT_NE(conn, nullptr);
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fail_options(3), std::move(conn), cd.gpu(0));
  client.connect();
  auto loader = fail_loader(4);
  EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  client.disconnect();
}

TEST(TcpFailure, ClientVanishingMidHandshakeIsCleanedUp) {
  TcpRig rig;
  for (int i = 0; i < 3; ++i) {
    // Open, send half a Hello frame, slam the socket.
    const auto frame =
        net::frame_message(net::Message::hello(fail_options(5).finetune));
    std::vector<std::uint8_t> half(frame.begin(),
                                   frame.begin() + frame.size() / 2);
    blast_bytes(rig.port(), half);
  }
  // Server keeps serving.
  auto conn = net::tcp_connect("127.0.0.1", rig.port());
  ASSERT_NE(conn, nullptr);
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fail_options(6), std::move(conn), cd.gpu(0));
  client.connect();
  auto loader = fail_loader(7);
  EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  client.disconnect();
}

TEST(TcpFailure, ClientVanishingBetweenForwardAndBackward) {
  TcpRig rig;
  const std::size_t baseline = rig.devices.gpu(0).allocated();
  {
    // Handshake + forward by hand, then disappear without the backward.
    auto conn = net::tcp_connect("127.0.0.1", rig.port());
    ASSERT_NE(conn, nullptr);
    conn->send(net::Message::hello(fail_options(8).finetune));
    auto ack = conn->receive();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, net::MessageType::HelloAck);
    net::WireTensor x;
    x.shape = {2, 8, 32};
    x.data.assign(2 * 8 * 32, 0.1f);
    conn->send(net::Message::forward(x, 0));
    auto reply = conn->receive();
    ASSERT_TRUE(reply.has_value());
    conn->close();  // vanish with the iteration half done
  }
  // The session must unwind: memory back to the post-store baseline.
  for (int i = 0; i < 400 && rig.devices.gpu(0).allocated() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(rig.devices.gpu(0).allocated(), baseline);

  // And a fresh client trains normally afterwards.
  auto conn = net::tcp_connect("127.0.0.1", rig.port());
  ASSERT_NE(conn, nullptr);
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fail_options(9), std::move(conn), cd.gpu(0));
  client.connect();
  auto loader = fail_loader(10);
  EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  client.disconnect();
}

TEST(TcpFailure, RepeatedCrashWavesDoNotLeak) {
  TcpRig rig;
  const std::size_t baseline = rig.devices.gpu(0).allocated();
  for (int wave = 0; wave < 5; ++wave) {
    auto conn = net::tcp_connect("127.0.0.1", rig.port());
    ASSERT_NE(conn, nullptr);
    conn->send(net::Message::hello(
        fail_options(20 + static_cast<std::uint64_t>(wave)).finetune));
    auto ack = conn->receive();
    ASSERT_TRUE(ack.has_value());
    conn->close();  // crash immediately after profiling
  }
  for (int i = 0; i < 400 && rig.devices.gpu(0).allocated() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(rig.devices.gpu(0).allocated(), baseline);
}

TEST(TcpFailure, UnexpectedMessageOrderGetsErrorNotCrash) {
  TcpRig rig;
  auto conn = net::tcp_connect("127.0.0.1", rig.port());
  ASSERT_NE(conn, nullptr);
  // Forward before Hello.
  net::WireTensor x;
  x.shape = {1, 1, 32};
  x.data.assign(32, 0.0f);
  conn->send(net::Message::forward(x, 0));
  auto reply = conn->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::Error);
  conn->close();
}

// ---------------------------------------------------------------------------
// Transport-layer regressions.
// ---------------------------------------------------------------------------

// Regression: a signal delivered to a thread blocked in ::accept() makes
// accept() fail with EINTR. The listener used to surface that as nullptr,
// which the Server's accept loop treats as "listener closed" — one stray
// signal killed the server's ability to accept clients forever. accept()
// must retry transient errnos and keep blocking.
TEST(TcpFailure, AcceptRetriesAfterEintr) {
  auto listener = net::tcp_listen(0);
  struct sigaction sa {};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: accept() returns EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> returned{false};
  std::unique_ptr<net::Connection> got;
  std::thread acceptor([&] {
    got = listener->accept();
    returned.store(true);
  });
  // Let the thread block in accept(), then interrupt it repeatedly.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ::pthread_kill(acceptor.native_handle(), SIGUSR1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(returned.load());  // old code: nullptr after the first EINTR

  auto client = net::tcp_connect("127.0.0.1", listener->port());
  ASSERT_NE(client, nullptr);
  acceptor.join();
  EXPECT_NE(got, nullptr);  // the real connection, not a spurious failure
  ::sigaction(SIGUSR1, &old, nullptr);
}

// Regression: TcpConnection::close() used to ::close() the fd while another
// thread was blocked in receive() on it. The kernel recycles fd numbers
// immediately, so the blocked receive could end up reading a *different*
// connection's stream. close() must shutdown() first and defer the real
// close until in-flight operations drain. Run under TSan this also proves
// the handshake is race-free.
TEST(TcpFailure, CloseRaceNeverCrossesConnections) {
  auto listener = net::tcp_listen(0);
  for (int i = 0; i < 40; ++i) {
    auto a = net::tcp_connect("127.0.0.1", listener->port());
    ASSERT_NE(a, nullptr);
    auto server_a = listener->accept();
    ASSERT_NE(server_a, nullptr);

    std::optional<net::Message> got_a;
    std::thread receiver([&] { got_a = a->receive(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    a->close();  // races the blocked receive; may free a's fd number

    // Immediately open a new connection: with an eager close it would
    // likely reuse a's fd while the receiver is still parked on it.
    auto b = net::tcp_connect("127.0.0.1", listener->port());
    ASSERT_NE(b, nullptr);
    auto server_b = listener->accept();
    ASSERT_NE(server_b, nullptr);
    ASSERT_TRUE(server_b->send(net::Message::heartbeat()));
    auto got_b = b->receive();
    receiver.join();

    EXPECT_FALSE(got_a.has_value());  // never another connection's frame
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(got_b->type, net::MessageType::Heartbeat);
    b->close();
    server_a->close();
    server_b->close();
  }
}

// Regression: the inproc transport counted a frame in bytes_sent() even
// when the peer closed while the frame was "on the wire" (inside the link
// delay), so comm accounting reported bytes nobody received.
TEST(InprocFailure, DroppedSendIsNotCountedAsSent) {
  net::LinkProfile profile;
  profile.up.latency_s = 0.2;  // hold the frame in flight for 200ms
  auto [plain, b] = net::make_inproc_pair();
  auto a = net::condition_connection(
      std::move(plain), std::make_shared<net::LinkConditioner>(profile),
      net::LinkDir::Up);
  net::Connection* a_raw = a.get();

  std::atomic<bool> send_ok{true};
  std::thread sender([&] {
    send_ok.store(a_raw->send(net::Message::heartbeat()));
  });
  // Close the peer while the frame is still inside the link delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  b->close();
  sender.join();

  EXPECT_FALSE(send_ok.load());        // the frame was never delivered
  EXPECT_EQ(a->bytes_sent(), 0u);      // ...so it must not be accounted
}

// ---------------------------------------------------------------------------
// Session leases + reconnect/resume (docs/FAULTS.md).
// ---------------------------------------------------------------------------

int count_events(const util::EventTrace& trace, const std::string& name) {
  int n = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.name == name) ++n;
  }
  return n;
}

int fault_rounds(int fallback) {
  const char* env = std::getenv("MENOS_FAULT_ROUNDS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

struct LeaseRig {
  LeaseRig(double lease_s, util::EventTrace* trace)
      : devices(1, 256u << 20) {
    config.base_seed = 42;
    config.lease_seconds = lease_s;
    config.reaper_interval_s = 0.05;
    config.trace = trace;
    server = std::make_unique<core::Server>(config, devices, fail_model());
    server->start(acceptor);
  }
  ~LeaseRig() { server->stop(); }

  gpusim::DeviceManager devices;
  core::ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<core::Server> server;
};

// A client that handshakes (allocating adapter + optimizer state on the
// server GPU) and then dies without Bye must be expired by the reaper: its
// memory returns to the post-store baseline within the lease window.
TEST(SessionLease, ExpiryReclaimsCrashedClientMemory) {
  util::EventTrace trace;
  LeaseRig rig(/*lease_s=*/0.5, &trace);
  const std::size_t baseline = rig.devices.gpu(0).allocated();

  auto conn = rig.acceptor.connect();
  ASSERT_TRUE(conn->send(net::Message::hello(fail_options(8).finetune)));
  auto ack = conn->receive();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, net::MessageType::HelloAck);
  EXPECT_NE(ack->session_token, 0u);
  EXPECT_DOUBLE_EQ(ack->lease_seconds, 0.5);
  EXPECT_GT(rig.devices.gpu(0).allocated(), baseline);  // A + O resident

  conn->close();  // crash: no Bye, no reconnect

  // The reaper must expire the parked session and release every byte. Give
  // sanitizer builds generous slack (poll up to 20x the lease).
  for (int i = 0; i < 2000 && rig.devices.gpu(0).allocated() > baseline;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(rig.devices.gpu(0).allocated(), baseline);
  EXPECT_GE(count_events(trace, "session.lease_expired"), 1);
}

// An idle-but-alive client keeps its session by heartbeating: no expiry,
// and training still works after several lease-lengths of idleness.
TEST(SessionLease, HeartbeatKeepsIdleSessionAlive) {
  util::EventTrace trace;
  LeaseRig rig(/*lease_s=*/1.0, &trace);
  core::ClientOptions options = fail_options(11);
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(options, rig.acceptor.connect(), cd.gpu(0));
  client.connect();
  EXPECT_NE(client.session_token(), 0u);
  EXPECT_DOUBLE_EQ(client.lease_seconds(), 1.0);

  // Idle for 2 lease-lengths, heartbeating well inside the lease.
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    client.heartbeat();
  }
  EXPECT_EQ(count_events(trace, "session.lease_expired"), 0);

  auto loader = fail_loader(12);
  EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  client.disconnect();
}

// The acceptance bar for the whole recovery path: a seeded fault plan that
// repeatedly kills and corrupts the client's link mid-training must yield a
// loss curve bit-identical to the fault-free run — replayed Forwards
// recompute deterministically and replayed Backwards are deduplicated
// server-side (no double optimizer step).
std::vector<double> lossy_run(const net::FaultPlan* plan, int rounds,
                              std::uint64_t* resumes_out,
                              std::uint64_t* retries_out) {
  util::EventTrace trace;
  LeaseRig rig(/*lease_s=*/30.0, &trace);

  net::Dialer dialer = [&rig] { return rig.acceptor.connect(); };
  std::shared_ptr<net::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_shared<net::FaultInjector>(*plan);
    dialer = net::faulty_dialer(std::move(dialer), injector);
  }

  core::ClientOptions options = fail_options(21);
  options.retry.time_scale = 0.0;  // exercise backoff at zero wall-clock
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(options, dialer(), cd.gpu(0), dialer);
  client.connect();

  auto loader = fail_loader(22);
  std::vector<double> losses;
  for (int i = 0; i < rounds; ++i) {
    losses.push_back(client.train_step(loader.next()).loss);
  }
  if (resumes_out != nullptr) *resumes_out = client.resumes();
  if (retries_out != nullptr) *retries_out = client.retries();
  if (injector != nullptr) {
    EXPECT_GT(injector->stats().faults(), 0u) << "fault plan never fired";
  }
  client.disconnect();
  return losses;
}

TEST(Resume, LossCurveBitIdenticalUnderInjectedFaults) {
  const int rounds = fault_rounds(12);

  const std::vector<double> clean =
      lossy_run(nullptr, rounds, nullptr, nullptr);

  net::FaultPlan plan;
  plan.seed = 0xfa017;
  plan.drop_send_prob = 0.05;
  plan.drop_receive_prob = 0.05;
  plan.corrupt_receive_prob = 0.03;
  plan.skip_frames = 4;  // let the Hello/HelloAck handshake through
  std::uint64_t resumes = 0;
  std::uint64_t retries = 0;
  const std::vector<double> lossy =
      lossy_run(&plan, rounds, &resumes, &retries);

  EXPECT_GT(retries, 0u);
  EXPECT_GT(resumes, 0u) << "no fault actually forced a resume";
  ASSERT_EQ(lossy.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(lossy[i], clean[i]) << "loss diverged at round " << i;
  }
}

// Without a dialer the old contract holds: link loss is immediately fatal.
TEST(Resume, NoDialerMeansLinkLossIsFatal) {
  util::EventTrace trace;
  LeaseRig rig(/*lease_s=*/30.0, &trace);
  core::ClientOptions options = fail_options(31);
  gpusim::DeviceManager cd(1, 256u << 20);
  auto conn = rig.acceptor.connect();
  net::Connection* raw = conn.get();
  core::Client client(options, std::move(conn), cd.gpu(0));
  client.connect();
  raw->close();
  auto loader = fail_loader(32);
  EXPECT_THROW(client.train_step(loader.next()), StateError);
}

}  // namespace
}  // namespace menos
