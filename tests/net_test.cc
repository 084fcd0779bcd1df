// Wire format, protocol messages, in-proc and TCP transports, corruption
// handling.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/faulty.h"
#include "net/link.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/rng.h"

namespace menos::net {
namespace {

TEST(Wire, PrimitivesRoundTrip) {
  Writer w;
  w.put_u8(7);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f32(3.25f);
  w.put_f64(-2.5);
  w.put_string("menos");
  const auto bytes = w.bytes();
  Reader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_FLOAT_EQ(r.get_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.5);
  EXPECT_EQ(r.get_string(), "menos");
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, ArraysRoundTrip) {
  Writer w;
  const std::vector<float> f{1.5f, -2.5f, 3.0f};
  const std::vector<std::int32_t> i{-1, 0, 7};
  w.put_f32_array(f.data(), f.size());
  w.put_i32_array(i.data(), i.size());
  const auto bytes = w.bytes();
  Reader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.get_f32_array(), f);
  EXPECT_EQ(r.get_i32_array(), i);
}

TEST(Wire, OverrunThrows) {
  Writer w;
  w.put_u32(1);
  const auto bytes = w.bytes();
  Reader r(bytes.data(), bytes.size());
  r.get_u32();
  EXPECT_THROW(r.get_u8(), ProtocolError);
}

FinetuneConfig sample_config() {
  FinetuneConfig c;
  c.client_name = "alice";
  c.model = nn::TransformerConfig::tiny_llama();
  c.split.front_blocks = 2;
  c.split.back_blocks = 1;
  c.adapter.type = nn::AdapterType::Lora;
  c.adapter.rank = 4;
  c.adapter.alpha = 8.0f;
  c.adapter.target_q = true;
  c.adapter.target_v = false;
  c.optimizer = optim::OptimizerKind::AdamW;
  c.lr = 3e-4f;
  c.batch_size = 8;
  c.seq_len = 64;
  c.adapter_seed = 99;
  return c;
}

TEST(Message, HelloRoundTrip) {
  Message m = Message::hello(sample_config());
  auto payload = encode_message(m);
  Message d = decode_message(payload.data(), payload.size());
  EXPECT_EQ(d.type, MessageType::Hello);
  EXPECT_EQ(d.config.client_name, "alice");
  EXPECT_EQ(d.config.model.family, nn::ModelFamily::Llama);
  EXPECT_EQ(d.config.model.dim, 64);
  EXPECT_EQ(d.config.split.front_blocks, 2);
  EXPECT_EQ(d.config.split.back_blocks, 1);
  EXPECT_EQ(d.config.adapter.rank, 4);
  EXPECT_FALSE(d.config.adapter.target_v);
  EXPECT_EQ(d.config.optimizer, optim::OptimizerKind::AdamW);
  EXPECT_FLOAT_EQ(d.config.lr, 3e-4f);
  EXPECT_EQ(d.config.batch_size, 8);
  EXPECT_EQ(d.config.adapter_seed, 99u);
}

TEST(Message, ClientProfileRidesHello) {
  FinetuneConfig c = sample_config();
  c.profile.compute_scale = 4.0;
  c.profile.cut_depth = 2;  // matches split.front_blocks above
  c.profile.frozen_client_half = true;
  c.profile.codec = ActivationCodec::Int8;
  c.profile.uplink_bytes_per_s = 1.5e6;
  c.profile.downlink_bytes_per_s = 12e6;
  c.profile.link_latency_s = 0.03;
  Message m = Message::hello(c);
  auto payload = encode_message(m);
  Message d = decode_message(payload.data(), payload.size());
  EXPECT_FALSE(d.config.profile.is_default());
  EXPECT_DOUBLE_EQ(d.config.profile.compute_scale, 4.0);
  EXPECT_EQ(d.config.profile.cut_depth, 2);
  EXPECT_TRUE(d.config.profile.frozen_client_half);
  EXPECT_EQ(d.config.profile.codec, ActivationCodec::Int8);
  EXPECT_DOUBLE_EQ(d.config.profile.uplink_bytes_per_s, 1.5e6);
  EXPECT_DOUBLE_EQ(d.config.profile.downlink_bytes_per_s, 12e6);
  EXPECT_DOUBLE_EQ(d.config.profile.link_latency_s, 0.03);

  // A default profile stays default through the wire (the homogeneous
  // protocol is unchanged).
  Message plain = Message::hello(sample_config());
  auto p2 = encode_message(plain);
  EXPECT_TRUE(decode_message(p2.data(), p2.size()).config.profile.is_default());
}

TEST(Message, TensorMessagesRoundTrip) {
  WireTensor t;
  t.shape = {2, 3};
  t.data = {1, 2, 3, 4, 5, 6};
  Message m = Message::forward(t, 17);
  m.compute_seconds = 1.5;
  m.schedule_wait_seconds = 0.25;
  m.eval_only = true;
  auto payload = encode_message(m);
  Message d = decode_message(payload.data(), payload.size());
  EXPECT_EQ(d.type, MessageType::Forward);
  EXPECT_EQ(d.iteration, 17u);
  EXPECT_EQ(d.tensor.shape, t.shape);
  EXPECT_EQ(d.tensor.data, t.data);
  EXPECT_DOUBLE_EQ(d.compute_seconds, 1.5);
  EXPECT_TRUE(d.eval_only);
}

TEST(Message, AllTypesEncodeDecode) {
  WireTensor t;
  t.shape = {2, 3};
  t.data = {1.0f, -2.0f, 0.5f, 3.0f, 0.0f, -0.25f};
  const std::vector<Message> messages = {
      Message::hello(sample_config()), Message::hello_ack(100, 200),
      Message::forward(t, 1),          Message::forward_result(t, 1),
      Message::backward(t, 2),         Message::backward_result(t, 2),
      Message::bye(),                  Message::error("nope"),
      Message::heartbeat(),            Message::heartbeat_ack(),
      Message::resume_session(77),     Message::resume_ack(77, 5)};
  for (const ActivationCodec codec :
       {ActivationCodec::None, ActivationCodec::Int8}) {
    for (Message m : messages) {
      m.tensor_codec = codec;
      auto payload = encode_message(m);
      Message d = decode_message(payload.data(), payload.size());
      EXPECT_EQ(d.type, m.type);
      EXPECT_EQ(framed_size(m), frame_message(m).size())
          << message_type_name(m.type) << " / "
          << activation_codec_name(codec);
    }
  }
}

TEST(Message, FramedSizeMatchesTheFrameForRandomMessages) {
  // framed_size adds the frame up from fields instead of encoding it: over
  // seeded random messages of every type, both codecs, odd tensor shapes
  // (rank 0, zero-sized dims) and varying string/blob lengths, it must
  // equal the built frame's size byte for byte.
  util::Rng rng(20261019);
  const auto random_tensor = [&rng] {
    WireTensor t;
    t.shape.resize(rng.next_below(4));
    std::size_t numel = 1;
    for (auto& d : t.shape) {
      d = static_cast<std::int64_t>(rng.next_below(6));
      numel *= static_cast<std::size_t>(d);
    }
    t.data.resize(numel);
    for (float& x : t.data) x = rng.uniform(-3.0f, 3.0f);
    return t;
  };
  const auto random_bytes = [&rng] {
    std::vector<std::uint8_t> b(rng.next_below(40));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
    return b;
  };
  int checked = 0;
  for (int i = 0; i < 400; ++i) {
    for (int raw = 1; raw <= 16; ++raw) {
      Message m;
      m.type = static_cast<MessageType>(raw);
      m.config = sample_config();
      m.config.client_name = std::string(rng.next_below(30), 'c');
      m.tensor = random_tensor();
      m.tensor_codec = rng.next_below(2) == 0 ? ActivationCodec::None
                                              : ActivationCodec::Int8;
      m.iteration = rng.next_u64();
      m.text = std::string(rng.next_below(50), 't');
      m.blob = random_bytes();
      m.session_token = rng.next_u64();
      ASSERT_EQ(framed_size(m), frame_message(m).size())
          << message_type_name(m.type) << " / "
          << activation_codec_name(m.tensor_codec) << " / rank "
          << m.tensor.shape.size() << " / iteration " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 400 * 16);
}

TEST(Message, FaultToleranceFieldsRoundTrip) {
  {
    // HelloAck now carries the session identity and lease.
    auto payload =
        encode_message(Message::hello_ack(100, 200, 0xdeadbeefULL, 2.5));
    const Message d = decode_message(payload.data(), payload.size());
    EXPECT_EQ(d.forward_bytes, 100u);
    EXPECT_EQ(d.backward_bytes, 200u);
    EXPECT_EQ(d.session_token, 0xdeadbeefULL);
    EXPECT_DOUBLE_EQ(d.lease_seconds, 2.5);
  }
  {
    auto payload = encode_message(Message::resume_session(0x1234ULL));
    const Message d = decode_message(payload.data(), payload.size());
    EXPECT_EQ(d.session_token, 0x1234ULL);
  }
  {
    auto payload = encode_message(Message::resume_ack(0x1234ULL, 9));
    const Message d = decode_message(payload.data(), payload.size());
    EXPECT_EQ(d.session_token, 0x1234ULL);
    EXPECT_EQ(d.iteration, 9u);
  }
}

TEST(Message, MalformedPayloadsThrow) {
  // Unknown type byte.
  std::vector<std::uint8_t> bad{99};
  EXPECT_THROW(decode_message(bad.data(), bad.size()), ProtocolError);
  // Trailing garbage.
  auto payload = encode_message(Message::bye());
  payload.push_back(0);
  EXPECT_THROW(decode_message(payload.data(), payload.size()), ProtocolError);
  // Tensor data/shape mismatch.
  WireTensor t;
  t.shape = {4};
  t.data = {1.0f};  // too short
  auto enc = encode_message(Message::forward(t, 0));
  EXPECT_THROW(decode_message(enc.data(), enc.size()), ProtocolError);
}

TEST(Frame, RoundTripAndCrc) {
  Message m = Message::error("check me");
  auto frame = frame_message(m);
  Message d = parse_frame(frame.data(), frame.size());
  EXPECT_EQ(d.text, "check me");

  // Flip one payload bit: CRC must catch it.
  auto corrupted = frame;
  corrupted[kFrameHeaderBytes + 2] ^= 0x40;
  EXPECT_THROW(parse_frame(corrupted.data(), corrupted.size()), ProtocolError);

  // Bad magic.
  auto badmagic = frame;
  badmagic[0] ^= 0xff;
  EXPECT_THROW(parse_frame(badmagic.data(), badmagic.size()), ProtocolError);

  // Truncation.
  EXPECT_THROW(parse_frame(frame.data(), frame.size() - 1), ProtocolError);
}

std::vector<FaultInjector::Action> drive_injector(const FaultPlan& plan,
                                                  int frames) {
  FaultInjector injector(plan);
  std::vector<FaultInjector::Action> actions;
  for (int i = 0; i < frames; ++i) {
    actions.push_back(injector.next_send_action());
    actions.push_back(injector.next_receive_action());
  }
  return actions;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_send_prob = 0.2;
  plan.drop_receive_prob = 0.2;
  plan.corrupt_receive_prob = 0.1;
  const auto a = drive_injector(plan, 200);
  const auto b = drive_injector(plan, 200);
  EXPECT_EQ(a, b);
  // And the schedule is not degenerate.
  int faults = 0;
  for (auto action : a) {
    if (action != FaultInjector::Action::None) ++faults;
  }
  EXPECT_GT(faults, 0);
}

TEST(FaultInjector, ScheduleIsPinned) {
  // The first 64 actions of a seeded plan, one letter each (None, Kill,
  // Corrupt), alternating send and receive draws. Any change to how a draw
  // maps to a fault class moves a letter here.
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_send_prob = 0.2;
  plan.drop_receive_prob = 0.2;
  plan.corrupt_receive_prob = 0.1;
  std::string schedule;
  for (auto action : drive_injector(plan, 32)) {
    switch (action) {
      case FaultInjector::Action::None: schedule += 'N'; break;
      case FaultInjector::Action::Kill: schedule += 'K'; break;
      case FaultInjector::Action::Corrupt: schedule += 'C'; break;
    }
  }
  EXPECT_EQ(schedule,
            "NNNNNCNKNNNKKKNNKNKNNCNNNKNCNKKKKN"
            "NNNNKNNNNNNNNNNKNCKKNNNNKNNNNN");
}

TEST(FaultInjector, DisablingOneClassDoesNotShiftAnother) {
  // One uniform draw per frame against cumulative thresholds: zeroing the
  // send-drop class must not move *which frames* the corruption class hits
  // (only reclassify the frames that used to be send-drops).
  FaultPlan both;
  both.seed = 7;
  both.drop_send_prob = 0.15;
  both.corrupt_receive_prob = 0.15;
  FaultPlan corrupt_only = both;
  corrupt_only.drop_send_prob = 0.0;

  FaultInjector a(both);
  FaultInjector b(corrupt_only);
  for (int i = 0; i < 300; ++i) {
    a.next_send_action();
    b.next_send_action();
    const auto ra = a.next_receive_action();
    const auto rb = b.next_receive_action();
    EXPECT_EQ(ra, rb) << "receive schedule shifted at frame " << i;
  }
}

TEST(FaultInjector, MaxFaultsCapsInjection) {
  FaultPlan plan;
  plan.seed = 3;
  plan.drop_receive_prob = 0.5;
  plan.max_faults = 2;
  FaultInjector injector(plan);
  for (int i = 0; i < 200; ++i) injector.next_receive_action();
  EXPECT_EQ(injector.stats().faults(), 2u);
}

TEST(FaultyConnection, KilledSendClosesLink) {
  FaultPlan plan;
  plan.seed = 1;
  plan.drop_send_prob = 1.0;  // first frame dies
  auto injector = std::make_shared<FaultInjector>(plan);
  auto [a, b] = make_inproc_pair();
  auto faulty = decorate_with_faults(std::move(a), injector);
  EXPECT_FALSE(faulty->send(Message::heartbeat()));
  EXPECT_FALSE(b->receive().has_value());  // peer sees an orderly close
  EXPECT_EQ(injector->stats().sends_dropped, 1u);
}

TEST(FaultyConnection, CorruptReceiveThrowsProtocolError) {
  FaultPlan plan;
  plan.seed = 1;
  plan.corrupt_receive_prob = 1.0;
  auto injector = std::make_shared<FaultInjector>(plan);
  auto [a, b] = make_inproc_pair();
  auto faulty = decorate_with_faults(std::move(a), injector);
  ASSERT_TRUE(b->send(Message::heartbeat()));
  EXPECT_THROW(faulty->receive(), ProtocolError);
  EXPECT_EQ(injector->stats().receives_corrupted, 1u);
}

TEST(Inproc, DuplexDelivery) {
  auto [a, b] = make_inproc_pair();
  EXPECT_TRUE(a->send(Message::error("to-b")));
  EXPECT_TRUE(b->send(Message::error("to-a")));
  EXPECT_EQ(b->receive()->text, "to-b");
  EXPECT_EQ(a->receive()->text, "to-a");
  EXPECT_GT(a->bytes_sent(), 0u);
}

TEST(Inproc, CloseUnblocksReceiver) {
  auto [a, b] = make_inproc_pair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  EXPECT_FALSE(b->receive().has_value());
  closer.join();
  EXPECT_FALSE(a->send(Message::bye()));
}

TEST(Inproc, ReceiveTimeoutElapsesWithoutClosingTheLink) {
  auto [a, b] = make_inproc_pair();
  b->set_receive_timeout(0.05);

  // Silence: receive() must give up after ~the timeout instead of blocking
  // forever (the client maps this to "link lost" and redials)...
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(b->receive().has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_GE(waited, 0.04);

  // ...but the link itself stays healthy: traffic after a timeout flows.
  EXPECT_TRUE(a->send(Message::error("late")));
  ASSERT_TRUE(b->receive().has_value());

  // A frame already queued is returned immediately, timeout armed or not.
  EXPECT_TRUE(a->send(Message::bye()));
  EXPECT_EQ(b->receive()->type, MessageType::Bye);

  // 0 restores block-forever semantics (close() must unblock again).
  b->set_receive_timeout(0.0);
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  EXPECT_FALSE(b->receive().has_value());
  closer.join();
}

TEST(InprocAcceptor, ConnectAcceptPairs) {
  InprocAcceptor acceptor;
  auto client = acceptor.connect();
  auto server = acceptor.accept();
  ASSERT_NE(server, nullptr);
  client->send(Message::error("hi"));
  EXPECT_EQ(server->receive()->text, "hi");
  acceptor.close();
  EXPECT_EQ(acceptor.accept(), nullptr);
}

TEST(Link, ZeroTimeScaleLogsDelayWithoutSleeping) {
  LinkProfile profile;
  profile.up.latency_s = 10.0;  // a 10 s sleep if time_scale were 1
  profile.up.bandwidth_bytes_per_s = 1.0;
  profile.up.time_scale = 0.0;
  auto conditioner = std::make_shared<LinkConditioner>(profile);
  auto [a, b] = make_inproc_pair();
  auto client = condition_connection(std::move(a), conditioner, LinkDir::Up);

  const auto before = std::chrono::steady_clock::now();
  ASSERT_TRUE(client->send(Message::bye()));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_LT(took, 1.0);
  EXPECT_TRUE(b->receive().has_value());
  const double expected =
      10.0 + static_cast<double>(framed_size(Message::bye()));
  EXPECT_EQ(conditioner->delays(LinkDir::Up), std::vector<double>{expected});
  EXPECT_NEAR(profile.up.transfer_seconds(100), 110.0, 1e-9);
}

/// Drives one conditioned inproc connection with concurrent traffic in both
/// directions and returns the per-direction delay logs. Frame sizes vary so
/// the byte-dependent base delays vary too.
std::pair<std::vector<double>, std::vector<double>> conditioned_exchange(
    std::uint64_t seed) {
  LinkProfile profile;
  profile.up.latency_s = 0.002;               // thin, slow uplink...
  profile.up.bandwidth_bytes_per_s = 2e6;
  profile.up.time_scale = 0.0;                // log only, never sleep
  profile.down.latency_s = 0.0005;            // ...fat, quick downlink
  profile.down.bandwidth_bytes_per_s = 50e6;
  profile.down.time_scale = 0.0;
  profile.jitter_s = 0.01;
  profile.seed = seed;

  InprocAcceptor acceptor;
  std::shared_ptr<LinkConditioner> conditioner;
  auto client = acceptor.connect(profile, &conditioner);
  auto server = acceptor.accept();
  constexpr int kFrames = 40;

  // Both endpoints send concurrently: per-direction draws must come out
  // identical run-to-run no matter how the two threads interleave.
  std::thread server_side([&server] {
    for (int i = 0; i < kFrames; ++i) {
      WireTensor t;
      t.shape = {i % 5 + 1};
      t.data.assign(static_cast<std::size_t>(i % 5 + 1), 1.0f);
      server->send(Message::forward_result(t, static_cast<std::uint64_t>(i)));
    }
    for (int i = 0; i < kFrames; ++i) server->receive();
  });
  for (int i = 0; i < kFrames; ++i) {
    WireTensor t;
    t.shape = {(i * 7) % 9 + 1};
    t.data.assign(static_cast<std::size_t>((i * 7) % 9 + 1), 2.0f);
    client->send(Message::forward(t, static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < kFrames; ++i) client->receive();
  server_side.join();
  return {conditioner->delays(LinkDir::Up), conditioner->delays(LinkDir::Down)};
}

TEST(Link, AsymmetricConditionerIsDeterministicUnderConcurrency) {
  // The S2 regression surface: same seed => the same per-frame delay
  // sequence in each direction, exactly, across runs with live concurrency
  // between the two endpoints.
  const auto [up_a, down_a] = conditioned_exchange(42);
  const auto [up_b, down_b] = conditioned_exchange(42);
  EXPECT_EQ(up_a, up_b);
  EXPECT_EQ(down_a, down_b);
  ASSERT_EQ(up_a.size(), 40u);
  ASSERT_EQ(down_a.size(), 40u);

  // The directions draw from independent forked streams (asymmetry is
  // real, not a shared log), and the seed actually reaches the draws.
  EXPECT_NE(up_a, down_a);
  const auto [up_c, down_c] = conditioned_exchange(7);
  EXPECT_NE(up_a, up_c);
  EXPECT_NE(down_a, down_c);
}

TEST(Link, PerConnectionLinksAreIndependent) {
  // Two sessions on one acceptor get their OWN conditioners: traffic on one
  // link must not advance the other's jitter stream.
  LinkProfile profile;
  profile.up.time_scale = 0.0;
  profile.down.time_scale = 0.0;
  profile.jitter_s = 0.01;
  profile.seed = 5;

  InprocAcceptor acceptor;
  std::shared_ptr<LinkConditioner> link_a;
  std::shared_ptr<LinkConditioner> link_b;
  auto client_a = acceptor.connect(profile, &link_a);
  auto server_a = acceptor.accept();
  auto client_b = acceptor.connect(profile, &link_b);
  auto server_b = acceptor.accept();
  ASSERT_NE(link_a, link_b);

  // Interleave: a's stream sees only a's frames.
  client_a->send(Message::heartbeat());
  client_b->send(Message::heartbeat());
  client_a->send(Message::heartbeat());
  server_a->receive();
  server_b->receive();
  server_a->receive();
  EXPECT_EQ(link_a->delays(LinkDir::Up).size(), 2u);
  EXPECT_EQ(link_b->delays(LinkDir::Up).size(), 1u);
  // Same seed, same frame sizes: the first draw of each link matches.
  EXPECT_EQ(link_a->delays(LinkDir::Up)[0], link_b->delays(LinkDir::Up)[0]);
}

TEST(Link, DelayLogKeepsTheLastDrawsInSendOrder) {
  // The log is a window of the most recent draws, not one entry per frame
  // forever; drawn() still counts every draw. Frame i is i bytes at 1 B/s,
  // so its delay is exactly i and the window's content is checkable.
  LinkProfile profile;
  profile.up.bandwidth_bytes_per_s = 1.0;
  profile.up.time_scale = 0.0;
  LinkConditioner link(profile);
  constexpr std::size_t kCap = LinkConditioner::kDelayLogCap;
  constexpr std::size_t kExtra = 37;
  for (std::size_t i = 0; i < kCap + kExtra; ++i) {
    link.next_delay(LinkDir::Up, i);
    if (i == kCap - 1) {
      // Exactly full: everything drawn is still there.
      EXPECT_EQ(link.delays(LinkDir::Up).size(), kCap);
      EXPECT_EQ(link.delays(LinkDir::Up).front(), 0.0);
    }
  }
  const std::vector<double> window = link.delays(LinkDir::Up);
  ASSERT_EQ(window.size(), kCap);
  for (std::size_t j = 0; j < kCap; ++j) {
    ASSERT_EQ(window[j], static_cast<double>(kExtra + j)) << "entry " << j;
  }
  EXPECT_EQ(link.drawn(LinkDir::Up), kCap + kExtra);
  EXPECT_EQ(link.drawn(LinkDir::Down), 0u);
  EXPECT_TRUE(link.delays(LinkDir::Down).empty());
}

TEST(Tcp, EndToEndMessages) {
  auto listener = tcp_listen(0);
  ASSERT_NE(listener, nullptr);
  const int port = listener->port();
  std::unique_ptr<Connection> server_side;
  std::thread accepter([&] { server_side = listener->accept(); });
  auto client = tcp_connect("127.0.0.1", port);
  ASSERT_NE(client, nullptr);
  accepter.join();
  ASSERT_NE(server_side, nullptr);

  WireTensor t;
  t.shape = {2, 2};
  t.data = {1, 2, 3, 4};
  EXPECT_TRUE(client->send(Message::forward(t, 5)));
  auto got = server_side->receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensor.data, t.data);

  EXPECT_TRUE(server_side->send(Message::hello_ack(11, 22)));
  auto ack = client->receive();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->forward_bytes, 11u);

  client->close();
  EXPECT_FALSE(server_side->receive().has_value());
  listener->close();
}

TEST(Tcp, LargeTensorSurvives) {
  auto listener = tcp_listen(0);
  auto client_fut = std::thread([port = listener->port()] {
    auto client = tcp_connect("127.0.0.1", port);
    ASSERT_NE(client, nullptr);
    WireTensor t;
    t.shape = {512, 128};
    t.data.assign(512 * 128, 1.25f);
    EXPECT_TRUE(client->send(Message::forward(std::move(t), 0)));
    auto echo = client->receive();
    ASSERT_TRUE(echo.has_value());
    EXPECT_EQ(echo->tensor.data.size(), 512u * 128u);
    client->close();
  });
  auto server_side = listener->accept();
  ASSERT_NE(server_side, nullptr);
  auto msg = server_side->receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tensor.data[1000], 1.25f);
  server_side->send(Message::forward_result(msg->tensor, 0));
  client_fut.join();
  server_side->close();
  listener->close();
}

TEST(Tcp, ConnectRefusedReturnsNull) {
  // Port 1 is never listening in the test environment.
  EXPECT_EQ(tcp_connect("127.0.0.1", 1), nullptr);
}

}  // namespace
}  // namespace menos::net
