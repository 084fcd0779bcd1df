// fleet::Fleet end-to-end: placement policies, the router front door, live
// session migration between shards (bit-identical loss curves), and clean
// per-shard teardown accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "fleet/fleet.h"
#include "fleet/policy.h"
#include "net/transport.h"
#include "util/trace.h"

namespace menos {
namespace {

nn::TransformerConfig fleet_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  return c;
}

core::ClientOptions fleet_options(std::uint64_t adapter_seed) {
  core::ClientOptions options;
  options.finetune.model = fleet_model();
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.adapter_seed = adapter_seed;
  options.base_seed = 42;
  options.retry.time_scale = 0.0;  // resume instantly in tests
  return options;
}

data::DataLoader fleet_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 5).text), 2, 8, seed);
}

fleet::FleetConfig fleet_config(int shards, const std::string& policy,
                                util::EventTrace* trace) {
  fleet::FleetConfig fc;
  fc.server.base_seed = 42;
  fc.server.lease_seconds = 30.0;
  fc.server.reaper_interval_s = 0.1;
  fc.shards = shards;
  fc.gpu_bytes_per_shard = 256u << 20;
  fc.policy = policy;
  fc.trace = trace;
  return fc;
}

int count_events(const util::EventTrace& trace, const std::string& name) {
  int n = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.name == name) ++n;
  }
  return n;
}

/// Retry a migration until the session is exportable (a just-finished
/// train_step may leave the session a few strand events short of idle).
bool migrate_when_idle(fleet::Fleet& fleet, std::uint64_t token, int dst) {
  for (int i = 0; i < 200; ++i) {
    if (fleet.migrate_session(token, dst)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Placement policies (pure unit tests — no servers involved).
// ---------------------------------------------------------------------------

std::vector<fleet::ShardLoad> make_loads(
    const std::vector<std::size_t>& reserved) {
  std::vector<fleet::ShardLoad> loads;
  for (std::size_t i = 0; i < reserved.size(); ++i) {
    fleet::ShardLoad l;
    l.shard = static_cast<int>(i);
    l.reserved_bytes = reserved[i];
    loads.push_back(l);
  }
  return loads;
}

TEST(PlacementPolicy, RoundRobinCycles) {
  fleet::RoundRobin rr;
  const auto loads = make_loads({100, 0, 50});
  net::FinetuneConfig config;
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rr.place(config, loads), i % 3);
  }
}

TEST(PlacementPolicy, LeastLoadedPicksSmallestReservation) {
  fleet::LeastLoaded ll;
  net::FinetuneConfig config;
  EXPECT_EQ(ll.place(config, make_loads({100, 40, 50})), 1);
  // Ties break by sessions, then by index.
  auto loads = make_loads({60, 60, 60});
  loads[0].sessions = 2;
  loads[2].sessions = 1;
  EXPECT_EQ(ll.place(config, loads), 1);
}

TEST(PlacementPolicy, PowerOfTwoChoicesNeverPicksTheHeavierSample) {
  fleet::PowerOfTwoChoices p2c;
  net::FinetuneConfig config;
  // With two shards both samples are always {0, 1}: the lighter one wins
  // every single time, whatever the RNG does.
  const auto loads = make_loads({500, 20});
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(p2c.place(config, loads), 1);
  }
}

TEST(PlacementPolicy, AdapterAffinitySticksPerModelSpec) {
  fleet::AdapterAffinity affinity;
  net::FinetuneConfig a;
  a.model = fleet_model();
  net::FinetuneConfig b = a;
  b.model.n_layers = 4;  // a different architecture
  auto loads = make_loads({100, 0});
  EXPECT_EQ(affinity.place(a, loads), 1);
  // Shard 1 grew heavier, but spec `a` stays pinned there; spec `b` lands
  // least-loaded.
  loads = make_loads({0, 500});
  EXPECT_EQ(affinity.place(a, loads), 1);
  EXPECT_EQ(affinity.place(b, loads), 0);
  EXPECT_NE(fleet::AdapterAffinity::model_key(a),
            fleet::AdapterAffinity::model_key(b));
}

TEST(PlacementPolicy, FactoryKnowsEveryPolicyAndRejectsTheRest) {
  for (const char* name :
       {"round-robin", "least-loaded", "power-of-two", "adapter-affinity"}) {
    auto policy = fleet::make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), name);
  }
  EXPECT_THROW(fleet::make_policy("random"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Router placement distribution.
// ---------------------------------------------------------------------------

TEST(FleetPlacement, LeastLoadedSpreads128SessionsEvenly) {
  util::EventTrace trace;
  fleet::Fleet fleet(fleet_config(4, "least-loaded", &trace), fleet_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  constexpr int kSessions = 128;
  std::vector<std::unique_ptr<gpusim::DeviceManager>> cds;
  std::vector<std::unique_ptr<core::Client>> clients;
  for (int i = 0; i < kSessions; ++i) {
    cds.push_back(std::make_unique<gpusim::DeviceManager>(1, 64u << 20));
    clients.push_back(std::make_unique<core::Client>(
        fleet_options(100 + static_cast<std::uint64_t>(i)),
        acceptor.connect(), cds.back()->gpu(0)));
    clients.back()->connect();
    ASSERT_NE(clients.back()->session_token(), 0u);
    // The router records the placement before the session can send
    // HelloAck, so the token resolves as soon as connect() returns.
    EXPECT_GE(fleet.router().shard_of(clients.back()->session_token()), 0);
  }

  const std::vector<int> placed = fleet.router().placements();
  ASSERT_EQ(placed.size(), 4u);
  int total = 0;
  int lo = placed[0];
  int hi = placed[0];
  for (int p : placed) {
    total += p;
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_EQ(total, kSessions);
  EXPECT_LE(hi - lo, 2) << "least-loaded distribution drifted";
  EXPECT_EQ(count_events(trace, "router.placed"), kSessions);

  for (auto& client : clients) client->disconnect();
  fleet.stop();
}

// A Hello for a model the fleet does not host is placed and adopted, then
// rejected by the shard's handshake: the session finishes at once. Its
// closed hook must still erase the router's entry, so no token lingers.
TEST(FleetPlacement, RejectedHelloLeavesNoTableEntry) {
  fleet::Fleet fleet(fleet_config(2, "round-robin", nullptr), fleet_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  core::ClientOptions options = fleet_options(41);
  options.finetune.model.dim = 64;  // not what the fleet hosts
  options.finetune.model.n_heads = 4;
  gpusim::DeviceManager cd(1, 64u << 20);
  core::Client client(options, acceptor.connect(), cd.gpu(0));
  EXPECT_THROW(client.connect(), StateError);

  const std::vector<int> placed = fleet.router().placements();
  EXPECT_EQ(placed[0] + placed[1], 1) << "the Hello was never placed";
  // The closed hook runs on the session's strand after the Error reply;
  // give it a bounded moment.
  const auto table_empty = [&fleet] {
    return fleet.router().tokens_on(0).empty() &&
           fleet.router().tokens_on(1).empty();
  };
  for (int i = 0; i < 400 && !table_empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(fleet.router().tokens_on(s).empty()) << "shard " << s;
  }
  fleet.stop();
}

// ---------------------------------------------------------------------------
// Live migration.
// ---------------------------------------------------------------------------

std::vector<double> single_server_run(int rounds) {
  gpusim::DeviceManager devices(1, 256u << 20);
  core::ServerConfig config;
  config.base_seed = 42;
  config.lease_seconds = 30.0;
  core::Server server(config, devices, fleet_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fleet_options(21), acceptor.connect(), cd.gpu(0));
  client.connect();
  auto loader = fleet_loader(22);
  std::vector<double> losses;
  for (int i = 0; i < rounds; ++i) {
    losses.push_back(client.train_step(loader.next()).loss);
  }
  client.disconnect();
  server.stop();
  return losses;
}

// The acceptance bar: train k rounds on shard 0, migrate to shard 1
// mid-stream, finish there — every loss bit-identical to a run on one
// standalone server that never moved.
TEST(FleetMigration, LossCurveBitIdenticalAcrossAMove) {
  const int rounds = 10;
  const int move_after = 4;
  const std::vector<double> baseline = single_server_run(rounds);

  util::EventTrace trace;
  fleet::Fleet fleet(fleet_config(2, "round-robin", &trace), fleet_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  // Baselines for the teardown accounting assertions below.
  std::vector<std::size_t> idle_available;
  std::vector<std::size_t> idle_persistent;
  for (int s = 0; s < 2; ++s) {
    idle_available.push_back(fleet.shard(s).scheduler().total_available());
    idle_persistent.push_back(fleet.shard(s).persistent_gpu_bytes());
  }

  net::Dialer dialer = [&acceptor] { return acceptor.connect(); };
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fleet_options(21), dialer(), cd.gpu(0), dialer);
  client.connect();
  const std::uint64_t token = client.session_token();
  ASSERT_NE(token, 0u);
  const int src = fleet.router().shard_of(token);
  ASSERT_GE(src, 0);
  const int dst = 1 - src;

  auto loader = fleet_loader(22);
  std::vector<double> losses;
  for (int i = 0; i < move_after; ++i) {
    losses.push_back(client.train_step(loader.next()).loss);
  }

  ASSERT_TRUE(migrate_when_idle(fleet, token, dst));
  EXPECT_EQ(fleet.router().shard_of(token), dst);

  // The client's next request hits a closed link, resumes through the
  // router, and lands on the target shard — training just continues.
  for (int i = move_after; i < rounds; ++i) {
    losses.push_back(client.train_step(loader.next()).loss);
  }
  EXPECT_GE(client.resumes(), 1u);
  EXPECT_GT(fleet.shard(dst).persistent_gpu_bytes(), idle_persistent[dst]);

  ASSERT_EQ(losses.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(losses[i], baseline[i]) << "loss diverged at round " << i;
  }

  // Trace: the placement and the move are both on record.
  EXPECT_GE(count_events(trace, "router.placed"), 1);
  EXPECT_EQ(count_events(trace, "session.migrated"), 1);
  bool saw_pair = false;
  for (const auto& e : trace.snapshot()) {
    if (e.name == "session.migrated") {
      EXPECT_EQ(e.client_id, dst);
      EXPECT_GT(e.value, 0u);  // adapter + optimizer payload bytes
    }
    if (e.name == "migrate.src") {
      EXPECT_EQ(e.client_id, src);
    }
    if (e.name == "migrate.dst") {
      EXPECT_EQ(e.client_id, dst);
      saw_pair = true;
    }
  }
  EXPECT_TRUE(saw_pair);

  client.disconnect();
  // Ledgers: once the client leaves, every shard returns to its idle
  // accounting — all scheduler reservations released, only the preloaded
  // base model still resident on each shard's GPU.
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 400 && (fleet.shard(s).scheduler().total_available() !=
                                    idle_available[static_cast<std::size_t>(s)] ||
                                fleet.shard(s).persistent_gpu_bytes() !=
                                    idle_persistent[static_cast<std::size_t>(s)]);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(fleet.shard(s).scheduler().total_available(),
              idle_available[static_cast<std::size_t>(s)])
        << "shard " << s << " leaked scheduler reservations";
    EXPECT_EQ(fleet.shard(s).persistent_gpu_bytes(),
              idle_persistent[static_cast<std::size_t>(s)])
        << "shard " << s << " leaked persistent session bytes";
  }
  fleet.stop();
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fleet.shard(s).session_count(), 0) << "shard " << s;
  }
}

// A busy or unknown session refuses to move, and the refusal is harmless:
// the mapping is unchanged and training continues.
TEST(FleetMigration, RefusalsLeaveTheSessionIntact) {
  util::EventTrace trace;
  fleet::Fleet fleet(fleet_config(2, "round-robin", &trace), fleet_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  net::Dialer dialer = [&acceptor] { return acceptor.connect(); };
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(fleet_options(31), dialer(), cd.gpu(0), dialer);
  client.connect();
  const std::uint64_t token = client.session_token();
  const int src = fleet.router().shard_of(token);
  ASSERT_GE(src, 0);

  EXPECT_FALSE(fleet.migrate_session(0xdeadbeef, 1 - src));  // unknown token
  EXPECT_FALSE(fleet.migrate_session(token, src));           // same shard
  EXPECT_EQ(fleet.router().shard_of(token), src);
  EXPECT_EQ(count_events(trace, "session.migrated"), 0);

  auto loader = fleet_loader(32);
  EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  client.disconnect();
  fleet.stop();
}

// rebalance_once moves an idle session off the most loaded shard. Place
// three sessions with round-robin (2 on shard 0, 1 on shard 1), then ask
// the fleet to even things out.
TEST(FleetMigration, RebalanceOnceMovesFromBusiestShard) {
  util::EventTrace trace;
  fleet::Fleet fleet(fleet_config(2, "round-robin", &trace), fleet_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  net::Dialer dialer = [&acceptor] { return acceptor.connect(); };
  std::vector<std::unique_ptr<gpusim::DeviceManager>> cds;
  std::vector<std::unique_ptr<core::Client>> clients;
  for (int i = 0; i < 3; ++i) {
    cds.push_back(std::make_unique<gpusim::DeviceManager>(1, 64u << 20));
    clients.push_back(std::make_unique<core::Client>(
        fleet_options(40 + static_cast<std::uint64_t>(i)), dialer(),
        cds.back()->gpu(0), dialer));
    clients.back()->connect();
  }
  EXPECT_EQ(fleet.shard(0).session_count(), 2);
  EXPECT_EQ(fleet.shard(1).session_count(), 1);

  bool moved = false;
  for (int i = 0; i < 200 && !moved; ++i) {
    moved = fleet.rebalance_once();
    if (!moved) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(moved);
  EXPECT_EQ(count_events(trace, "session.migrated"), 1);

  // Every client still trains to a finite loss wherever it ended up.
  for (int i = 0; i < 3; ++i) {
    auto loader = fleet_loader(50 + static_cast<std::uint64_t>(i));
    EXPECT_TRUE(
        std::isfinite(clients[static_cast<std::size_t>(i)]
                          ->train_step(loader.next())
                          .loss));
  }
  for (auto& client : clients) client->disconnect();
  fleet.stop();
}

}  // namespace
}  // namespace menos
