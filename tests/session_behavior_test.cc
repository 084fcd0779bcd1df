// Observable serving-session semantics per mode: re-forward counts, memory
// residency between iterations, swap counters, and profiling consistency —
// the behaviours Fig 3 and Algorithm 1 promise, read back through
// SessionStats and the metered device.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/client.h"
#include "core/server.h"
#include "net/transport.h"

namespace menos::core {
namespace {

nn::TransformerConfig sb_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  return c;
}

struct Rig {
  explicit Rig(ServingMode mode, std::size_t gpu_bytes = 256u << 20)
      : devices(1, gpu_bytes) {
    config.mode = mode;
    config.base_seed = 42;
    server = std::make_unique<Server>(config, devices, sb_model());
    server->start(acceptor);
  }
  ~Rig() { server->stop(); }

  std::unique_ptr<Client> client(std::uint64_t seed) {
    ClientOptions options;
    options.finetune.model = sb_model();
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.adapter_seed = seed;
    options.base_seed = 42;
    auto c = std::make_unique<Client>(options, acceptor.connect(),
                                      client_devices.gpu(0));
    c->connect();
    return c;
  }

  std::uint64_t total_reforwards() {
    std::uint64_t total = 0;
    for (const auto& s : server->session_stats()) total += s.reforwards;
    return total;
  }

  gpusim::DeviceManager devices;
  gpusim::DeviceManager client_devices{1, 256u << 20};
  ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<Server> server;
};

data::DataLoader sb_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 3).text), 2, 8, seed);
}

TEST(SessionBehavior, OnDemandReForwardsEveryIteration) {
  Rig rig(ServingMode::MenosOnDemand);
  auto client = rig.client(1);
  auto loader = sb_loader(2);
  for (int i = 0; i < 4; ++i) client->train_step(loader.next());
  // §3.2: every backward pays one re-forward under on-demand allocation.
  EXPECT_EQ(rig.total_reforwards(), 4u);
  client->disconnect();
}

TEST(SessionBehavior, ReleaseEarlyAlsoReForwards) {
  Rig rig(ServingMode::MenosReleaseEarly);
  auto client = rig.client(1);
  auto loader = sb_loader(2);
  for (int i = 0; i < 3; ++i) client->train_step(loader.next());
  EXPECT_EQ(rig.total_reforwards(), 3u);
  client->disconnect();
}

TEST(SessionBehavior, ZeroByteGrantIsReleasedBeforeTheNextRequest) {
  // A profile window that races another session's free can measure a
  // demand of 0 bytes. Re-register the first session (client id 0) with
  // a 0-byte forward demand: its forward grant charges nothing, and
  // releasing it must still clear the allocation, or the backward request
  // that follows aborts with "requested while holding an allocation".
  Rig rig(ServingMode::MenosOnDemand);
  auto client = rig.client(1);
  sched::Scheduler& scheduler = rig.server->scheduler();
  scheduler.unregister_client(0);
  scheduler.register_client(0, sched::ClientDemands{0, 1u << 20});
  auto loader = sb_loader(2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(client->train_step(loader.next()).loss));
  }
  EXPECT_EQ(scheduler.allocated_to(0), 0u);
  EXPECT_EQ(rig.total_reforwards(), 2u);
  client->disconnect();
}

TEST(SessionBehavior, HoldingModesNeverReForward) {
  for (ServingMode mode : {ServingMode::MenosReleaseAfterBackward,
                           ServingMode::MenosPreserveAll,
                           ServingMode::VanillaTaskSwap}) {
    Rig rig(mode);
    auto client = rig.client(1);
    auto loader = sb_loader(2);
    for (int i = 0; i < 3; ++i) client->train_step(loader.next());
    EXPECT_EQ(rig.total_reforwards(), 0u) << serving_mode_name(mode);
    client->disconnect();
  }
}

TEST(SessionBehavior, OnDemandReleasesBetweenIterationsPreserveHolds) {
  // Between two iterations (both sides idle), on-demand leaves only
  // persistent state on the GPU; preserve-all keeps the whole graph.
  const auto resident_between_steps = [&](ServingMode mode) {
    Rig rig(mode);
    const std::size_t baseline = rig.devices.gpu(0).allocated();
    auto client = rig.client(1);
    const std::size_t with_client = rig.devices.gpu(0).allocated();
    auto loader = sb_loader(2);
    client->train_step(loader.next());
    // Let the session finish its post-reply bookkeeping.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t between = rig.devices.gpu(0).allocated();
    client->disconnect();
    (void)baseline;
    return std::pair<std::size_t, std::size_t>(with_client, between);
  };

  const auto [ondemand_static, ondemand_between] =
      resident_between_steps(ServingMode::MenosOnDemand);
  EXPECT_EQ(ondemand_between, ondemand_static)
      << "on-demand must return to the persistent footprint between steps";

  const auto [preserve_static, preserve_between] =
      resident_between_steps(ServingMode::MenosPreserveAll);
  EXPECT_GT(preserve_between, preserve_static)
      << "preserve-all must keep the activation graph resident";
}

TEST(SessionBehavior, VanillaSwapsUnderContention) {
  // Two vanilla clients, a GPU sized for roughly one task + transients:
  // the tasks must rotate through host memory.
  const std::size_t task_bytes = [&] {
    auto probe = gpusim::make_host_device();
    ParameterStore store(sb_model(), *probe, 42);
    return store.bytes();
  }();
  Rig rig(ServingMode::VanillaTaskSwap,
          /*gpu_bytes=*/task_bytes + (12u << 20));

  auto c1 = rig.client(1);
  auto c2 = rig.client(2);
  auto l1 = sb_loader(3);
  auto l2 = sb_loader(4);
  std::thread t1([&] {
    for (int i = 0; i < 3; ++i) c1->train_step(l1.next());
  });
  std::thread t2([&] {
    for (int i = 0; i < 3; ++i) c2->train_step(l2.next());
  });
  t1.join();
  t2.join();
  std::uint64_t swaps = 0;
  for (const auto& s : rig.server->session_stats()) swaps += s.swaps;
  EXPECT_GT(swaps, 0u);
  c1->disconnect();
  c2->disconnect();
}

TEST(SessionBehavior, IdenticalClientsGetIdenticalProfiles) {
  // The profile cache (and determinism) means two identically-configured
  // clients must see exactly the same M_f / M_b.
  Rig rig(ServingMode::MenosOnDemand);
  auto c1 = rig.client(10);
  auto c2 = rig.client(11);  // different adapter seed, same geometry
  EXPECT_EQ(c1->server_forward_bytes(), c2->server_forward_bytes());
  EXPECT_EQ(c1->server_backward_bytes(), c2->server_backward_bytes());
  c1->disconnect();
  c2->disconnect();
}

TEST(SessionBehavior, StatsCountIterations) {
  Rig rig(ServingMode::MenosOnDemand);
  auto client = rig.client(1);
  auto loader = sb_loader(2);
  for (int i = 0; i < 5; ++i) client->train_step(loader.next());
  const auto stats = rig.server->session_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].iterations, 5u);
  // Two scheduler interactions per iteration (forward + backward).
  EXPECT_EQ(stats[0].schedule_wait_s.count(), 10u);
  EXPECT_EQ(stats[0].compute_s.count(), 10u);
  client->disconnect();
}

// ----- SwapOnIdle: mem::OffloadEngine end-to-end (ISSUE 3) -----

/// A fine-tuning configuration whose persistent A + O dwarfs its transient
/// demand (LoRA rank 256 on a dim-32 model, batch 1, seq 4), so evicting an
/// idle client's persistent state is what makes room for a new one.
net::FinetuneConfig swap_finetune(std::uint64_t seed) {
  net::FinetuneConfig f;
  f.model = sb_model();
  f.adapter.rank = 256;
  f.batch_size = 1;
  f.seq_len = 4;
  f.adapter_seed = seed;
  return f;
}

struct SwapRig {
  SwapRig(sched::Policy policy, std::size_t reserve_bytes,
          util::EventTrace* trace)
      : devices(1, 256u << 20) {
    config.mode = ServingMode::MenosOnDemand;
    config.sched_policy = policy;
    config.base_seed = 42;
    config.reserve_bytes = reserve_bytes;
    config.trace = trace;
    server = std::make_unique<Server>(config, devices, sb_model());
    server->start(acceptor);
  }
  ~SwapRig() { server->stop(); }

  std::unique_ptr<Client> client(std::uint64_t seed) {
    ClientOptions options;
    options.finetune = swap_finetune(seed);
    options.base_seed = 42;
    auto c = std::make_unique<Client>(options, acceptor.connect(),
                                      client_devices.gpu(0));
    c->connect();
    return c;
  }

  gpusim::DeviceManager devices;
  gpusim::DeviceManager client_devices{1, 256u << 20};
  ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<Server> server;
};

data::DataLoader swap_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(500, 3).text), 1, 4, seed);
}

TEST(SessionBehavior, SwapOnIdleAdmitsClientThatWouldOomUnderBackfill) {
  // Phase 1 — measure on a roomy rig: p = one client's persistent A + O
  // reservation, M_b = its transient backward demand, avail0 = the
  // schedulable pool with nothing reserved.
  std::size_t avail0 = 0;
  std::size_t p = 0;
  std::size_t backward_bytes = 0;
  {
    SwapRig probe(sched::Policy::FcfsBackfill, 0, nullptr);
    avail0 = probe.server->scheduler().total_available();
    auto c = probe.client(1);
    p = avail0 - probe.server->scheduler().total_available();
    backward_bytes = c->server_backward_bytes();
    c->disconnect();
  }
  const std::size_t slack = 64u << 10;
  // The experiment only demonstrates anything if the persistent state is
  // the dominant footprint; the rank-256 configuration guarantees it.
  ASSERT_GT(p, backward_bytes + slack)
      << "p=" << p << " M_b=" << backward_bytes;
  // Phase 2 rigs get a pool of exactly P = p + M_b + slack: one client's
  // persistent state plus one transient backward — never two p's.
  const std::size_t pool = p + backward_bytes + slack;
  const std::size_t reserve = avail0 - pool;

  {
    // Baseline: under FcfsBackfill the second client's reservation OOMs
    // and the server rejects it at handshake.
    SwapRig rig(sched::Policy::FcfsBackfill, reserve, nullptr);
    auto a = rig.client(1);
    EXPECT_THROW(rig.client(2), Error);
    a->disconnect();
  }

  util::EventTrace trace(4096);
  SwapRig rig(sched::Policy::SwapOnIdle, reserve, &trace);
  ASSERT_NE(rig.server->offload_engine(), nullptr);
  auto a = rig.client(1);
  const std::size_t with_a = rig.server->persistent_gpu_bytes();
  // Same pool, SwapOnIdle: admitting B evicts idle A's unit to host.
  auto b = rig.client(2);
  EXPECT_FALSE(rig.server->offload_engine()->resident(0));
  EXPECT_TRUE(rig.server->offload_engine()->resident(1));
  // The Fig 5 metric follows residency: A's p no longer counts.
  EXPECT_EQ(rig.server->persistent_gpu_bytes(), with_a);
  EXPECT_GE(rig.server->scheduler().stats().reclaims, 1u);
  EXPECT_EQ(rig.server->scheduler().stats().reclaimed_bytes, p);

  // Both clients can still train; each step swaps the idle one's unit out
  // and its own back in.
  auto la = swap_loader(3);
  auto lb = swap_loader(4);
  b->train_step(lb.next());
  a->train_step(la.next());  // A's unit must come home for this
  EXPECT_TRUE(rig.server->offload_engine()->resident(0));
  b->train_step(lb.next());
  const mem::OffloadStats os = rig.server->offload_engine()->stats();
  EXPECT_GE(os.swap_outs, 2u);
  EXPECT_GE(os.swap_ins, 1u);
  EXPECT_GT(os.modeled_transfer_s, 0.0);

  // The trace must show client A's unit leaving and returning, in order.
  bool saw_out = false;
  bool saw_in_after_out = false;
  for (const util::TraceEvent& e : trace.snapshot()) {
    if (e.category != util::TraceCategory::Memory || e.client_id != 0) {
      continue;
    }
    if (e.name == "swap.out" && e.value == p) saw_out = true;
    if (e.name == "swap.in" && e.value == p && saw_out) {
      saw_in_after_out = true;
    }
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in_after_out);

  a->disconnect();
  b->disconnect();
}

}  // namespace
}  // namespace menos::core
