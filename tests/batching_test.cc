// Cross-client fused batched trunk compute (Policy::CoalescedBatch,
// docs/ARCHITECTURE.md "Cross-client batched trunk compute").
//
// The contract under test: coalescing compatible clients into one fused
// pass through the shared trunk is a pure scheduling optimization — every
// client's loss trajectory must be BIT-identical to the same job run solo
// on an unloaded FCFS server. Each scenario trains the same population
// twice (solo reference, then batched under memory pressure with
// concurrent drivers) and compares float-for-float.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "net/transport.h"
#include "util/mutex.h"

namespace menos::core {
namespace {

// Deep trunks on purpose: the server hosts blocks [1, n_layers), so with 8
// layers one server pass costs ~7x a client's single block. The server is
// then the bottleneck of the closed loop, which makes queues (and hence
// coalescing opportunities) a structural property of the test rather than
// a micro-timing accident.
nn::TransformerConfig bt_opt() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 8;
  return c;
}

nn::TransformerConfig bt_llama_gqa() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_llama();
  c.dim = 32;
  c.n_heads = 2;
  c.n_kv_heads = 1;  // grouped-query attention: repeat_heads on the tape
  c.ffn_hidden = 64;
  c.n_layers = 8;
  return c;
}

struct Scenario {
  nn::TransformerConfig model;
  nn::AdapterSpec adapter;
  ServingMode mode = ServingMode::MenosOnDemand;
  /// Wire codec every client negotiates (ClientProfile::codec).
  net::ActivationCodec codec = net::ActivationCodec::None;
  /// Serve over TCP loopback instead of in-process pairs. Only a real
  /// socket encodes frames, so only TCP exercises the codec.
  bool tcp = false;
};

nn::AdapterSpec prefix_adapter() {
  nn::AdapterSpec a;
  a.type = nn::AdapterType::Prefix;
  a.prefix_len = 4;
  return a;
}

nn::AdapterSpec lora_adapter() {
  nn::AdapterSpec a;
  a.type = nn::AdapterType::Lora;
  a.rank = 4;
  a.alpha = 8.0f;
  return a;
}

struct Rig {
  Rig(const Scenario& sc, sched::Policy policy)
      : scenario(sc), devices(1, 256u << 20) {
    config.mode = sc.mode;
    config.sched_policy = policy;
    config.base_seed = 42;
    config.executor_threads =
        std::getenv("MENOS_EXECUTOR_THREADS") != nullptr ? 0 : 4;
    server = std::make_unique<Server>(config, devices, sc.model);
    if (sc.tcp) {
      listener = net::tcp_listen(0);
      server->start(*listener);
    } else {
      server->start(acceptor);
    }
  }
  ~Rig() {
    if (server != nullptr) server->stop();
  }

  std::unique_ptr<Client> client(std::uint64_t seed) {
    ClientOptions options;
    options.finetune.model = scenario.model;
    options.finetune.adapter = scenario.adapter;
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.adapter_seed = seed;
    options.finetune.profile.codec = scenario.codec;
    options.base_seed = 42;
    auto c = std::make_unique<Client>(
        options,
        listener != nullptr ? net::tcp_connect("127.0.0.1", listener->port())
                            : acceptor.connect(),
        client_devices.gpu(0));
    c->connect();
    return c;
  }

  Scenario scenario;
  gpusim::DeviceManager devices;
  gpusim::DeviceManager client_devices{1, 1u << 30};
  ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<net::TcpListener> listener;  // set when scenario.tcp
  std::unique_ptr<Server> server;
};

data::DataLoader bt_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 3).text), 2, 8, seed);
}

constexpr int kClients = 8;
constexpr int kSteps = 6;
constexpr int kEvalRounds = 3;

/// Reusable lockstep barrier: all drivers start each round together, and
/// the coordinating main thread joins as one extra party so it can gate
/// the scheduler pool around each burst of requests.
class StepBarrier {
 public:
  explicit StepBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    util::MutexLock lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (generation_ == generation) cv_.wait(mutex_);
  }

 private:
  util::Mutex mutex_;
  util::CondVar cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// Per-client trajectory: kSteps training losses, then kEvalRounds eval
/// losses (eval-only forwards ride the same fused path).
using LossCurves = std::vector<std::vector<double>>;

/// `expect_groups`: this population is coalescible, so both waves of the
/// concurrent run must actually exercise group grants (false for
/// populations that must never coalesce, e.g. LoRA clients).
LossCurves drive(Rig& rig, bool concurrent, bool expect_groups) {
  LossCurves curves(kClients);
  if (!concurrent) {
    // Unloaded reference: one client at a time, zero contention.
    for (int c = 0; c < kClients; ++c) {
      auto client = rig.client(1000 + static_cast<std::uint64_t>(c));
      auto loader = bt_loader(static_cast<std::uint64_t>(c));
      auto& curve = curves[static_cast<std::size_t>(c)];
      for (int s = 0; s < kSteps; ++s) {
        curve.push_back(client->train_step(loader.next()).loss);
      }
      for (int e = 0; e < kEvalRounds; ++e) {
        curve.push_back(client->evaluate(loader.next()));
      }
      client->disconnect();
    }
    return curves;
  }

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(rig.client(1000 + static_cast<std::uint64_t>(c)));
  }
  const std::size_t fwd = clients[0]->server_forward_bytes();
  const std::size_t bwd = clients[0]->server_backward_bytes();
  const std::size_t avail = rig.server->scheduler().available();
  sched::Scheduler& sched = rig.server->scheduler();

  // Phase pools: forwards run under ~2.2 forward demands, backwards under
  // ~2.2 backward demands — room for two concurrent operations, so a burst
  // of 8 queued requests coalesces into pairs. When a backward demand
  // exceeds the whole forward pool (the re-forward modes, whose forward
  // demand is a no-grad pass), the backward phase is self-gating: every
  // backward blocks until the coordinator widens the pool, making backward
  // pairs deterministic too. Otherwise (ReleaseEarly: grad-tracked forward,
  // so fwd ~= bwd) backwards queue FCFS behind the forward pairs and pair
  // up at completion passes whenever two are waiting together.
  const std::size_t fwd_pool = fwd * 11 / 5;
  const std::size_t bwd_pool = bwd * 11 / 5;
  const bool bwd_self_gates = bwd > fwd_pool;
  EXPECT_LE(fwd_pool, avail) << "rig pool smaller than assumed";
  EXPECT_LE(bwd_pool, avail) << "rig pool smaller than assumed";
  if (fwd_pool > avail || bwd_pool > avail) return curves;

  // Deterministic coalescing on any machine, via scheduler-level gating
  // instead of timing: a round opens with the ENTIRE pool reserved, so
  // every driver's forward must queue. Once all 8 sit in the scheduler
  // (pollable through stats().requests), releasing the forward pool runs
  // one schedule pass over the whole class and pairs coalesce — no
  // dependence on thread interleavings, core count, or compute speed.
  std::size_t reserved = 0;
  const auto set_free = [&](std::size_t target_free) {
    const std::size_t target_reserved = avail - target_free;
    if (target_reserved > reserved) {
      sched.reserve_persistent(0, target_reserved - reserved);
    } else if (reserved > target_reserved) {
      sched.release_persistent(0, reserved - target_reserved);
    }
    reserved = target_reserved;
  };
  const auto requests_reach = [&](std::uint64_t want) {
    for (int i = 0; i < 60000; ++i) {
      if (sched.stats().requests >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  StepBarrier barrier(kClients + 1);
  std::vector<std::thread> drivers;
  drivers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      auto loader = bt_loader(static_cast<std::uint64_t>(c));
      auto& curve = curves[static_cast<std::size_t>(c)];
      Client& client = *clients[static_cast<std::size_t>(c)];
      for (int r = 0; r < kSteps + kEvalRounds; ++r) {
        barrier.arrive_and_wait();  // round opens
        curve.push_back(r < kSteps ? client.train_step(loader.next()).loss
                                   : client.evaluate(loader.next()));
        barrier.arrive_and_wait();  // round closes
      }
    });
  }

  sched::SchedulerStats mid{};
  std::uint64_t seen_requests = sched.stats().requests;
  bool gating = true;  // drops to false (with a failure) if a poll times out
  for (int r = 0; r < kSteps + kEvalRounds; ++r) {
    const bool train = r < kSteps;
    if (r == kSteps) mid = sched.stats();
    if (gating) set_free(0);
    barrier.arrive_and_wait();  // round opens; drivers send their forwards
    if (gating) {
      seen_requests += kClients;
      if (requests_reach(seen_requests)) {
        set_free(fwd_pool);
      } else {
        ADD_FAILURE() << "round " << r << ": forwards never all queued";
        gating = false;
        set_free(avail);
      }
    }
    if (train && gating) {
      // When backwards self-gate, all 8 block until the pool widens — one
      // pass, four pairs. Otherwise the poll just tracks round progress
      // and the widening lets the FCFS-held backwards drain in pairs.
      seen_requests += kClients;
      if (requests_reach(seen_requests)) {
        set_free(bwd_pool);
      } else {
        ADD_FAILURE() << "round " << r << ": backwards never all queued"
                      << (bwd_self_gates ? "" : " (non-self-gating mode)");
        gating = false;
        set_free(avail);
      }
    } else if (train) {
      seen_requests += kClients;
    }
    barrier.arrive_and_wait();  // round closes: every reply delivered
  }
  for (auto& d : drivers) d.join();
  set_free(avail);  // hand the full pool back before teardown checks

  if (expect_groups) {
    EXPECT_GT(mid.coalesced_groups, 0u)
        << "training wave never coalesced a backward group";
  }

  const sched::SchedulerStats fin = sched.stats();
  if (expect_groups) {
    EXPECT_GT(fin.coalesced_groups, mid.coalesced_groups)
        << "eval wave never coalesced a forward group";
  } else {
    EXPECT_EQ(fin.coalesced_groups, 0u)
        << "incompatible clients must never coalesce";
  }

  // Scheduler ledger: every request granted, nothing left waiting.
  EXPECT_EQ(fin.grants, fin.requests);
  EXPECT_EQ(sched.waiting_count(), 0u);
  EXPECT_GE(fin.coalesced_members, 2 * fin.coalesced_groups);

  for (auto& client : clients) client->disconnect();
  return curves;
}

void expect_identical(const LossCurves& loaded, const LossCurves& reference) {
  ASSERT_EQ(loaded.size(), reference.size());
  for (std::size_t c = 0; c < loaded.size(); ++c) {
    ASSERT_EQ(loaded[c].size(), reference[c].size()) << "client " << c;
    for (std::size_t s = 0; s < loaded[c].size(); ++s) {
      EXPECT_EQ(loaded[c][s], reference[c][s])
          << "client " << c << " step " << s
          << " (last index is the eval pass)";
    }
  }
}

/// Full scenario driver: solo-FCFS reference vs CoalescedBatch under load,
/// bit-identical curves, fused passes exercised (or provably not, for
/// populations that must never coalesce), and clean teardown.
void run_scenario(const Scenario& sc, bool expect_groups) {
  LossCurves reference;
  {
    Rig rig(sc, sched::Policy::FcfsBackfill);
    reference = drive(rig, /*concurrent=*/false, expect_groups);
  }

  Rig rig(sc, sched::Policy::CoalescedBatch);
  const LossCurves loaded = drive(rig, /*concurrent=*/true, expect_groups);
  expect_identical(loaded, reference);

  ASSERT_NE(rig.server->batch_coordinator(), nullptr);
  const BatchCoordinator::BatchingStats bs =
      rig.server->batch_coordinator()->stats();
  const sched::SchedulerStats ss = rig.server->scheduler().stats();
  if (expect_groups) {
    EXPECT_GT(bs.groups, 0u) << "load never exercised a fused pass";
    EXPECT_GE(bs.members, 2 * bs.groups);
    EXPECT_EQ(bs.groups, ss.coalesced_groups);
    EXPECT_EQ(bs.members, ss.coalesced_members);
    // At least one fused backward went through the captured StepGraph
    // (replay-vs-eager bit-identity itself is pinned in graph_test).
    EXPECT_GT(bs.captures + bs.replays, 0u);
  } else {
    EXPECT_EQ(bs.groups, 0u) << "incompatible clients must never coalesce";
    EXPECT_EQ(ss.coalesced_groups, 0u);
  }

  // Teardown accounting: every GPU byte returns to the metered device.
  rig.server->stop();
  EXPECT_EQ(rig.server->session_count(), 0);
  rig.server.reset();
  EXPECT_EQ(rig.devices.gpu(0).allocated(), 0u);
  EXPECT_EQ(rig.client_devices.gpu(0).allocated(), 0u);
}

}  // namespace

TEST(Batching, PrefixAdapterOnDemandBitIdenticalUnderCoalescing) {
  // The canonical coalescible population: frozen trunk (prefix rows live
  // in the client's input section), on-demand re-forward.
  run_scenario({bt_opt(), prefix_adapter(), ServingMode::MenosOnDemand},
               /*expect_groups=*/true);
}

TEST(Batching, PrefixAdapterReleaseEarlyBitIdenticalUnderCoalescing) {
  // ReleaseEarly's solo backward runs its re-forward in grad mode; the
  // fused pass must still reproduce its values exactly (tape bookkeeping
  // never changes the numbers).
  run_scenario({bt_opt(), prefix_adapter(), ServingMode::MenosReleaseEarly},
               /*expect_groups=*/true);
}

TEST(Batching, GroupedQueryAttentionBitIdenticalUnderCoalescing) {
  // GQA trunk (n_kv_heads < n_heads): the fused backward's StepGraph must
  // replay repeat_heads correctly for stacked batches.
  run_scenario({bt_llama_gqa(), prefix_adapter(), ServingMode::MenosOnDemand},
               /*expect_groups=*/true);
}

TEST(Batching, LoraClientsNeverCoalesceButStillMatchSolo) {
  // LoRA trains trunk-adjacent parameters server-side: batch_key 0, every
  // grant solo. The policy must degrade to plain FCFS+backfill without
  // touching the math.
  run_scenario({bt_opt(), lora_adapter(), ServingMode::MenosOnDemand},
               /*expect_groups=*/false);
}

TEST(Batching, Int8CodecSurvivesFusedRepliesOverTcp) {
  // Fused replies must carry each member's negotiated codec exactly like
  // solo replies do: over a real socket an Int8 session coalesced into a
  // group must decode the same quantized floats as its solo FCFS run (an
  // f32 fused reply would be 4x the bytes and train a different curve).
  Scenario sc{bt_opt(), prefix_adapter(), ServingMode::MenosOnDemand};
  sc.codec = net::ActivationCodec::Int8;
  sc.tcp = true;
  run_scenario(sc, /*expect_groups=*/true);
}

TEST(Batching, BatchMaxGroupCapsFusedGroupSize) {
  // ServerConfig::batch_max_group bounds how many clients one fused pass
  // may cover: with a cap of 2 every coalesced group has exactly 2 members
  // (>= 2 by definition, <= 2 by the cap). Numerics must be unaffected.
  LossCurves reference;
  const Scenario sc{bt_opt(), prefix_adapter(), ServingMode::MenosOnDemand};
  {
    Rig rig(sc, sched::Policy::FcfsBackfill);
    reference = drive(rig, /*concurrent=*/false, /*expect_groups=*/true);
  }
  Rig rig(sc, sched::Policy::CoalescedBatch);
  rig.server->scheduler().set_max_group_size(2);
  const LossCurves loaded = drive(rig, /*concurrent=*/true,
                                  /*expect_groups=*/true);
  expect_identical(loaded, reference);
  const sched::SchedulerStats ss = rig.server->scheduler().stats();
  EXPECT_GT(ss.coalesced_groups, 0u);
  EXPECT_EQ(ss.coalesced_members, 2 * ss.coalesced_groups);
}

}  // namespace menos::core
