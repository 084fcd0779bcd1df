// Event-driven serving core under load (docs/ARCHITECTURE.md): many
// concurrent in-proc clients multiplexed onto a small shared executor must
// produce exactly the training trajectories of an unloaded server, leave
// the scheduler balanced, and return every byte of GPU memory.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/executor.h"
#include "core/server.h"
#include "data/dataset.h"
#include "net/transport.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "util/mutex.h"

namespace menos::core {
namespace {

nn::TransformerConfig cc_model() {
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
    // Pin the executor width so the test exercises real multiplexing (many
    // sessions per worker) — unless CI already forces a width through the
    // environment (the TSan leg runs with MENOS_EXECUTOR_THREADS=2).
    config.executor_threads =
        std::getenv("MENOS_EXECUTOR_THREADS") != nullptr ? 0 : 4;
    server = std::make_unique<Server>(config, devices, cc_model());
    server->start(acceptor);
  }
  ~Rig() {
    if (server != nullptr) server->stop();
  }

  std::unique_ptr<Client> client(std::uint64_t seed) {
    ClientOptions options;
    options.finetune.model = cc_model();
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.adapter_seed = seed;
    options.base_seed = 42;
    auto c = std::make_unique<Client>(options, acceptor.connect(),
                                      client_devices.gpu(0));
    c->connect();
    return c;
  }

  gpusim::DeviceManager devices;
  gpusim::DeviceManager client_devices{1, 1u << 30};
  ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<Server> server;
};

data::DataLoader cc_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 3).text), 2, 8, seed);
}

constexpr int kClients = 128;
constexpr int kSteps = 2;
constexpr int kDriverThreads = 8;

/// Each client's loss trajectory is a pure function of its adapter seed and
/// data seed — scheduling order must never leak into the math.
using LossCurves = std::vector<std::vector<double>>;

}  // namespace

TEST(Concurrency, ManyClientsMatchUnloadedLossCurvesExactly) {
  // Reference: the same 128 fine-tuning jobs, one client connected at a
  // time against a fresh server (zero scheduler contention).
  LossCurves reference(kClients);
  {
    Rig rig(ServingMode::MenosOnDemand);
    for (int c = 0; c < kClients; ++c) {
      auto client = rig.client(1000 + static_cast<std::uint64_t>(c));
      auto loader = cc_loader(static_cast<std::uint64_t>(c));
      for (int s = 0; s < kSteps; ++s) {
        reference[static_cast<std::size_t>(c)].push_back(
            client->train_step(loader.next()).loss);
      }
      client->disconnect();
    }
  }

  // Load: all 128 sessions live at once, steps interleaved by 8 driver
  // threads, the server side multiplexed onto a 4-worker executor (the
  // session count exceeds the worker count 32x).
  LossCurves loaded(kClients);
  Rig rig(ServingMode::MenosOnDemand);
  ASSERT_LE(rig.server->executor().width(), 8);
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(rig.client(1000 + static_cast<std::uint64_t>(c)));
  }
  EXPECT_EQ(rig.server->session_count(), kClients);

  std::vector<std::thread> drivers;
  drivers.reserve(kDriverThreads);
  for (int t = 0; t < kDriverThreads; ++t) {
    drivers.emplace_back([&, t] {
      for (int c = t; c < kClients; c += kDriverThreads) {
        auto loader = cc_loader(static_cast<std::uint64_t>(c));
        for (int s = 0; s < kSteps; ++s) {
          loaded[static_cast<std::size_t>(c)].push_back(
              clients[static_cast<std::size_t>(c)]->train_step(loader.next())
                  .loss);
        }
      }
    });
  }
  for (auto& d : drivers) d.join();

  // Bit-identical, not approximately equal: the refactor from
  // thread-per-session to state machines must not perturb a single ULP.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(loaded[static_cast<std::size_t>(c)].size(),
              reference[static_cast<std::size_t>(c)].size());
    for (int s = 0; s < kSteps; ++s) {
      EXPECT_EQ(loaded[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)],
                reference[static_cast<std::size_t>(c)]
                         [static_cast<std::size_t>(s)])
          << "client " << c << " step " << s;
    }
  }

  // Scheduler ledger: every request granted (forward + backward per step),
  // nothing left waiting, and FCFS/backfill counters internally sane.
  const sched::SchedulerStats stats = rig.server->scheduler().stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients) * kSteps * 2);
  EXPECT_EQ(stats.grants, stats.requests);
  EXPECT_LE(stats.backfill_grants, stats.grants);
  EXPECT_EQ(rig.server->scheduler().waiting_count(), 0u);

  for (auto& client : clients) client->disconnect();
  clients.clear();  // client-side halves release their device memory
  rig.server->stop();
  EXPECT_EQ(rig.server->session_count(), 0);

  // Teardown accounting: destroying the server must return every GPU byte
  // (base model included) to the metered device.
  rig.server.reset();
  EXPECT_EQ(rig.devices.gpu(0).allocated(), 0u);
  EXPECT_EQ(rig.client_devices.gpu(0).allocated(), 0u);
}

TEST(Concurrency, SharedWeightPanelsSurviveRacingFirstUse) {
  // Eight sessions' first rounds race on one shared frozen weight: each
  // thread may pack its panels, exactly one per orientation is published,
  // and every thread's forward and dX equal the per-call-packed products.
  // Each thread holds a lock of the server's profiling class, as a
  // session's first (profiled) forward does, so the packing path must take
  // no lock that ranks before it (MENOS_DEADLOCK_DETECT builds check).
  constexpr int kThreads = 8;
  auto host = gpusim::make_host_device("panels");
  util::Rng rng(3);
  tensor::Tensor weight = tensor::Tensor::empty({96, 160}, *host);
  rng.fill_normal(weight.data(), static_cast<std::size_t>(weight.numel()),
                  0.1f);
  const tensor::Tensor per_call = weight.clone();  // unsealed
  weight.seal();

  struct Round {
    tensor::Tensor x;
    std::vector<float> out, dx;
  };
  const auto run = [](Round& r, const tensor::Tensor& w) {
    r.x.zero_grad();
    tensor::Tensor y = tensor::matmul(r.x, w);
    tensor::backward(tensor::sum(y));
    r.out = y.to_vector();
    r.dx = r.x.grad().to_vector();
  };
  std::vector<Round> want(kThreads), got(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    tensor::Tensor x = tensor::Tensor::empty({3, 7, 96}, *host, true);
    rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 1.0f);
    want[static_cast<std::size_t>(i)].x = x;
    got[static_cast<std::size_t>(i)].x = x;
    run(want[static_cast<std::size_t>(i)], per_call);
  }

  const std::size_t before = tensor::panel_builds();
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      util::Mutex profiling("core.server.profiling", 14);
      util::MutexLock hold(profiling);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      run(got[static_cast<std::size_t>(i)], weight);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(tensor::panel_builds() - before, 2u);
  const auto same = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (int i = 0; i < kThreads; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_TRUE(same(got[u].out, want[u].out)) << "thread " << i;
    EXPECT_TRUE(same(got[u].dx, want[u].dx)) << "thread " << i;
  }
}

TEST(Concurrency, ExecutorWidthResolution) {
  const char* saved = std::getenv("MENOS_EXECUTOR_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("MENOS_EXECUTOR_THREADS");

  // Explicit configuration wins; <= 0 falls back to the environment, then
  // to min(8, hardware_concurrency).
  EXPECT_EQ(Executor::resolve_width(3), 3);
  const int ambient = Executor::resolve_width(0);
  EXPECT_GE(ambient, 1);
  EXPECT_LE(ambient, 8);
  ::setenv("MENOS_EXECUTOR_THREADS", "5", 1);
  EXPECT_EQ(Executor::resolve_width(0), 5);
  EXPECT_EQ(Executor::resolve_width(2), 2);
  ::setenv("MENOS_EXECUTOR_THREADS", "0", 1);
  EXPECT_EQ(Executor::resolve_width(0), ambient);
  ::setenv("MENOS_EXECUTOR_THREADS", "", 1);
  EXPECT_EQ(Executor::resolve_width(0), ambient);

  // Anything but a whole non-negative integer is rejected, naming the
  // variable, rather than read as a prefix ("3x" -> 3) or as 0 ("abc").
  for (const char* bad : {"abc", "3x", "-1"}) {
    ::setenv("MENOS_EXECUTOR_THREADS", bad, 1);
    try {
      Executor::resolve_width(0);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("MENOS_EXECUTOR_THREADS"),
                std::string::npos)
          << e.what();
    }
  }

  if (saved != nullptr) {
    ::setenv("MENOS_EXECUTOR_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("MENOS_EXECUTOR_THREADS");
  }
}

}  // namespace menos::core
