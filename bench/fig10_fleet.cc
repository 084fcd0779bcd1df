// Fleet scaling tracker (extends Fig 10 to live multi-GPU serving):
// sessions/sec for 256 concurrent WAN clients against a fleet of 1/2/4
// single-GPU shards, a placement-policy ablation at 4 shards, and a
// migrated-session bit-identity check. Emits BENCH_fleet.json (or argv[1]).
//
// The workload is memory-bound by construction, matching the paper's
// premise: MenosReleaseAfterBackward holds each session's iteration
// allocation across the client's gradient round trip, and the uplink
// conditioner puts that round trip at WAN latency — so a shard's GPU
// capacity, not its compute, caps how many sessions make progress at once.
// Per-shard capacity is calibrated so ONE shard admits only ~2 concurrent
// iterations at 256 resident sessions; each added shard both spreads the
// persistent A+O load and brings fresh schedulable bytes, so throughput
// scales with GPU count. Uplink latency is paid in the sender's (client
// driver) thread, so the single-core server container never sleeps on the
// serving path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "fleet/fleet.h"
#include "net/link.h"
#include "net/transport.h"

namespace {

using namespace menos;

constexpr int kSessions = 256;
constexpr int kStepsPerSession = 2;
constexpr int kDrivers = 64;
constexpr double kUplinkLatencyS = 0.025;

nn::TransformerConfig bench_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  return c;
}

core::ClientOptions bench_options(std::uint64_t adapter_seed) {
  core::ClientOptions options;
  options.finetune.model = bench_model();
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.adapter_seed = adapter_seed;
  options.base_seed = 42;
  options.retry.time_scale = 0.0;
  return options;
}

data::DataLoader bench_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 5).text), 2, 8, seed);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Calibration {
  std::size_t store_bytes = 0;       ///< base model resident per shard
  std::size_t persistent_bytes = 0;  ///< per-session A + O reservation
  std::size_t iteration_bytes = 0;   ///< held across forward..backward
};

/// Measure, on a throwaway single server with ample memory, what one
/// session costs: its persistent reservation and the allocation it holds
/// across an iteration (sampled while a slow uplink keeps the iteration
/// open). These sizes set per-shard GPU capacity below.
Calibration calibrate() {
  Calibration cal;
  gpusim::DeviceManager devices(1, 2ull << 30);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosReleaseAfterBackward;
  config.base_seed = 42;
  net::LinkProfile uplink;
  uplink.up.latency_s = 0.05;
  net::InprocAcceptor acceptor;
  core::Server server(config, devices, bench_model());
  cal.store_bytes = devices.gpu(0).allocated();
  server.start(acceptor);

  const std::size_t idle = server.scheduler().total_available();
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(bench_options(1), acceptor.connect(uplink), cd.gpu(0));
  client.connect();
  cal.persistent_bytes = idle - server.scheduler().total_available();

  const std::size_t resident = server.scheduler().total_available();
  std::atomic<std::size_t> low{resident};
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::size_t now = server.scheduler().total_available();
      std::size_t prev = low.load();
      while (now < prev && !low.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  auto loader = bench_loader(2);
  client.train_step(loader.next());
  sampling.store(false);
  sampler.join();
  cal.iteration_bytes = resident - low.load();
  client.disconnect();
  server.stop();
  return cal;
}

fleet::FleetConfig throughput_config(int shards, const Calibration& cal,
                                     const std::string& policy) {
  fleet::FleetConfig fc;
  fc.server.mode = core::ServingMode::MenosReleaseAfterBackward;
  fc.server.base_seed = 42;
  fc.shards = shards;
  fc.policy = policy;
  // Same GPU size at every shard count (adding shards adds capacity): room
  // for the base model, all kSessions sessions' A + O landing on one shard
  // in the worst case, and ~2 in-flight iterations.
  fc.gpu_bytes_per_shard =
      cal.store_bytes +
      static_cast<std::size_t>(kSessions) * cal.persistent_bytes +
      2 * cal.iteration_bytes + (1u << 16);
  return fc;
}

struct Point {
  int shards = 0;
  std::string policy;
  double elapsed_s = 0.0;
  double sessions_per_sec = 0.0;
  int placement_spread = 0;  ///< max - min sessions placed per shard
};

/// kSessions clients (connect, kStepsPerSession train steps, disconnect)
/// through the fleet's router, driven by kDrivers client threads. Wall
/// time covers the full session lifecycle.
Point measure(int shards, const std::string& policy, const Calibration& cal,
              int steps) {
  fleet::Fleet fleet(throughput_config(shards, cal, policy), bench_model());
  net::LinkProfile uplink;
  uplink.up.latency_s = kUplinkLatencyS;
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);

  // Three barrier-separated phases, all inside the measured window. The
  // handshake phase runs before any training so every session's persistent
  // A + O reservation lands while backfill grants are not yet competing
  // for the partition (admission-then-serve, as a real fleet would drain a
  // connect burst).
  const double t0 = now_seconds();
  std::vector<std::unique_ptr<gpusim::DeviceManager>> cds(kSessions);
  std::vector<std::unique_ptr<core::Client>> clients(kSessions);
  auto run_drivers = [](const std::function<void(int)>& body) {
    std::vector<std::thread> drivers;
    drivers.reserve(kDrivers);
    for (int t = 0; t < kDrivers; ++t) {
      drivers.emplace_back([&body, t] {
        for (int c = t; c < kSessions; c += kDrivers) body(c);
      });
    }
    for (auto& d : drivers) d.join();
  };
  run_drivers([&](int c) {
    cds[static_cast<std::size_t>(c)] =
        std::make_unique<gpusim::DeviceManager>(1, 64u << 20);
    clients[static_cast<std::size_t>(c)] = std::make_unique<core::Client>(
        bench_options(1000 + static_cast<std::uint64_t>(c)),
        acceptor.connect(uplink), cds[static_cast<std::size_t>(c)]->gpu(0));
    clients[static_cast<std::size_t>(c)]->connect();
  });
  run_drivers([&](int c) {
    auto loader = bench_loader(static_cast<std::uint64_t>(c));
    for (int s = 0; s < steps; ++s) {
      clients[static_cast<std::size_t>(c)]->train_step(loader.next());
    }
  });
  run_drivers(
      [&](int c) { clients[static_cast<std::size_t>(c)]->disconnect(); });
  const double elapsed = now_seconds() - t0;

  Point p;
  p.shards = shards;
  p.policy = policy;
  p.elapsed_s = elapsed;
  p.sessions_per_sec = kSessions / elapsed;
  const std::vector<int> placed = fleet.router().placements();
  const auto [lo, hi] = std::minmax_element(placed.begin(), placed.end());
  p.placement_spread = *hi - *lo;
  fleet.stop();
  return p;
}

/// Bit-identity: the same client schedule on a standalone server vs a
/// 2-shard fleet with a forced mid-run migration.
bool migration_bit_identical(int rounds, int move_after, int* resumes_out) {
  std::vector<double> baseline;
  {
    gpusim::DeviceManager devices(1, 256u << 20);
    core::ServerConfig config;
    config.base_seed = 42;
    config.lease_seconds = 30.0;
    core::Server server(config, devices, bench_model());
    net::InprocAcceptor acceptor;
    server.start(acceptor);
    gpusim::DeviceManager cd(1, 256u << 20);
    core::Client client(bench_options(7), acceptor.connect(), cd.gpu(0));
    client.connect();
    auto loader = bench_loader(8);
    for (int i = 0; i < rounds; ++i) {
      baseline.push_back(client.train_step(loader.next()).loss);
    }
    client.disconnect();
    server.stop();
  }

  fleet::FleetConfig fc;
  fc.server.base_seed = 42;
  fc.server.lease_seconds = 30.0;
  fc.shards = 2;
  fc.gpu_bytes_per_shard = 256u << 20;
  fleet::Fleet fleet(fc, bench_model());
  net::InprocAcceptor acceptor;
  fleet.start(acceptor);
  net::Dialer dialer = [&acceptor] { return acceptor.connect(); };
  gpusim::DeviceManager cd(1, 256u << 20);
  core::Client client(bench_options(7), dialer(), cd.gpu(0), dialer);
  client.connect();
  const std::uint64_t token = client.session_token();
  const int src = fleet.router().shard_of(token);
  auto loader = bench_loader(8);
  std::vector<double> losses;
  for (int i = 0; i < rounds; ++i) {
    if (i == move_after) {
      for (int attempt = 0; attempt < 200; ++attempt) {
        if (fleet.migrate_session(token, 1 - src)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    losses.push_back(client.train_step(loader.next()).loss);
  }
  if (resumes_out != nullptr) {
    *resumes_out = static_cast<int>(client.resumes());
  }
  client.disconnect();
  fleet.stop();

  if (losses.size() != baseline.size()) return false;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    if (losses[i] != baseline[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_fleet.json");

  const Calibration cal = calibrate();
  std::printf(
      "fig10_fleet: store=%zu B  per-session A+O=%zu B  iteration=%zu B\n",
      cal.store_bytes, cal.persistent_bytes, cal.iteration_bytes);

  std::vector<Point> scaling;
  for (int shards : {1, 2, 4}) {
    const Point p = measure(shards, "least-loaded", cal, kStepsPerSession);
    std::printf("shards=%d  %7.2f sessions/s  (%.2f s)  spread=%d%s\n",
                p.shards, p.sessions_per_sec, p.elapsed_s, p.placement_spread,
                shards == 1 ? ""
                            : "  [speedup vs 1: see JSON]");
    scaling.push_back(p);
  }
  const double base_rate = scaling[0].sessions_per_sec;

  std::vector<Point> ablation;
  for (const char* policy :
       {"round-robin", "least-loaded", "power-of-two", "adapter-affinity"}) {
    const Point p = measure(4, policy, cal, 1);
    std::printf("policy=%-16s  %7.2f sessions/s  spread=%d\n", policy,
                p.sessions_per_sec, p.placement_spread);
    ablation.push_back(p);
  }

  int resumes = 0;
  const bool identical = migration_bit_identical(10, 4, &resumes);
  std::printf("migration bit-identical: %s (resumes=%d)\n",
              identical ? "yes" : "NO", resumes);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig10_fleet\",\n");
  menos::bench::write_environment(f);
  std::fprintf(f, "  \"sessions\": %d,\n  \"steps_per_session\": %d,\n",
               kSessions, kStepsPerSession);
  std::fprintf(f, "  \"uplink_latency_ms\": %.1f,\n",
               kUplinkLatencyS * 1000.0);
  std::fprintf(f,
               "  \"calibration\": {\"store_bytes\": %zu, "
               "\"session_persistent_bytes\": %zu, "
               "\"iteration_bytes\": %zu},\n",
               cal.store_bytes, cal.persistent_bytes, cal.iteration_bytes);
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const Point& p = scaling[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"sessions_per_sec\": %.2f, "
                 "\"elapsed_s\": %.3f, \"speedup_vs_1\": %.2f}%s\n",
                 p.shards, p.sessions_per_sec, p.elapsed_s,
                 p.sessions_per_sec / base_rate,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"policy_ablation\": [\n");
  for (std::size_t i = 0; i < ablation.size(); ++i) {
    const Point& p = ablation[i];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"sessions_per_sec\": %.2f, "
                 "\"placement_spread\": %d}%s\n",
                 p.policy.c_str(), p.sessions_per_sec, p.placement_spread,
                 i + 1 < ablation.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"migration\": {\"rounds\": 10, \"moved_after\": 4, "
               "\"bit_identical\": %s, \"client_resumes\": %d}\n}\n",
               identical ? "true" : "false", resumes);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
