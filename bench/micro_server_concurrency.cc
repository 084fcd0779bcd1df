// Serving-core concurrency tracker (not a paper figure): sessions/sec and
// peak OS-thread count as the client count scales, for the event-driven
// executor core (docs/ARCHITECTURE.md).
//
// Emits BENCH_server_concurrency.json (or argv[1]). Each point runs N
// in-proc clients — connect, one training step each, disconnect — against a
// fresh server and reports wall time, session throughput, and the peak
// "Threads:" value from /proc/self/status (sampled at 5 ms).
//
// The JSON also records the pre-refactor thread-per-client baseline for the
// same workload. Those numbers were measured once, at the last commit that
// still had the thread-per-session serving core, by compiling this same
// measurement loop against that tree (see "baseline_source"); they are
// constants here because the architecture they measure no longer exists in
// this tree. The headline contrast is peak_os_threads: O(clients) before
// (530 threads at 512 clients), O(executor width) now.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "net/transport.h"

namespace {

using namespace menos;

nn::TransformerConfig bench_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  return c;
}

int os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Point {
  int clients = 0;
  double sessions_per_sec = 0.0;
  int peak_os_threads = 0;
  double elapsed_s = 0.0;
};

/// N sessions against a fresh server: connect all, one train step each
/// (16 driver threads), disconnect all. Driver threads are client-side
/// load generation; the server side runs on its fixed executor.
Point measure(int count) {
  gpusim::DeviceManager devices(1, 2ull << 30);
  gpusim::DeviceManager client_devices(1, 2ull << 30);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  net::InprocAcceptor acceptor;
  core::Server server(config, devices, bench_model());
  server.start(acceptor);

  std::atomic<bool> sampling{true};
  std::atomic<int> peak{os_thread_count()};
  std::thread sampler([&] {
    while (sampling.load()) {
      const int n = os_thread_count();
      int prev = peak.load();
      while (n > prev && !peak.compare_exchange_weak(prev, n)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const double t0 = now_seconds();
  std::vector<std::unique_ptr<core::Client>> clients;
  clients.reserve(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    core::ClientOptions options;
    options.finetune.model = bench_model();
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.adapter_seed = 1000 + static_cast<std::uint64_t>(c);
    options.base_seed = 42;
    clients.push_back(std::make_unique<core::Client>(
        options, acceptor.connect(), client_devices.gpu(0)));
    clients.back()->connect();
  }

  const int drivers_n = 16;
  std::vector<std::thread> drivers;
  drivers.reserve(drivers_n);
  for (int t = 0; t < drivers_n; ++t) {
    drivers.emplace_back([&, t] {
      data::CharTokenizer tok;
      for (int c = t; c < count; c += drivers_n) {
        data::DataLoader loader(
            tok.encode(data::make_shakespeare_like(2000, 3).text), 2, 8,
            static_cast<std::uint64_t>(c));
        clients[static_cast<std::size_t>(c)]->train_step(loader.next());
      }
    });
  }
  for (auto& d : drivers) d.join();
  for (auto& c : clients) c->disconnect();
  const double elapsed = now_seconds() - t0;

  sampling.store(false);
  sampler.join();
  server.stop();

  Point p;
  p.clients = count;
  p.elapsed_s = elapsed;
  p.sessions_per_sec = count / elapsed;
  p.peak_os_threads = peak.load();
  return p;
}

/// Thread-per-client numbers for the identical workload, measured once at
/// commit "Add fault-tolerant WAN runtime" (the last thread-per-session
/// tree) on the same container class this bench targets.
constexpr Point kThreadPerClientBaseline[] = {
    {8, 324.30, 19, 0.025},
    {32, 410.91, 51, 0.078},
    {128, 426.38, 147, 0.300},
    {512, 269.59, 530, 1.899},
};

void json_point(std::FILE* f, const Point& p) {
  std::fprintf(f,
               "    {\"clients\": %d, \"sessions_per_sec\": %.2f, "
               "\"peak_os_threads\": %d, \"elapsed_s\": %.3f}",
               p.clients, p.sessions_per_sec, p.peak_os_threads, p.elapsed_s);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_server_concurrency.json");
  std::printf("micro_server_concurrency: hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());

  std::vector<Point> points;
  for (int count : {8, 32, 128, 512}) {
    const Point p = measure(count);
    std::printf(
        "clients=%4d  %8.2f sessions/s  peak_threads=%4d  (%.3f s)   "
        "[thread-per-client baseline: peak_threads=%d]\n",
        p.clients, p.sessions_per_sec, p.peak_os_threads, p.elapsed_s,
        kThreadPerClientBaseline[points.size()].peak_os_threads);
    points.push_back(p);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_server_concurrency\",\n");
  menos::bench::write_environment(f);
  std::fprintf(f, "  \"executor\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    json_point(f, points[i]);
    std::fprintf(f, i + 1 < points.size() ? ",\n" : "\n");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"baseline_source\": \"thread-per-session serving core, "
               "measured at the pre-refactor commit with this same "
               "measurement loop\",\n");
  std::fprintf(f, "  \"thread_per_client\": [\n");
  const std::size_t n =
      sizeof(kThreadPerClientBaseline) / sizeof(kThreadPerClientBaseline[0]);
  for (std::size_t i = 0; i < n; ++i) {
    json_point(f, kThreadPerClientBaseline[i]);
    std::fprintf(f, i + 1 < n ? ",\n" : "\n");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
