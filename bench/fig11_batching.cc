// Cross-client batched trunk compute: sessions/sec for a population of
// compatible clients under Policy::CoalescedBatch vs plain FCFS+backfill
// (docs/ARCHITECTURE.md "Cross-client batched trunk compute", docs/PERF.md).
//
// Each point runs N in-proc clients (one driver thread each, lockstep
// waves of one training step) against a fresh server whose schedulable
// pool is gated to 16 demands per phase. Under FCFS that pool bounds
// concurrency and every trunk pass walks the blocks for one client;
// under CoalescedBatch the same queue coalesces into fused passes of up
// to 16 clients, so the trunk's per-pass fixed costs — tape
// construction, dispatch, panel packing — are paid once per GROUP. The
// speedup column is the headline.
//
// Emits BENCH_batching.json (or argv[1]). With `--check-floor <x>` the
// process exits 1 if the speedup at the LARGEST client count falls below
// x — the CI regression gate for the batching path.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "net/transport.h"
#include "sched/scheduler.h"

namespace {

using namespace menos;

// A single-threaded executor computes every grant inline before the next
// request is even parsed, so the scheduler would never see two waiting
// requests no matter the memory pressure. Four workers keep request intake
// flowing while grants compute.
constexpr int kExecutorThreads = 4;

// Deep trunk on purpose: the server hosts blocks [1, n_layers), so the
// fused pass amortizes twenty-three blocks of per-pass fixed cost per group
// while the client-side share (embedding, one block, head, optimizer)
// stays constant.
nn::TransformerConfig bench_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 24;
  return c;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reusable lockstep barrier (drivers + the coordinating main thread).
class WaveBarrier {
 public:
  explicit WaveBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

struct Point {
  int clients = 0;
  double fcfs_sessions_per_sec = 0.0;
  double coalesced_sessions_per_sec = 0.0;
  double speedup = 0.0;
  std::uint64_t groups = 0;
  std::uint64_t members = 0;
};

/// One policy, N clients, one training step each. Connect/profile happen
/// outside the timed window; the measurement is the stepping phase only.
double measure(sched::Policy policy, int count, std::uint64_t* groups,
               std::uint64_t* members) {
  gpusim::DeviceManager devices(1, 256u << 20);
  gpusim::DeviceManager client_devices(1, 2ull << 30);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.sched_policy = policy;
  config.base_seed = 42;
  config.executor_threads = kExecutorThreads;
  net::InprocAcceptor acceptor;
  core::Server server(config, devices, bench_model());
  server.start(acceptor);

  std::vector<std::unique_ptr<core::Client>> clients;
  clients.reserve(static_cast<std::size_t>(count));
  const auto connect_one = [&](int c) {
    core::ClientOptions options;
    options.finetune.model = bench_model();
    // Prefix adapters leave the trunk frozen (the prefix rows live in the
    // client's input section), so the whole population shares one batch
    // key — the canonical coalescible workload. The default (LoRA) would
    // pin every client to batch key 0.
    options.finetune.adapter.type = nn::AdapterType::Prefix;
    options.finetune.adapter.prefix_len = 2;
    // Small per-client passes (4 activation rows) are the regime batching
    // targets: per-pass fixed costs — tape construction, dispatch, packing
    // — dominate, and one fused 64-row pass amortizes them 16 ways.
    options.finetune.batch_size = 1;
    options.finetune.seq_len = 2;
    options.finetune.adapter_seed = 1000 + static_cast<std::uint64_t>(c);
    options.base_seed = 42;
    clients.push_back(std::make_unique<core::Client>(
        options, acceptor.connect(), client_devices.gpu(0)));
    clients.back()->connect();
  };

  for (int c = 0; c < count; ++c) connect_one(c);
  const std::size_t fwd = clients[0]->server_forward_bytes();
  const std::size_t bwd = clients[0]->server_backward_bytes();
  const std::size_t avail = server.scheduler().available();
  sched::Scheduler& sched = server.scheduler();

  // Lockstep waves with a scheduler-level gate, applied IDENTICALLY to
  // both policies: each wave opens with the whole pool reserved so every
  // forward queues, then the pool is released to 16 forward demands
  // (forwards flow 16 wide — fused groups of 16 under CoalescedBatch, 16
  // concurrent solos under FCFS). A backward demand exceeds that pool, so
  // backwards self-gate; widening to 16 backward demands drains them the
  // same way. This removes arrival timing from the measurement entirely:
  // both policies face the same queue, and the delta is purely
  // one-fused-pass-per-group vs one-trunk-pass-per-client.
  const std::size_t kGroup = 16;
  const std::size_t fwd_pool = fwd * kGroup;
  const std::size_t bwd_pool = bwd * kGroup;
  if (bwd <= fwd_pool || bwd_pool > avail) {
    std::fprintf(stderr,
                 "fig11_batching: demands do not self-gate "
                 "(fwd=%zu bwd=%zu avail=%zu); results not comparable\n",
                 fwd, bwd, avail);
  }
  std::size_t reserved = 0;
  const auto set_free = [&](std::size_t target_free) {
    const std::size_t target_reserved =
        avail > target_free ? avail - target_free : 0;
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

  constexpr int kWaves = 3;
  WaveBarrier barrier(count + 1);
  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    drivers.emplace_back([&, c] {
      data::CharTokenizer tok;
      data::DataLoader loader(
          tok.encode(data::make_shakespeare_like(2000, 3).text), 1, 2,
          static_cast<std::uint64_t>(c));
      for (int w = 0; w < kWaves; ++w) {
        barrier.arrive_and_wait();
        clients[static_cast<std::size_t>(c)]->train_step(loader.next());
        barrier.arrive_and_wait();
      }
    });
  }

  const double t0 = now_seconds();
  std::uint64_t seen_requests = sched.stats().requests;
  for (int w = 0; w < kWaves; ++w) {
    set_free(0);
    barrier.arrive_and_wait();  // wave opens; every forward queues
    seen_requests += static_cast<std::uint64_t>(count);
    if (!requests_reach(seen_requests)) {
      std::fprintf(stderr, "fig11_batching: wave %d forwards stalled\n", w);
    }
    set_free(fwd_pool);
    seen_requests += static_cast<std::uint64_t>(count);
    if (!requests_reach(seen_requests)) {
      std::fprintf(stderr, "fig11_batching: wave %d backwards stalled\n", w);
    }
    set_free(bwd_pool);
    barrier.arrive_and_wait();  // wave closes: every reply delivered
  }
  const double elapsed = now_seconds() - t0;
  for (auto& d : drivers) d.join();
  set_free(avail);

  const sched::SchedulerStats ss = server.scheduler().stats();
  *groups = ss.coalesced_groups;
  *members = ss.coalesced_members;
  for (auto& c : clients) c->disconnect();
  server.stop();
  return static_cast<double>(count) * kWaves / elapsed;
}

Point run_point(int count) {
  Point p;
  p.clients = count;
  std::uint64_t g = 0;
  std::uint64_t m = 0;
  p.fcfs_sessions_per_sec = measure(sched::Policy::FcfsBackfill, count, &g, &m);
  p.coalesced_sessions_per_sec =
      measure(sched::Policy::CoalescedBatch, count, &p.groups, &p.members);
  p.speedup = p.coalesced_sessions_per_sec / p.fcfs_sessions_per_sec;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_batching.json";
  double floor = 0.0;
  if (!menos::bench::parse_gate_args(argc, argv, &out_path, &floor)) return 2;

  std::printf("fig11_batching: hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());
  std::vector<Point> points;
  for (int count : {8, 32, 128}) {
    const Point p = run_point(count);
    std::printf(
        "clients=%4d  fcfs %8.2f sessions/s   coalesced %8.2f sessions/s  "
        "(%.2fx, %llu groups / %llu members)\n",
        p.clients, p.fcfs_sessions_per_sec, p.coalesced_sessions_per_sec,
        p.speedup, static_cast<unsigned long long>(p.groups),
        static_cast<unsigned long long>(p.members));
    points.push_back(p);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig11_batching\",\n");
  menos::bench::write_environment(f, kExecutorThreads);
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"fcfs_sessions_per_sec\": %.2f, "
                 "\"coalesced_sessions_per_sec\": %.2f, \"speedup\": %.3f, "
                 "\"coalesced_groups\": %llu, \"coalesced_members\": %llu}%s\n",
                 p.clients, p.fcfs_sessions_per_sec,
                 p.coalesced_sessions_per_sec, p.speedup,
                 static_cast<unsigned long long>(p.groups),
                 static_cast<unsigned long long>(p.members),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (floor > 0.0) {
    const double last = points.back().speedup;
    if (last < floor) {
      std::fprintf(stderr,
                   "FAIL: speedup %.3fx at %d clients is below the floor "
                   "%.2fx\n",
                   last, points.back().clients, floor);
      return 1;
    }
    std::printf("floor check passed: %.3fx >= %.2fx at %d clients\n", last,
                floor, points.back().clients);
  }
  return 0;
}
