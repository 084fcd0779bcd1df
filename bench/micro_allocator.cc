// Allocator throughput tracker (not a paper figure): the metered device on
// a steady-state, a churn and a contended workload.
//
// The meter keeps freed blocks for the next request of the same byte
// count, so its steady-state time is a few atomics and a cache lookup per
// call, not the host page faults of re-backing every block each round.
// Churn draws sizes at random, so almost no request finds an idle block of
// its exact size: it is the case exact-size recycling does not serve.
// Contended is many sessions sharing one GPU: 4 threads replay
// memory_pressure's per-round size mix on one SimGpu, timed interleaved
// against plain ::operator new/delete running the same sequence.
//
// Usage: micro_allocator [out.json] [--check-floor R]. Emits
// BENCH_allocator.json (or the given path); docs/MEMORY.md explains how to
// read it. `--check-floor R` exits 1 unless the contended meter runs at
// least R times as fast as the plain heap (heap ms / meter ms >= R).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gpusim/device.h"
#include "util/rng.h"

namespace {

using menos::gpusim::Device;

constexpr std::size_t kCapacity = 64u << 20;
constexpr int kReps = 3;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-state training loop: the same eight tensor sizes allocated and
/// freed every round, the regime exact-size recycling serves entirely.
std::uint64_t steady_state(Device& d) {
  static constexpr std::size_t kSizes[] = {
      16u << 10,        48u << 10, 200u << 10, 512u << 10,
      768u << 10,       (1u << 20) + 4096,     (2u << 20) + 64,
      3u << 20};
  constexpr int kRounds = 400;
  std::vector<void*> live;
  live.reserve(std::size(kSizes));
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t s : kSizes) live.push_back(d.allocate(s));
    for (std::size_t i = 0; i < live.size(); ++i) {
      d.deallocate(live[i], kSizes[i]);
    }
    live.clear();
  }
  return 2ull * std::size(kSizes) * kRounds;
}

/// Randomized churn: interleaved alloc/free with a mixed small/large size
/// distribution, so freed blocks rarely match a later request. Deterministic.
std::uint64_t churn(Device& d) {
  constexpr int kSteps = 20000;
  constexpr std::size_t kLiveLimit = 24u << 20;
  menos::util::Rng rng(0xbe7c);
  std::vector<std::pair<void*, std::size_t>> live;
  std::size_t live_bytes = 0;
  std::uint64_t ops = 0;
  for (int step = 0; step < kSteps; ++step) {
    const bool alloc =
        live.empty() ||
        (live_bytes < kLiveLimit && rng.next_below(100) < 55);
    if (alloc) {
      const std::size_t bytes = rng.next_below(10) < 9
                                    ? 1 + rng.next_below(128u << 10)
                                    : (1u << 20) + rng.next_below(2u << 20);
      live.emplace_back(d.allocate(bytes), bytes);
      live_bytes += bytes;
    } else {
      const std::size_t i = rng.next_below(live.size());
      d.deallocate(live[i].first, live[i].second);
      live_bytes -= live[i].second;
      live[i] = live.back();
      live.pop_back();
    }
    ++ops;
  }
  for (const auto& [ptr, bytes] : live) d.deallocate(ptr, bytes);
  return ops + live.size();
}

/// memory_pressure's server-GPU size mix for one round: tiny OPT (dim 32,
/// 6 layers, ffn 64) at batch 2 x seq 16 allocates ~296 blocks a round,
/// and of 3.9M allocations in a 2 s perfbench run 74.1% were 4096 B, 11.6%
/// 1024 B, 9.8% 8192 B and 4.6% 128 B; nothing else.
constexpr std::pair<std::size_t, int> kPressureMix[] = {
    {4096, 219}, {1024, 34}, {8192, 29}, {128, 14}};
constexpr int kContendedThreads = 4;
constexpr int kContendedRounds = 400;
constexpr int kContendedReps = 7;

/// The mix in a fixed shuffled order, the same for every thread and run.
std::vector<std::size_t> pressure_round() {
  std::vector<std::size_t> sizes;
  for (const auto& [bytes, count] : kPressureMix) {
    sizes.insert(sizes.end(), static_cast<std::size_t>(count), bytes);
  }
  menos::util::Rng rng(0x5e55);
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  }
  return sizes;
}

/// One thread's rounds: a round allocates the mix in order, frees every
/// third block at once (a temporary) and keeps the rest, the way a forward
/// keeps its activations, then frees what it kept in allocation order, the
/// way a finished backward drops its graph. Each thread's peak is ~0.8 MB,
/// about one M_b of the workload. Every block is written, as a tensor is.
template <typename Alloc, typename Free>
void pressure_rounds(const std::vector<std::size_t>& round, Alloc&& alloc,
                     Free&& free) {
  std::vector<std::pair<void*, std::size_t>> kept;
  kept.reserve(round.size());
  for (int r = 0; r < kContendedRounds; ++r) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      void* p = alloc(round[i]);
      static_cast<volatile unsigned char*>(p)[0] =
          static_cast<unsigned char>(i);
      if (i % 3 == 2) {
        free(p, round[i]);
      } else {
        kept.emplace_back(p, round[i]);
      }
    }
    for (const auto& [p, bytes] : kept) free(p, bytes);
    kept.clear();
  }
}

/// Wall time of kContendedThreads threads, released together, each running
/// pressure_rounds with `alloc`/`free`.
template <typename Alloc, typename Free>
double time_contended(const std::vector<std::size_t>& round, Alloc alloc,
                      Free free) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kContendedThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      pressure_rounds(round, alloc, free);
    });
  }
  while (ready.load() < kContendedThreads) std::this_thread::yield();
  const double t0 = now_seconds();
  go.store(true);
  for (std::thread& th : threads) th.join();
  return 1e3 * (now_seconds() - t0);
}

struct ContendedResult {
  std::uint64_t ops = 0;
  double meter_ms = 0.0;  // best of kContendedReps
  double heap_ms = 0.0;   // best of kContendedReps, interleaved with meter
  std::uint64_t allocs = 0;
  double speedup() const { return meter_ms > 0.0 ? heap_ms / meter_ms : 0.0; }
};

ContendedResult contended() {
  const std::vector<std::size_t> round = pressure_round();
  ContendedResult r;
  r.ops = 2ull * round.size() * kContendedRounds * kContendedThreads;
  for (int rep = 0; rep < kContendedReps; ++rep) {
    auto gpu = menos::gpusim::make_sim_gpu("contended", kCapacity);
    const double meter_ms = time_contended(
        round, [&](std::size_t bytes) { return gpu->allocate(bytes); },
        [&](void* p, std::size_t bytes) { gpu->deallocate(p, bytes); });
    r.allocs = gpu->stats().lifetime_allocs;
    gpu.reset();
    const double heap_ms = time_contended(
        round, [](std::size_t bytes) { return ::operator new(bytes); },
        [](void* p, std::size_t) { ::operator delete(p); });
    r.meter_ms = rep == 0 ? meter_ms : std::min(r.meter_ms, meter_ms);
    r.heap_ms = rep == 0 ? heap_ms : std::min(r.heap_ms, heap_ms);
  }
  return r;
}

struct WorkloadResult {
  std::string name;
  std::uint64_t ops = 0;
  double ms = 0.0;           // best of kReps
  std::uint64_t allocs = 0;  // the meter's lifetime_allocs
};

template <typename Fn>
WorkloadResult run_workload(const std::string& name, Fn&& fn) {
  WorkloadResult r;
  r.name = name;
  for (int rep = 0; rep < kReps; ++rep) {
    auto device = menos::gpusim::make_sim_gpu("meter", kCapacity);
    const double t0 = now_seconds();
    r.ops = fn(*device);
    const double ms = 1e3 * (now_seconds() - t0);
    r.ms = rep == 0 ? ms : std::min(r.ms, ms);
    r.allocs = device->stats().lifetime_allocs;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_allocator.json";
  double floor = 0.0;
  if (!menos::bench::parse_gate_args(argc, argv, &out_path, &floor)) return 2;

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("steady_state", steady_state));
  results.push_back(run_workload("churn", churn));
  const ContendedResult con = contended();

  for (const WorkloadResult& r : results) {
    std::printf("%-12s %6llu ops  %7.3f ms  %llu allocs\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops), r.ms,
                static_cast<unsigned long long>(r.allocs));
  }
  std::printf("%-12s %6llu ops  %7.3f ms  %llu allocs  (heap %.3f ms, "
              "%.2fx the heap, %d threads)\n",
              "contended", static_cast<unsigned long long>(con.ops),
              con.meter_ms, static_cast<unsigned long long>(con.allocs),
              con.heap_ms, con.speedup(), kContendedThreads);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_allocator\",\n");
  menos::bench::write_environment(f);
  std::fprintf(f, "  \"capacity_mb\": %zu,\n",
               static_cast<std::size_t>(kCapacity >> 20));
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"ops\": %llu, \"ms\": %.3f, "
                 "\"allocs\": %llu}",
                 i == 0 ? "" : ",\n", r.name.c_str(),
                 static_cast<unsigned long long>(r.ops), r.ms,
                 static_cast<unsigned long long>(r.allocs));
  }
  std::fprintf(f,
               ",\n    {\"name\": \"contended\", \"threads\": %d, "
               "\"ops\": %llu, \"ms\": %.3f, \"allocs\": %llu, "
               "\"heap_ms\": %.3f, \"speedup_vs_heap\": %.3f}",
               kContendedThreads, static_cast<unsigned long long>(con.ops),
               con.meter_ms, static_cast<unsigned long long>(con.allocs),
               con.heap_ms, con.speedup());
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (floor > 0.0) {
    const bool pass = con.speedup() >= floor;
    std::printf("%s contended meter %.2fx the heap (floor %.2fx)\n",
                pass ? "check-floor ok" : "FAIL", con.speedup(), floor);
    if (!pass) return 1;
  }
  return 0;
}
