// Allocator throughput tracker (not a paper figure): mem::CachingAllocator
// vs the raw metered device on steady-state and churn workloads.
//
// The number that matters in a real stack is how many cudaMalloc-class
// calls the pool absorbs — here, the inner device's lifetime_allocs — plus
// the pool's hit rate and the fragmentation it leaves behind. Wall time is
// reported too, but on a simulated device both sides are just bookkeeping.
// The raw metered device keeps freed blocks for the next request of the
// same byte count, so its steady-state time is a lock and a hash lookup per
// call, not the host page faults of re-backing every block each round.
//
// Emits BENCH_allocator.json (or argv[1]); docs/MEMORY.md explains how to
// read it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpusim/device.h"
#include "mem/caching_allocator.h"
#include "util/rng.h"

namespace {

using menos::gpusim::Device;
using menos::mem::CachingAllocator;

constexpr std::size_t kCapacity = 64u << 20;
constexpr int kReps = 3;

/// An unpooled meter regardless of MENOS_CACHING_ALLOC / the compile-time
/// default — the baseline side must never be pooled, and the cached side
/// must carry exactly one pooling layer.
std::unique_ptr<Device> make_plain(const char* name) {
  const char* saved = std::getenv("MENOS_CACHING_ALLOC");
  const std::string restore = saved == nullptr ? "" : saved;
  setenv("MENOS_CACHING_ALLOC", "0", 1);
  auto device = menos::gpusim::make_sim_gpu(name, kCapacity);
  if (saved == nullptr) {
    unsetenv("MENOS_CACHING_ALLOC");
  } else {
    setenv("MENOS_CACHING_ALLOC", restore.c_str(), 1);
  }
  return device;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-state training loop: the same eight tensor sizes allocated and
/// freed every round, the regime where a pool should serve ~everything.
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
/// distribution — the regime that creates fragmentation. Deterministic.
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

struct WorkloadResult {
  std::string name;
  std::uint64_t ops = 0;
  double plain_ms = 0.0;
  double cached_ms = 0.0;
  std::uint64_t plain_inner_allocs = 0;
  std::uint64_t cached_inner_allocs = 0;
  double hit_rate = 0.0;
  double fragmentation = 0.0;  // taken at the churn peak, before teardown
  double cached_mb = 0.0;      // pool bytes held after the workload
};

template <typename Fn>
WorkloadResult run_workload(const std::string& name, Fn&& fn) {
  WorkloadResult r;
  r.name = name;

  for (int rep = 0; rep < kReps; ++rep) {
    auto plain = make_plain("plain");
    const double t0 = now_seconds();
    r.ops = fn(*plain);
    r.plain_ms = rep == 0 ? 1e3 * (now_seconds() - t0)
                          : std::min(r.plain_ms, 1e3 * (now_seconds() - t0));
    r.plain_inner_allocs = plain->stats().lifetime_allocs;
  }

  for (int rep = 0; rep < kReps; ++rep) {
    CachingAllocator cached(make_plain("cached"));
    const double t0 = now_seconds();
    fn(cached);
    r.cached_ms = rep == 0 ? 1e3 * (now_seconds() - t0)
                           : std::min(r.cached_ms,
                                      1e3 * (now_seconds() - t0));
    r.cached_inner_allocs = cached.inner().stats().lifetime_allocs;
    r.hit_rate = cached.cache_stats().hit_rate();
    r.fragmentation = cached.stats().fragmentation();
    r.cached_mb = static_cast<double>(cached.stats().cached) / (1u << 20);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_allocator.json");

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("steady_state", steady_state));
  results.push_back(run_workload("churn", churn));

  for (const WorkloadResult& r : results) {
    std::printf(
        "%-12s %6llu ops  plain %7.2f ms (%llu inner allocs)  cached "
        "%7.2f ms (%llu inner allocs)  hit %.1f%%  frag %.3f  pool %.1f MB\n",
        r.name.c_str(), static_cast<unsigned long long>(r.ops), r.plain_ms,
        static_cast<unsigned long long>(r.plain_inner_allocs), r.cached_ms,
        static_cast<unsigned long long>(r.cached_inner_allocs),
        100.0 * r.hit_rate, r.fragmentation, r.cached_mb);
  }

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
    std::fprintf(
        f,
        "%s    {\"name\": \"%s\", \"ops\": %llu,\n"
        "     \"plain_ms\": %.3f, \"plain_inner_allocs\": %llu,\n"
        "     \"cached_ms\": %.3f, \"cached_inner_allocs\": %llu,\n"
        "     \"hit_rate\": %.4f, \"fragmentation\": %.4f, "
        "\"cached_mb\": %.2f}",
        i == 0 ? "" : ",\n", r.name.c_str(),
        static_cast<unsigned long long>(r.ops), r.plain_ms,
        static_cast<unsigned long long>(r.plain_inner_allocs), r.cached_ms,
        static_cast<unsigned long long>(r.cached_inner_allocs), r.hit_rate,
        r.fragmentation, r.cached_mb);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
