// Allocator throughput tracker (not a paper figure): the metered device on
// a steady-state and a churn workload.
//
// The meter keeps freed blocks for the next request of the same byte
// count, so its steady-state time is a lock and a hash lookup per call,
// not the host page faults of re-backing every block each round. Churn
// draws sizes at random, so almost no request finds an idle block of its
// exact size: it is the case exact-size recycling does not serve.
//
// Emits BENCH_allocator.json (or argv[1]); docs/MEMORY.md explains how to
// read it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
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
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_allocator.json");

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("steady_state", steady_state));
  results.push_back(run_workload("churn", churn));

  for (const WorkloadResult& r : results) {
    std::printf("%-12s %6llu ops  %7.3f ms  %llu allocs\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops), r.ms,
                static_cast<unsigned long long>(r.allocs));
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
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"ops\": %llu, \"ms\": %.3f, "
                 "\"allocs\": %llu}",
                 i == 0 ? "" : ",\n", r.name.c_str(),
                 static_cast<unsigned long long>(r.ops), r.ms,
                 static_cast<unsigned long long>(r.allocs));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
