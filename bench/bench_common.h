// Shared formatting helpers for the paper-reproduction bench harnesses.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "sim/split_sim.h"
#include "tensor/kernels.h"
#include "util/bytes.h"
#include "util/thread_pool.h"

namespace menos::bench {

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper.c_str());
  std::printf("==========================================================\n");
}

/// Render "N/A" the way the paper's tables do for infeasible points.
inline std::string cell(const sim::SimResult& r, double value) {
  if (!r.feasible) return "N/A";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

inline sim::SimConfig make_config(const sim::ModelSpec& spec,
                                  core::ServingMode mode, int clients,
                                  int iterations = 15) {
  sim::SimConfig c;
  c.spec = spec;
  c.mode = mode;
  c.num_clients = clients;
  c.iterations = iterations;
  return c;
}

/// Threads of the host-contention probe.
inline constexpr int kProbeThreads = 4;

/// One host-contention probe reading.
struct ProbeReading {
  double ratio = 0.0;     ///< kProbeThreads-thread spin time / 1-thread time
  double alone_ms = 0.0;  ///< the 1-thread spin time
};

/// Host-contention probe: the wall time of kProbeThreads threads each
/// running the same fixed integer spin, over the time one thread takes for
/// it alone (median of three of each). The ratio reads ~1.0 when the host
/// has kProbeThreads idle cores; other tenants, or fewer cores, push it up
/// (4.0 on one core). A host slow on every core alike keeps the ratio near
/// 1.0 but raises `alone_ms` (~11 ms on an idle 2 GHz AVX-512 VM). The
/// spin is one dependent multiply chain, so it sees the clock but not the
/// vector units: a host whose FMA throughput alone drops (docs/PERF.md)
/// reads idle. Benches take it before and after measuring and record both.
inline ProbeReading contention_probe() {
  const auto spin = [](volatile std::uint64_t* sink) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < (1 << 23); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    *sink = x;
  };
  const auto median_seconds = [&](int n) {
    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(n));
    double times[3];
    for (double& t : times) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> others;
      for (int i = 1; i < n; ++i) {
        others.emplace_back(spin, &sinks[static_cast<std::size_t>(i)]);
      }
      spin(&sinks[0]);
      for (std::thread& th : others) th.join();
      t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    std::sort(times, times + 3);
    return times[1];
  };
  const double alone = median_seconds(1);
  return {median_seconds(kProbeThreads) / alone, 1e3 * alone};
}

/// Probe readings taken around a bench's measurements.
struct HostProbe {
  ProbeReading before, after;
};

/// Write the `"environment": {...},` member every BENCH_*.json opens with:
/// the host and build a result came from, and the widths of the process's
/// two pools. `executor_threads` is the serving executor width the bench
/// configured (0 = resolved from MENOS_EXECUTOR_THREADS / hardware, as a
/// default ServerConfig does); the compute pool width is the one
/// MENOS_THREADS configures, before any bench-driven resize. A bench that
/// took contention_probe() readings passes them as `probe`.
inline void write_environment(std::FILE* f, int executor_threads = 0,
                              const HostProbe* probe = nullptr) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::fprintf(f, "  \"environment\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %d,\n", hw);
  std::fprintf(f, "    \"compiler\": \"%s\",\n", __VERSION__);
#ifdef NDEBUG
  std::fprintf(f, "    \"build\": \"release\",\n");
#else
  std::fprintf(f, "    \"build\": \"debug\",\n");
#endif
  std::fprintf(f, "    \"vector_arch\": \"%s\",\n",
               tensor::kernels::vector_arch());
  std::fprintf(f, "    \"executor_threads\": %d,\n",
               core::Executor::resolve_width(executor_threads));
  if (probe != nullptr) {
    std::fprintf(f,
                 "    \"contention_probe\": {\"threads\": %d,\n"
                 "      \"before\": {\"ratio\": %.3f, \"alone_ms\": %.2f},\n"
                 "      \"after\": {\"ratio\": %.3f, \"alone_ms\": %.2f}},\n",
                 kProbeThreads, probe->before.ratio, probe->before.alone_ms,
                 probe->after.ratio, probe->after.alone_ms);
  }
  std::fprintf(f, "    \"pool_threads\": %d\n",
               util::env_width("MENOS_THREADS", std::max(1, hw)));
  std::fprintf(f, "  },\n");
}

/// The gated benches' command line: `[out.json] [--check-floor R]`. R is
/// parsed strictly: the whole argument must be a finite number > 0 ("3",
/// "1.8"; not "3x", "abc" or a missing value), because a floor that reads
/// as 0 would silently switch the gate off. Any other argument starting
/// with '-' is an unknown flag, not an output path: a misspelt
/// `--check-flor 1.8` would otherwise write the JSON to a file named
/// "1.8" with the gate off. On a bad argument prints why (and the usage)
/// and returns false; callers then exit 2. `*floor` is left untouched
/// when no floor is given.
inline bool parse_gate_args(int argc, char** argv, std::string* out_path,
                            double* floor) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-floor") != 0) {
      if (argv[i][0] == '-') {
        std::fprintf(stderr,
                     "unknown option '%s'\nusage: %s [out.json] "
                     "[--check-floor R]\n",
                     argv[i], argv[0]);
        return false;
      }
      *out_path = argv[i];
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "--check-floor needs a ratio > 0\n");
      return false;
    }
    const char* text = argv[++i];
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value) ||
        value <= 0.0) {
      std::fprintf(stderr, "--check-floor needs a ratio > 0, got '%s'\n",
                   text);
      return false;
    }
    *floor = value;
  }
  return true;
}

}  // namespace menos::bench
