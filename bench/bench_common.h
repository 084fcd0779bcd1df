// Shared formatting helpers for the paper-reproduction bench harnesses.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/split_sim.h"
#include "util/bytes.h"

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

/// The gated benches' command line: `[out.json] [--check-floor R]`. R is
/// parsed strictly: the whole argument must be a finite number > 0 ("3",
/// "1.8"; not "3x", "abc" or a missing value), because a floor that reads
/// as 0 would silently switch the gate off. On a bad argument prints why
/// and returns false; callers then exit 2. `*floor` is left untouched when
/// no floor is given.
inline bool parse_gate_args(int argc, char** argv, std::string* out_path,
                            double* floor) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-floor") != 0) {
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
