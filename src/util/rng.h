// Deterministic pseudo-random number generation.
//
// All randomness in Menos flows through Rng so that every experiment is
// reproducible from a single seed. The engine is xoshiro256**, seeded via
// splitmix64 (the reference initialisation recommended by its authors).
#pragma once

#include <cstdint>
#include <vector>

namespace menos::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Standard normal via Box–Muller (cached second variate).
  float normal() noexcept;

  /// Normal with given mean/stddev.
  float normal(float mean, float stddev) noexcept;

  /// Derive an independent child stream (for per-client generators).
  Rng fork() noexcept;

  /// Fill a buffer with i.i.d. normal(0, stddev) values.
  void fill_normal(float* data, std::size_t n, float stddev) noexcept;

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0f;
};

}  // namespace menos::util
