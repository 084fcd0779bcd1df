#include "util/rng.h"

#include <cmath>

namespace menos::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) noexcept {
  return lo + static_cast<float>(next_double()) * (hi - lo);
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation would be overkill here;
  // modulo bias is irrelevant at our n << 2^64.
  return next_u64() % n;
}

float Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = static_cast<float>(r * std::sin(theta));
  has_cached_normal_ = true;
  return static_cast<float>(r * std::cos(theta));
}

float Rng::normal(float mean, float stddev) noexcept {
  return mean + stddev * normal();
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

void Rng::fill_normal(float* data, std::size_t n, float stddev) noexcept {
  for (std::size_t i = 0; i < n; ++i) data[i] = stddev * normal();
}

}  // namespace menos::util
