// Order statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace menos::perfbench {

/// q-th quantile (q in [0, 1]) with linear interpolation between closest
/// ranks; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace menos::perfbench
