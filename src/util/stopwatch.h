// Wall-clock stopwatch used for runtime measurements (scheduler decision
// latency, real-runtime phase timing). Virtual-time measurements in the
// discrete-event simulator use sim::EventLoop::now() instead.
#pragma once

#include <chrono>

namespace menos::util {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Simple online mean/min/max accumulator for timing tables.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    sum_ += x;
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  double total() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace menos::util
