// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the library (Client::connect,
// train_step, evaluate, the layer probes); nothing inside src/ is
// instrumented. Each span has a name, start, end, parent span and round id,
// plus numeric arguments. Spans stay in memory and are written out once, as
// Chrome trace-event JSON (open in https://ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace menos::perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  int lane = 0;              ///< trace-viewer row (client index, probes = 99)
  std::int64_t round = -1;   ///< iteration the span belongs to; -1 = none
  double start_us = 0.0;     ///< since the recorder was created
  double end_us = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the recorder was created.
  double now_us() const;

  /// Open a span; returns its id (pass to end()).
  std::uint64_t begin(std::string name, int lane, std::int64_t round,
                      std::uint64_t parent = 0);
  /// Close span `id`, attaching `args`.
  void end(std::uint64_t id,
           std::vector<std::pair<std::string, double>> args = {});

  /// Label a trace-viewer row.
  void name_lane(int lane, std::string name);

  std::size_t size() const;

  /// Write every closed span as Chrome trace-event JSON ("X" events).
  /// Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = id - 1
  std::vector<std::pair<int, std::string>> lanes_;  // guarded by mutex_
};

/// RAII span: no-op when `recorder` is null (untraced rounds).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int lane,
             std::int64_t round, std::uint64_t parent = 0)
      : recorder_(recorder),
        id_(recorder != nullptr
                ? recorder->begin(std::move(name), lane, round, parent)
                : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_, std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  void arg(std::string key, double value) {
    if (recorder_ != nullptr) args_.emplace_back(std::move(key), value);
  }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace menos::perfbench
