#include "spans.h"

#include <cstdio>
#include <fstream>

namespace menos::perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t SpanRecorder::begin(std::string name, int lane,
                                  std::int64_t round, std::uint64_t parent) {
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.lane = lane;
  span.round = round;
  span.start_us = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id,
                       std::vector<std::pair<std::string, double>> args) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(id - 1);
  span.end_us = t;
  span.args = std::move(args);
}

void SpanRecorder::name_lane(int lane, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.emplace_back(lane, std::move(name));
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [lane, name] : lanes_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
        << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const Span& s : spans_) {
    if (s.end_us <= 0.0) continue;  // never closed
    if (!first) out << ",\n";
    first = false;
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << "," << times << ",\"args\":{\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"round\":" << s.round;
    for (const auto& [key, value] : s.args) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      out << ",\"" << json_escape(key) << "\":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace menos::perfbench
