// Figure 3: GPU memory usage patterns in split fine-tuning under the four
// release policies, measured on the REAL runtime.
//
// A sampler thread polls the metered GPU while one client runs iterations
// over a deliberately slowed network (so the 'W' waiting phases of Fig 3
// are wide enough to see). The printout is a memory-vs-time strip per
// policy plus the quantitative core of the figure: the time-integral of
// allocated memory (byte-seconds) and how long the peak is held.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "net/link.h"
#include "net/transport.h"
#include "util/bytes.h"

using namespace menos;

namespace {

struct Sample {
  double t;
  std::size_t bytes;
};

struct PatternResult {
  std::vector<Sample> samples;
  std::size_t peak = 0;
  double byte_seconds = 0.0;      ///< integral of allocated memory
  double near_peak_seconds = 0.0; ///< time spent above 80% of peak
  double duration = 0.0;
};

PatternResult run_pattern(core::ServingMode mode) {
  nn::TransformerConfig model = nn::TransformerConfig::tiny_opt();
  gpusim::DeviceManager devices(1, 1u << 30);
  core::ServerConfig config;
  config.mode = mode;
  config.base_seed = 42;
  core::Server server(config, devices, model);

  // Slow "WAN": ~12 ms per message, so waiting phases dominate the
  // iteration the way the paper's Internet link does.
  net::LinkProfile wan;
  wan.up.latency_s = 0.012;
  wan.down.latency_s = 0.012;
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 1u << 30);
  core::ClientOptions options;
  options.finetune.client_name = "fig3";
  options.finetune.model = model;
  options.finetune.batch_size = 8;
  options.finetune.seq_len = 32;
  options.finetune.adapter_seed = 3;
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(wan), client_devices.gpu(0));
  client.connect();

  data::CharTokenizer tok;
  data::DataLoader loader(tok.encode(data::make_wikitext_like(6000, 5).text),
                          8, 32, 7);

  // Baseline = what persists with an idle connected client (shared base +
  // this client's A + O); Fig 3 plots the transient part above it.
  const std::size_t baseline = devices.gpu(0).allocated();

  std::atomic<bool> stop{false};
  PatternResult result;
  std::thread sampler([&] {
    util::Stopwatch sw;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t now = devices.gpu(0).allocated();
      const std::size_t transient = now > baseline ? now - baseline : 0;
      result.samples.push_back(Sample{sw.elapsed_seconds(), transient});
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  for (int i = 0; i < 3; ++i) client.train_step(loader.next());
  stop.store(true);
  sampler.join();
  client.disconnect();
  server.stop();

  for (const Sample& s : result.samples) {
    result.peak = std::max(result.peak, s.bytes);
  }
  for (std::size_t i = 1; i < result.samples.size(); ++i) {
    const double dt = result.samples[i].t - result.samples[i - 1].t;
    result.byte_seconds += dt * static_cast<double>(result.samples[i].bytes);
    if (result.samples[i].bytes >
        static_cast<std::size_t>(0.8 * static_cast<double>(result.peak))) {
      result.near_peak_seconds += dt;
    }
  }
  if (!result.samples.empty()) result.duration = result.samples.back().t;
  return result;
}

void print_strip(const PatternResult& r, std::size_t global_peak) {
  constexpr int kWidth = 96;
  static const char* kLevels = " .:-=+*#";
  std::string strip(kWidth, ' ');
  if (r.samples.empty() || r.duration <= 0.0) return;
  // Max within each time bucket, scaled against the cross-policy peak.
  std::vector<std::size_t> bucket(kWidth, 0);
  for (const Sample& s : r.samples) {
    int b = static_cast<int>(s.t / r.duration * kWidth);
    if (b >= kWidth) b = kWidth - 1;
    bucket[static_cast<std::size_t>(b)] =
        std::max(bucket[static_cast<std::size_t>(b)], s.bytes);
  }
  for (int b = 0; b < kWidth; ++b) {
    const double frac = global_peak == 0
                            ? 0.0
                            : static_cast<double>(bucket[static_cast<std::size_t>(b)]) /
                                  static_cast<double>(global_peak);
    int level = static_cast<int>(frac * 7.999);
    strip[static_cast<std::size_t>(b)] = kLevels[level];
  }
  std::printf("  |%s|\n", strip.c_str());
}

}  // namespace

int main() {
  std::printf(
      "==========================================================\n"
      "Fig 3 — GPU memory usage patterns under the release policies\n"
      "Measured on the real runtime (transient bytes above the persistent\n"
      "baseline, 3 iterations, ~12 ms per network message).\n"
      "==========================================================\n\n");

  struct Row {
    const char* label;
    core::ServingMode mode;
  };
  const Row rows[] = {
      {"(a) preserve everything", core::ServingMode::MenosPreserveAll},
      {"(b) release after backward", core::ServingMode::MenosReleaseAfterBackward},
      {"(c) release while waiting g_c", core::ServingMode::MenosReleaseEarly},
      {"(d) + non-gradient first forward", core::ServingMode::MenosOnDemand},
  };

  std::vector<PatternResult> results;
  std::size_t global_peak = 0;
  for (const Row& row : rows) {
    results.push_back(run_pattern(row.mode));
    global_peak = std::max(global_peak, results.back().peak);
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const PatternResult& r = results[i];
    std::printf("%s\n", rows[i].label);
    print_strip(r, global_peak);
    std::printf(
        "  peak %-10s  memory-time integral %-10.4f MB*s  time near peak "
        "%.0f%%\n\n",
        util::format_bytes(r.peak).c_str(), r.byte_seconds / 1e6,
        100.0 * r.near_peak_seconds / r.duration);
  }

  std::printf(
      "Reading (matches Fig 3): (a) holds the full working set through\n"
      "every waiting phase; (b) frees it only between iterations; (c)\n"
      "frees it during the long wait for gradients; (d) additionally\n"
      "avoids materializing the activation cache during the first forward,\n"
      "so peak memory is held only during the short backward burst.\n");
  return 0;
}
