// Figure 5: GPU memory consumption for persistent components (base model
// parameters + adapter parameters + optimizer states) as the number of
// clients grows, vanilla split learning vs Menos.
//
// The second half measures the same metric on the LIVE server, once per
// serving mode, and fails (exit 1) unless the Fig 5 claim holds there: each
// added client raises MenosOnDemand's persistent bytes by less than it
// raises VanillaTaskSwap's, and Menos holds fewer bytes at 3 clients.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/server.h"
#include "net/transport.h"

using namespace menos;
using menos::util::to_gb;

namespace {

void run_model(const sim::ModelSpec& spec, double paper_reduction_at_4) {
  std::printf("\n--- %s ---\n", spec.name.c_str());
  std::printf("%-8s  %-14s  %-14s  %-10s\n", "clients", "vanilla (GB)",
              "menos (GB)", "reduction");
  for (int n = 1; n <= 6; ++n) {
    const double vanilla = to_gb(spec.vanilla_persistent_bytes(n));
    const double menos_gb = to_gb(spec.menos_persistent_bytes(n));
    const double reduction = 100.0 * (1.0 - menos_gb / vanilla);
    std::printf("%-8d  %-14.1f  %-14.1f  %9.1f%%\n", n, vanilla, menos_gb,
                reduction);
  }
  const double measured =
      100.0 * (1.0 - static_cast<double>(spec.menos_persistent_bytes(4)) /
                         static_cast<double>(spec.vanilla_persistent_bytes(4)));
  std::printf("paper reduction @4 clients: %.1f%%   measured: %.1f%%\n",
              paper_reduction_at_4, measured);
}

// ----- live Fig 5 check -----

nn::TransformerConfig live_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 2;
  return c;
}

struct LiveSample {
  std::size_t persistent = 0;  ///< Server::persistent_gpu_bytes (Fig 5)
  std::size_t allocated = 0;   ///< server GPU allocated after connect
  std::size_t peak = 0;        ///< server GPU peak (includes profiling)
};

/// Bring up a real server, connect `clients` one at a time (each runs one
/// training step, so vanilla task copies are actually resident), and sample
/// the Fig 5 metric plus raw device accounting after each admission.
std::vector<LiveSample> live_persistent(core::ServingMode mode, int clients) {
  gpusim::DeviceManager devices(1, 256u << 20);
  core::ServerConfig config;
  config.mode = mode;
  core::Server server(config, devices, live_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);
  gpusim::DeviceManager client_devices(1, 256u << 20);

  std::vector<std::unique_ptr<core::Client>> live;
  std::vector<LiveSample> out;
  for (int i = 0; i < clients; ++i) {
    core::ClientOptions options;
    options.finetune.model = live_model();
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.adapter_seed = static_cast<std::uint64_t>(i + 1);
    auto c = std::make_unique<core::Client>(options, acceptor.connect(),
                                            client_devices.gpu(0));
    c->connect();
    data::CharTokenizer tok;
    data::DataLoader loader(
        tok.encode(data::make_shakespeare_like(500, 3).text), 2, 8,
        static_cast<std::uint64_t>(i + 1));
    c->train_step(loader.next());
    live.push_back(std::move(c));
    // Let the session finish post-reply bookkeeping before sampling.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    LiveSample s;
    s.persistent = server.persistent_gpu_bytes();
    s.allocated = devices.gpu(0).allocated();
    s.peak = devices.gpu(0).stats().peak;
    out.push_back(s);
  }
  for (auto& c : live) c->disconnect();
  server.stop();
  return out;
}

/// Persistent bytes that admitting client `n` (0-based, n > 0) added.
std::size_t added_by(const std::vector<LiveSample>& run, std::size_t n) {
  return run[n].persistent - run[n - 1].persistent;
}

/// Returns false unless the live server reproduces the Fig 5 claim.
bool live_check() {
  constexpr int kClients = 3;
  std::printf(
      "\n--- live server: persistent bytes per serving mode ---\n"
      "%-18s %-8s  %-12s %-12s %-12s %-12s\n",
      "mode", "clients", "persistent", "per-client", "allocated", "peak");
  const std::vector<LiveSample> menos_live =
      live_persistent(core::ServingMode::MenosOnDemand, kClients);
  const std::vector<LiveSample> vanilla_live =
      live_persistent(core::ServingMode::VanillaTaskSwap, kClients);
  const auto print_rows = [](core::ServingMode mode,
                              const std::vector<LiveSample>& run) {
    for (std::size_t n = 0; n < run.size(); ++n) {
      char added[24] = "-";
      if (n > 0) std::snprintf(added, sizeof added, "+%zu", added_by(run, n));
      std::printf("%-18s %-8zu  %-12zu %-12s %-12zu %-12zu\n",
                  core::serving_mode_name(mode), n + 1, run[n].persistent,
                  added, run[n].allocated, run[n].peak);
    }
  };
  print_rows(core::ServingMode::MenosOnDemand, menos_live);
  print_rows(core::ServingMode::VanillaTaskSwap, vanilla_live);

  bool ok = true;
  for (std::size_t n = 1; n < menos_live.size(); ++n) {
    const std::size_t menos_added = added_by(menos_live, n);
    const std::size_t vanilla_added = added_by(vanilla_live, n);
    if (menos_added >= vanilla_added) {
      std::printf("FAIL: client %zu adds %zu B under Menos, %zu B vanilla\n",
                  n + 1, menos_added, vanilla_added);
      ok = false;
    }
  }
  const std::size_t menos_at = menos_live.back().persistent;
  const std::size_t vanilla_at = vanilla_live.back().persistent;
  if (menos_at >= vanilla_at) {
    std::printf("FAIL: %d clients hold %zu B under Menos, %zu B vanilla\n",
                kClients, menos_at, vanilla_at);
    ok = false;
  }
  std::printf("live Fig 5 claim (Menos below vanilla, per client and at %d): "
              "%s\n", kClients, ok ? "holds" : "BROKEN");
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 5 — GPU memory for persistent components vs number of clients",
      "Fig 5(a) OPT: 4.7 -> 18.7 GB vanilla vs 6.7 GB Menos at 4 clients "
      "(-64.1%); Fig 5(b) Llama: -72.2% at 4 clients");

  run_model(sim::ModelSpec::opt_1_3b(), 64.1);
  run_model(sim::ModelSpec::llama2_7b(), 72.2);

  // §2.3 measurement study companion numbers.
  const sim::ModelSpec llama = sim::ModelSpec::llama2_7b();
  std::printf(
      "\n§2.3 measurement study (Llama-2-7B, batch 4):\n"
      "  M (base parameters):        %.1f GB (paper: ~24 GB)\n"
      "  A + O (adapter+optimizer):  %.0f MB (paper: 246 MB)\n"
      "  I (intermediate results):   %.1f GB (paper: ~4 GB)\n"
      "  total:                      %.1f GB (paper: ~28.7 GB)\n",
      to_gb(llama.server_param_bytes), util::to_mb(llama.adapter_opt_bytes),
      to_gb(llama.bwd_bytes),
      to_gb(llama.server_param_bytes + llama.adapter_opt_bytes +
            llama.bwd_bytes));

  return live_check() ? 0 : 1;
}
