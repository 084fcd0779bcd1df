// Analytic model specifications at the paper's scale.
//
// A ModelSpec carries the byte counts and operation durations of one
// evaluation model as measured/quoted by the paper and calibrated in
// DESIGN.md §7. The discrete-event simulator combines these with the real
// sched::Scheduler to regenerate the paper's tables and figures; the byte
// fields also drive the Fig 5 persistent-memory accounting directly.
//
// Context bytes: the paper notes each client is served by its own process
// holding a CUDA context ("Menos uses slightly more GPU memory than
// vanilla [at one client] because it requires an extra process to manage
// the shared base parameters"). context_bytes models that per-process cost.
#pragma once

#include <cstddef>
#include <string>

#include "gpusim/device.h"

namespace menos::sim {

struct ModelSpec {
  std::string name;

  // ----- persistent bytes (§2.3 components) -----
  std::size_t server_param_bytes = 0;   ///< M: server-side base parameters
  std::size_t adapter_opt_bytes = 0;    ///< A + O per client
  std::size_t context_bytes = 0;        ///< per-process GPU context
  // ----- transient bytes -----
  std::size_t fwd_nograd_bytes = 0;     ///< peak of the no-grad forward
  std::size_t bwd_bytes = 0;            ///< I: re-forward + backward peak

  // ----- per-iteration wire volumes (one direction each) -----
  std::size_t activation_up_bytes = 0;    ///< x_c
  std::size_t activation_down_bytes = 0;  ///< x_s
  std::size_t gradient_up_bytes = 0;      ///< g_c
  std::size_t gradient_down_bytes = 0;    ///< g_s

  // ----- server operation durations (seconds) -----
  double fwd_seconds = 0.0;         ///< gradient-tracking forward
  double nograd_fwd_seconds = 0.0;  ///< non-gradient forward (Fig 3(d))
  double bwd_seconds = 0.0;         ///< backward pass proper

  /// Extra per-backward cost Menos pays for constant memory release and
  /// allocator fragmentation, growing with the number of resident clients
  /// (the Table 2 slope): base + per_client * (n - 1).
  double release_overhead_base_s = 0.0;
  double release_overhead_per_client_s = 0.0;

  // ----- client-side compute per iteration -----
  double client_gpu_seconds = 0.0;  ///< client with its own GPU
  double client_cpu_seconds = 0.0;  ///< CPU-only client (Fig 10)

  double release_overhead(int resident_clients) const noexcept {
    if (resident_clients < 1) resident_clients = 1;
    return release_overhead_base_s +
           release_overhead_per_client_s * (resident_clients - 1);
  }

  /// Per-client resident bytes under vanilla split learning (own copy of
  /// everything, Eq. 2 without I).
  std::size_t vanilla_task_bytes() const noexcept {
    return server_param_bytes + adapter_opt_bytes + context_bytes;
  }

  /// Persistent GPU bytes for N clients — the Fig 5 series.
  std::size_t vanilla_persistent_bytes(int clients) const noexcept {
    return vanilla_task_bytes() * static_cast<std::size_t>(clients);
  }
  std::size_t menos_persistent_bytes(int clients) const noexcept {
    return server_param_bytes + context_bytes /* manager process */ +
           (adapter_opt_bytes + context_bytes) *
               static_cast<std::size_t>(clients);
  }

  /// OPT-1.3B (batch 16, seq as in the paper), calibrated to §2.3/§5.
  static ModelSpec opt_1_3b();
  /// Llama-2-7B (batch 4), calibrated to §2.3/§5.
  static ModelSpec llama2_7b();
};

/// Evaluation environment constants (§5.1 + DESIGN.md §7 calibration).
struct Environment {
  std::size_t gpu_capacity_bytes = 32ull * 1000 * 1000 * 1000;  ///< V100 32 GB
  /// Usable host RAM for swapped-out tasks (128 GB machine minus OS +
  /// framework overhead — the paper's "even main memory is insufficient"
  /// point lands at 5 Llama clients).
  std::size_t host_capacity_bytes = 110ull * 1000 * 1000 * 1000;
  double wan_bandwidth_bytes_per_s = 4.0e6;  ///< ~32 Mbit/s effective
  double wan_latency_s = 0.03;
  /// Host<->device swap cost — the SAME gpusim::TransferModel type the
  /// runtime's vanilla baseline and mem::OffloadEngine price swaps with,
  /// so the simulator and the executable runtime cannot drift apart.
  /// Calibrated to the paper's effective PCIe bandwidth (DESIGN.md §7).
  gpusim::TransferModel transfer{/*bandwidth_bytes_per_s=*/1.6e9,
                                 /*latency_s=*/50e-6};

  double wan_seconds(std::size_t bytes) const noexcept {
    return wan_latency_s +
           static_cast<double>(bytes) / wan_bandwidth_bytes_per_s;
  }
  double swap_seconds(std::size_t bytes) const noexcept {
    return transfer.seconds_for(bytes);
  }
};

}  // namespace menos::sim
