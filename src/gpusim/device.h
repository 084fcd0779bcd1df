// Simulated compute devices with byte-exact memory accounting.
//
// Menos' claims are about GPU *memory*: how many bytes each component of a
// split fine-tuning task holds and when. We therefore substitute real CUDA
// devices with SimGpu: allocations are backed by ordinary host heap memory
// (so the tensor engine computes real numbers) but are metered against a
// configurable capacity, throw menos::OutOfMemory when exhausted, and track
// high-water marks. This makes the allocate/release/schedule logic of the
// paper observable and testable without hardware (see DESIGN.md §1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace menos::gpusim {

enum class DeviceKind { Host, SimGpu };

struct MemoryStats {
  std::size_t capacity = 0;        ///< 0 means unlimited (host).
  std::size_t allocated = 0;       ///< live bytes right now
  std::size_t peak = 0;            ///< high-water since last reset_peak()
  std::size_t lifetime_allocs = 0; ///< number of allocate() calls ever
  std::size_t lifetime_frees = 0;  ///< number of deallocate() calls ever
  std::size_t lifetime_bytes = 0;  ///< sum of all bytes ever allocated
};

/// Abstract device. Thread-safe: serving sessions allocate concurrently.
class Device {
 public:
  virtual ~Device() = default;

  virtual DeviceKind kind() const noexcept = 0;
  virtual const std::string& name() const noexcept = 0;

  /// Allocate `bytes` of device memory. Throws menos::OutOfMemory if the
  /// device capacity would be exceeded. A zero-byte request returns a
  /// non-null unique sentinel so callers need no special case.
  virtual void* allocate(std::size_t bytes) = 0;

  /// Return memory obtained from allocate(). `bytes` must match the
  /// original request (the tensor Storage layer guarantees this). The
  /// contract is enforced: Debug builds MENOS_DCHECK the size against the
  /// original request, and audited builds (gpusim/audit.h, on by default
  /// in Debug) additionally catch double frees and foreign pointers.
  virtual void deallocate(void* ptr, std::size_t bytes) noexcept = 0;

  virtual MemoryStats stats() const = 0;

  /// Reset the high-water mark to the current allocation level and return
  /// that level. The returned base is <= every later peak and the peak
  /// stays >= allocated, whatever allocations and frees run concurrently —
  /// so a concurrent free cannot leave the base above the new peak. Used by
  /// the profiler to measure the footprint of a single forward/backward
  /// pass.
  virtual std::size_t reset_peak() = 0;

  /// Live bytes right now (shorthand for stats().allocated).
  std::size_t allocated() const { return stats().allocated; }

  /// Remaining capacity; SIZE_MAX for unlimited devices.
  std::size_t available() const;

  /// The device this one decorates, or nullptr for a terminal device.
  /// Lets the decorator lock-class helpers below see through audit
  /// layers.
  virtual const Device* unwrap() const noexcept { return nullptr; }
};

/// Lock-class naming for decorator devices (AuditDevice). The same
/// decorator type can legitimately sit at two depths of one chain — tests
/// audit over an already-audited factory device — and acquisition always
/// follows the object graph outer -> inner, so each layer needs its own
/// lock class or the class-level lock-order graph sees a spurious cycle.
/// The class name gains a ".N" suffix per decorator layer below it, and
/// only the innermost layer (depth 0, adjacent to the meter) carries the
/// subsystem rank from docs/ANALYSIS.md.
std::string decorator_lock_name(const char* base, const Device* inner);
int decorator_lock_rank(int base_rank, const Device* inner) noexcept;

/// The host: unlimited capacity, but still metered (swap experiments report
/// host-side footprints too). Both factories' meters keep freed blocks, up
/// to their peak of live bytes, for the next request of the same byte
/// count — a little in each thread, the rest in one shared list; no stat
/// and no capacity sees them (docs/MEMORY.md).
std::unique_ptr<Device> make_host_device(std::string name = "host");

/// A capacity-limited simulated GPU.
std::unique_ptr<Device> make_sim_gpu(std::string name, std::size_t capacity_bytes);

/// Cost model for host<->device transfers, used when simulating task swap
/// (vanilla baseline) and when charging virtual time in src/sim.
struct TransferModel {
  double bandwidth_bytes_per_s = 1.4e9;  ///< effective PCIe (DESIGN.md §7)
  double latency_s = 50e-6;              ///< per-transfer fixed cost

  double seconds_for(std::size_t bytes) const noexcept {
    return latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// Owns the host device plus N simulated GPUs and provides placement
/// helpers. The "GPU memory" box of Fig 2 is an abstraction over all GPUs;
/// DeviceManager is that abstraction.
class DeviceManager {
 public:
  /// Create `gpu_count` GPUs, each with `gpu_capacity_bytes`.
  DeviceManager(int gpu_count, std::size_t gpu_capacity_bytes);

  Device& host() noexcept { return *host_; }
  const Device& host() const noexcept { return *host_; }

  int gpu_count() const noexcept { return static_cast<int>(gpus_.size()); }
  Device& gpu(int index);
  const Device& gpu(int index) const;

  /// The GPU with the most free memory right now (ties -> lowest index).
  Device& least_loaded_gpu();

  /// Total free bytes across all GPUs.
  std::size_t total_gpu_available() const;

  /// Total capacity across all GPUs.
  std::size_t total_gpu_capacity() const;

  const TransferModel& transfer_model() const noexcept { return transfer_; }

 private:
  std::unique_ptr<Device> host_;
  std::vector<std::unique_ptr<Device>> gpus_;
  TransferModel transfer_;
};

}  // namespace menos::gpusim
