#include "gpusim/device.h"

#include <limits>
#include <new>
#include <unordered_map>
#include <vector>

#include "gpusim/audit.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace menos::gpusim {
namespace {

/// Shared accounting + heap-backed allocation. Host and SimGpu differ only
/// in whether a capacity is enforced. Freed blocks wait in an exact-size
/// idle list for the next request of their byte count, as a GPU keeps its
/// pages, instead of being re-faulted from the heap every round. They are
/// invisible to stats() and capacity (docs/MEMORY.md, "Host backing").
class MeteredDevice final : public Device {
 public:
  MeteredDevice(DeviceKind kind, std::string name, std::size_t capacity)
      : kind_(kind), name_(std::move(name)), capacity_(capacity) {}

  ~MeteredDevice() override {
    for (const auto& entry : idle_) {
      for (void* ptr : entry.second) ::operator delete(ptr);
    }
  }

  DeviceKind kind() const noexcept override { return kind_; }
  const std::string& name() const noexcept override { return name_; }

  void* allocate(std::size_t bytes) override {
    void* ptr = nullptr;
    {
      util::MutexLock lock(mutex_);
      if (capacity_ != 0 && allocated_ + bytes > capacity_) {
        throw OutOfMemory("device '" + name_ + "' out of memory", bytes,
                          capacity_ - allocated_);
      }
      allocated_ += bytes;
      if (allocated_ > peak_) peak_ = allocated_;
      if (allocated_ > high_water_) high_water_ = allocated_;
      ++lifetime_allocs_;
      lifetime_bytes_ += bytes;
      const auto it = idle_.find(bytes);  // never holds 0-byte sentinels
      if (it != idle_.end() && !it->second.empty()) {
        ptr = it->second.back();
        it->second.pop_back();
        idle_bytes_ -= bytes;
        ASAN_UNPOISON_MEMORY_REGION(ptr, bytes);
      }
    }
    if (bytes == 0) {
      // Distinct non-null sentinel; operator new(1) is cheap and unique.
      ptr = ::operator new(1);
    } else if (ptr == nullptr) {
      try {
        ptr = ::operator new(bytes);
      } catch (const std::bad_alloc&) {
        util::MutexLock lock(mutex_);
        allocated_ -= bytes;
        throw OutOfMemory("host heap exhausted backing device '" + name_ + "'",
                          bytes, 0);
      }
    }
#if MENOS_DCHECK_IS_ON
    {
      util::MutexLock lock(mutex_);
      debug_sizes_[ptr] = bytes;
    }
#endif
    return ptr;
  }

  void deallocate(void* ptr, std::size_t bytes) noexcept override {
    if (ptr == nullptr) return;
    {
      util::MutexLock lock(mutex_);
#if MENOS_DCHECK_IS_ON
      // Contract (device.h): `bytes` must match the original request. The
      // AuditDevice decorator reports this with full context; this DCHECK
      // keeps Debug builds honest even with auditing disabled.
      const auto it = debug_sizes_.find(ptr);
      MENOS_DCHECK_MSG(it != debug_sizes_.end(),
                       "device '" << name_
                                  << "': deallocate of unknown pointer "
                                  << ptr);
      MENOS_DCHECK_MSG(it->second == bytes,
                       "device '" << name_ << "': deallocate size " << bytes
                                  << " != allocated size " << it->second);
      debug_sizes_.erase(it);
#endif
      allocated_ -= bytes;
      ++lifetime_frees_;
      if (bytes != 0 && idle_bytes_ + bytes <= high_water_) {
        try {
          idle_[bytes].push_back(ptr);
          idle_bytes_ += bytes;
          ASAN_POISON_MEMORY_REGION(ptr, bytes);
          return;
        } catch (const std::bad_alloc&) {
          // No room to record it: release the block instead.
        }
      }
    }
    ::operator delete(ptr);
  }

  MemoryStats stats() const override {
    util::MutexLock lock(mutex_);
    MemoryStats s;
    s.capacity = capacity_;
    s.allocated = allocated_;
    s.peak = peak_;
    s.lifetime_allocs = lifetime_allocs_;
    s.lifetime_frees = lifetime_frees_;
    s.lifetime_bytes = lifetime_bytes_;
    return s;
  }

  std::size_t reset_peak() override {
    util::MutexLock lock(mutex_);
    peak_ = allocated_;
    return peak_;
  }

 private:
  DeviceKind kind_;
  std::string name_;
  std::size_t capacity_;  // 0 = unlimited; immutable after construction

  mutable util::Mutex mutex_{"gpusim.meter", 54};
  std::size_t allocated_ MENOS_GUARDED_BY(mutex_) = 0;
  std::size_t peak_ MENOS_GUARDED_BY(mutex_) = 0;
  std::size_t lifetime_allocs_ MENOS_GUARDED_BY(mutex_) = 0;
  std::size_t lifetime_frees_ MENOS_GUARDED_BY(mutex_) = 0;
  std::size_t lifetime_bytes_ MENOS_GUARDED_BY(mutex_) = 0;
  // Never reset; idle_bytes_ stays within it.
  std::size_t high_water_ MENOS_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::size_t, std::vector<void*>> idle_
      MENOS_GUARDED_BY(mutex_);
  std::size_t idle_bytes_ MENOS_GUARDED_BY(mutex_) = 0;
#if MENOS_DCHECK_IS_ON
  std::unordered_map<void*, std::size_t> debug_sizes_ MENOS_GUARDED_BY(mutex_);
#endif
};

/// Debug builds (or -DMENOS_AUDIT_ALLOC=ON) wrap every factory-made device
/// in the auditing decorator; see gpusim/audit.h.
std::unique_ptr<Device> maybe_audit(std::unique_ptr<Device> device) {
#ifdef MENOS_AUDIT_ALLOC
  return make_audit_device(std::move(device));
#else
  return device;
#endif
}

/// Decorator layers strictly below `inner` (inclusive of `inner` itself
/// when it is a decorator). A terminal device (meter/host) is depth 0.
int decorator_depth(const Device* inner) noexcept {
  int depth = 0;
  for (const Device* cur = inner;
       cur != nullptr && cur->unwrap() != nullptr; cur = cur->unwrap()) {
    ++depth;
  }
  return depth;
}

}  // namespace

std::string decorator_lock_name(const char* base, const Device* inner) {
  const int depth = decorator_depth(inner);
  if (depth == 0) return base;
  return std::string(base) + "." + std::to_string(depth);
}

int decorator_lock_rank(int base_rank, const Device* inner) noexcept {
  return decorator_depth(inner) == 0 ? base_rank : 0;
}

std::size_t Device::available() const {
  const MemoryStats s = stats();
  if (s.capacity == 0) return std::numeric_limits<std::size_t>::max();
  return s.capacity - s.allocated;
}

std::unique_ptr<Device> make_host_device(std::string name) {
  return maybe_audit(
      std::make_unique<MeteredDevice>(DeviceKind::Host, std::move(name), 0));
}

std::unique_ptr<Device> make_sim_gpu(std::string name,
                                     std::size_t capacity_bytes) {
  MENOS_CHECK_MSG(capacity_bytes > 0, "SimGpu capacity must be positive");
  return maybe_audit(std::make_unique<MeteredDevice>(
      DeviceKind::SimGpu, std::move(name), capacity_bytes));
}

DeviceManager::DeviceManager(int gpu_count, std::size_t gpu_capacity_bytes)
    : host_(make_host_device()) {
  MENOS_CHECK_MSG(gpu_count >= 0, "negative GPU count");
  gpus_.reserve(static_cast<std::size_t>(gpu_count));
  for (int i = 0; i < gpu_count; ++i) {
    gpus_.push_back(make_sim_gpu("gpu" + std::to_string(i), gpu_capacity_bytes));
  }
}

Device& DeviceManager::gpu(int index) {
  MENOS_CHECK_MSG(index >= 0 && index < gpu_count(),
                  "gpu index " << index << " out of range [0," << gpu_count()
                               << ")");
  return *gpus_[static_cast<std::size_t>(index)];
}

const Device& DeviceManager::gpu(int index) const {
  MENOS_CHECK_MSG(index >= 0 && index < gpu_count(),
                  "gpu index " << index << " out of range [0," << gpu_count()
                               << ")");
  return *gpus_[static_cast<std::size_t>(index)];
}

Device& DeviceManager::least_loaded_gpu() {
  MENOS_CHECK_MSG(!gpus_.empty(), "DeviceManager has no GPUs");
  Device* best = gpus_[0].get();
  for (auto& g : gpus_) {
    if (g->available() > best->available()) best = g.get();
  }
  return *best;
}

std::size_t DeviceManager::total_gpu_available() const {
  std::size_t total = 0;
  for (const auto& g : gpus_) total += g->available();
  return total;
}

std::size_t DeviceManager::total_gpu_capacity() const {
  std::size_t total = 0;
  for (const auto& g : gpus_) total += g->stats().capacity;
  return total;
}

}  // namespace menos::gpusim
