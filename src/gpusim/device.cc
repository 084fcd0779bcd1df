#include "gpusim/device.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
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

/// Per device, a thread keeps at most this many idle bytes in its own
/// cache, and at most kThreadCacheBlocks blocks, which bounds the scan of a
/// lookup. It caches blocks of up to a quarter of that, so moving the older
/// half of a full cache to the shared list always makes room for one more;
/// larger blocks use the list alone. It keeps bins for kThreadCacheDevices
/// devices and drops the oldest bin to open a new one.
constexpr std::size_t kThreadCacheBytes = 64u << 10;
constexpr std::size_t kThreadCacheMaxBlock = kThreadCacheBytes / 4;
constexpr std::size_t kThreadCacheBlocks = 64;
constexpr std::size_t kThreadCacheDevices = 8;

/// A meter's counters. Every thread that caches blocks of the device holds
/// them too, so a thread can settle its blocks after the device is gone.
/// One cache line: a call's several updates cost one line transfer.
struct alignas(64) MeterCounters {
  std::atomic<std::size_t> allocated{0};
  std::atomic<std::size_t> peak{0};
  // Never reset; idle_bytes stays within it.
  std::atomic<std::size_t> high_water{0};
  // Idle blocks in every thread's cache plus the shared list.
  std::atomic<std::size_t> idle_bytes{0};
  std::atomic<std::size_t> lifetime_allocs{0};
  std::atomic<std::size_t> lifetime_frees{0};
  std::atomic<std::size_t> lifetime_bytes{0};
  std::atomic<bool> dead{false};
};

void raise_to(std::atomic<std::size_t>& mark, std::size_t value) noexcept {
  std::size_t seen = mark.load();
  while (seen < value && !mark.compare_exchange_weak(seen, value)) {
  }
}

/// Bumped by every device destructor. A thread that sees it move drops the
/// blocks it caches for dead devices on its next meter call.
std::atomic<std::uint64_t> g_device_deaths{0};

/// One thread's idle blocks of one device, most recently freed last.
struct CacheBin {
  std::shared_ptr<MeterCounters> counters;
  std::vector<std::pair<std::size_t, void*>> blocks;
  std::size_t bytes = 0;

  bool fits(std::size_t more) const noexcept {
    return bytes + more <= kThreadCacheBytes &&
           blocks.size() < kThreadCacheBlocks;
  }

  /// Room is checked by fits(); capacity is reserved, so this never throws.
  void push(std::size_t size, void* ptr) noexcept {
    blocks.emplace_back(size, ptr);
    bytes += size;
  }

  /// The most recently freed block of exactly `size`, or nullptr.
  void* take(std::size_t size) noexcept {
    for (std::size_t i = blocks.size(); i-- > 0;) {
      if (blocks[i].first == size) {
        void* ptr = blocks[i].second;
        blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(i));
        bytes -= size;
        return ptr;
      }
    }
    return nullptr;
  }

  /// Hand every block back to the heap.
  void release() noexcept {
    for (const auto& block : blocks) ::operator delete(block.second);
    counters->idle_bytes -= bytes;
    blocks.clear();
    bytes = 0;
  }
};

class ThreadCache {
 public:
  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() {
    for (CacheBin& bin : bins_) bin.release();
  }

  /// This thread's bin for the device metered by `counters`, or nullptr if
  /// there is no memory to open one.
  CacheBin* bin(const std::shared_ptr<MeterCounters>& counters) noexcept {
    const std::uint64_t deaths =
        g_device_deaths.load(std::memory_order_acquire);
    if (deaths != seen_deaths_) {
      seen_deaths_ = deaths;
      drop_dead();
    }
    for (CacheBin& b : bins_) {
      if (b.counters == counters) return &b;
    }
    try {
      CacheBin fresh{counters, {}, 0};
      fresh.blocks.reserve(kThreadCacheBlocks);  // so a free never throws
      if (bins_.size() == kThreadCacheDevices) {
        bins_.front().release();
        bins_.erase(bins_.begin());
      }
      bins_.push_back(std::move(fresh));
    } catch (const std::bad_alloc&) {
      return nullptr;
    }
    return &bins_.back();
  }

  void drop_dead() noexcept {
    for (auto it = bins_.begin(); it != bins_.end();) {
      if (it->counters->dead.load(std::memory_order_acquire)) {
        it->release();
        it = bins_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  std::vector<CacheBin> bins_;
  std::uint64_t seen_deaths_ = 0;
};

// The calling thread's cache, behind trivially destructible thread_locals:
// static objects free device memory after the thread_locals that have
// destructors are gone, and those frees must find `t_cache_gone` intact
// and bypass the cache.
thread_local ThreadCache* t_cache = nullptr;
thread_local bool t_cache_gone = false;

struct ThreadCacheOwner {
  ThreadCacheOwner() = default;
  ThreadCacheOwner(const ThreadCacheOwner&) = delete;
  ThreadCacheOwner& operator=(const ThreadCacheOwner&) = delete;
  ~ThreadCacheOwner() {
    delete t_cache;
    t_cache = nullptr;
    t_cache_gone = true;
  }
};

ThreadCache* thread_cache() noexcept {
  if (t_cache == nullptr && !t_cache_gone) {
    thread_local ThreadCacheOwner owner;  // returns the blocks at thread exit
    (void)owner;
    t_cache = new (std::nothrow) ThreadCache();
  }
  return t_cache;
}

/// Shared accounting + heap-backed allocation. Host and SimGpu differ only
/// in whether a capacity is enforced. The accounting is lock-free and
/// exact. Freed blocks wait for the next request of their exact byte count,
/// as a GPU keeps its pages, instead of being re-faulted from the heap
/// every round: first in the freeing thread's small cache, then in the
/// device's shared idle list. They are invisible to stats() and capacity
/// (docs/MEMORY.md, "Host backing").
class MeteredDevice final : public Device {
 public:
  MeteredDevice(DeviceKind kind, std::string name, std::size_t capacity)
      : kind_(kind),
        name_(std::move(name)),
        capacity_(capacity),
        counters_(std::make_shared<MeterCounters>()) {}

  ~MeteredDevice() override {
    counters_->dead.store(true, std::memory_order_release);
    g_device_deaths.fetch_add(1, std::memory_order_release);
    if (t_cache != nullptr) t_cache->drop_dead();
    util::MutexLock lock(mutex_);
    for (const auto& entry : idle_) {
      for (void* ptr : entry.second) ::operator delete(ptr);
    }
  }

  DeviceKind kind() const noexcept override { return kind_; }
  const std::string& name() const noexcept override { return name_; }

  void* allocate(std::size_t bytes) override {
    // Look for an idle block first, so that the accounting and the idle
    // count below update the counters' cache line back to back.
    void* idle = bytes == 0 ? nullptr : take_idle(bytes);
    MeterCounters& c = *counters_;
    std::size_t live = c.allocated.load();
    do {
      if (capacity_ != 0 && bytes > capacity_ - live) {
        if (idle != nullptr) keep_or_release(idle, bytes);
        throw OutOfMemory("device '" + name_ + "' out of memory", bytes,
                          capacity_ - live);
      }
    } while (!c.allocated.compare_exchange_weak(live, live + bytes));
    raise_to(c.peak, live + bytes);
    raise_to(c.high_water, live + bytes);
    c.lifetime_allocs.fetch_add(1, std::memory_order_relaxed);
    c.lifetime_bytes.fetch_add(bytes, std::memory_order_relaxed);

    void* ptr = idle;
    if (idle != nullptr) {
      c.idle_bytes -= bytes;
      ASAN_UNPOISON_MEMORY_REGION(ptr, bytes);
    } else if (bytes == 0) {
      // Distinct non-null sentinel; operator new(1) is cheap and unique.
      ptr = ::operator new(1);
    } else {
      try {
        ptr = ::operator new(bytes);
      } catch (const std::bad_alloc&) {
        c.allocated -= bytes;
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
#if MENOS_DCHECK_IS_ON
    {
      // Contract (device.h): `bytes` must match the original request. The
      // AuditDevice decorator reports this with full context; this DCHECK
      // keeps Debug builds honest even with auditing disabled.
      util::MutexLock lock(mutex_);
      const auto it = debug_sizes_.find(ptr);
      MENOS_DCHECK_MSG(it != debug_sizes_.end(),
                       "device '" << name_
                                  << "': deallocate of unknown pointer "
                                  << ptr);
      MENOS_DCHECK_MSG(it->second == bytes,
                       "device '" << name_ << "': deallocate size " << bytes
                                  << " != allocated size " << it->second);
      debug_sizes_.erase(it);
    }
#endif
    MeterCounters& c = *counters_;
    c.allocated -= bytes;
    c.lifetime_frees.fetch_add(1, std::memory_order_relaxed);
    if (bytes != 0 && reserve_idle(bytes)) {
      ASAN_POISON_MEMORY_REGION(ptr, bytes);
      keep_or_release(ptr, bytes);
      return;
    }
    ::operator delete(ptr);
  }

  MemoryStats stats() const override {
    const MeterCounters& c = *counters_;
    MemoryStats s;
    s.capacity = capacity_;
    s.allocated = c.allocated.load();
    // An allocation that has raised `allocated` may not have raised `peak`
    // yet; the peak it reached is part of this snapshot all the same.
    s.peak = std::max(c.peak.load(), s.allocated);
    s.lifetime_allocs = c.lifetime_allocs.load(std::memory_order_relaxed);
    s.lifetime_frees = c.lifetime_frees.load(std::memory_order_relaxed);
    s.lifetime_bytes = c.lifetime_bytes.load(std::memory_order_relaxed);
    return s;
  }

  std::size_t reset_peak() override {
    MeterCounters& c = *counters_;
    const std::size_t base = c.allocated.load();
    c.peak.store(base);
    // An allocation between the load and the store may have raised `peak`
    // before the store lowered it again; re-raise it to what is live.
    raise_to(c.peak, c.allocated.load());
    return base;
  }

 private:
  /// Claim `bytes` of the idle bound: idle + bytes <= high_water.
  bool reserve_idle(std::size_t bytes) noexcept {
    MeterCounters& c = *counters_;
    std::size_t idle = c.idle_bytes.load(std::memory_order_relaxed);
    do {
      if (idle + bytes > c.high_water.load(std::memory_order_relaxed)) {
        return false;
      }
    } while (!c.idle_bytes.compare_exchange_weak(idle, idle + bytes,
                                                 std::memory_order_relaxed));
    return true;
  }

  CacheBin* thread_bin() noexcept {
    ThreadCache* cache = thread_cache();
    return cache == nullptr ? nullptr : cache->bin(counters_);
  }

  /// Record an idle block: in this thread's bin, which, when full, first
  /// moves its older half to the shared list in one lock hold; in the list
  /// when no bin takes it. False when there is no memory to record it.
  bool keep_idle(void* ptr, std::size_t bytes) noexcept {
    CacheBin* bin = bytes <= kThreadCacheMaxBlock ? thread_bin() : nullptr;
    if (bin != nullptr && !bin->fits(bytes)) spill_older_half(*bin);
    if (bin != nullptr && bin->fits(bytes)) {
      bin->push(bytes, ptr);
      return true;
    }
    util::MutexLock lock(mutex_);
    try {
      idle_[bytes].push_back(ptr);
    } catch (const std::bad_alloc&) {
      return false;
    }
    listed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// keep_idle, or, with no memory to record the block, release it.
  void keep_or_release(void* ptr, std::size_t bytes) noexcept {
    if (keep_idle(ptr, bytes)) return;
    counters_->idle_bytes -= bytes;
    ::operator delete(ptr);
  }

  void spill_older_half(CacheBin& bin) noexcept {
    std::size_t moved = 0;
    {
      util::MutexLock lock(mutex_);
      try {
        while (moved < bin.blocks.size() &&
               (2 * bin.bytes > kThreadCacheBytes ||
                2 * (bin.blocks.size() - moved) > kThreadCacheBlocks)) {
          const auto [size, ptr] = bin.blocks[moved];
          idle_[size].push_back(ptr);
          bin.bytes -= size;
          ++moved;
        }
      } catch (const std::bad_alloc&) {
        // Keep the rest in the bin.
      }
      listed_.fetch_add(moved, std::memory_order_relaxed);
    }
    bin.blocks.erase(bin.blocks.begin(),
                     bin.blocks.begin() + static_cast<std::ptrdiff_t>(moved));
  }

  /// An idle block of exactly `bytes`, still poisoned and counted idle, or
  /// nullptr. A bin miss that the shared list serves also refills the bin
  /// with that size, up to half the bin, in the same lock hold.
  void* take_idle(std::size_t bytes) {
    CacheBin* bin = bytes <= kThreadCacheMaxBlock ? thread_bin() : nullptr;
    void* ptr = bin != nullptr ? bin->take(bytes) : nullptr;
    // A racy emptiness check: missing a block listed this instant costs
    // one heap allocation, never exactness.
    if (ptr == nullptr && listed_.load(std::memory_order_relaxed) != 0) {
      util::MutexLock lock(mutex_);
      const auto it = idle_.find(bytes);  // never holds 0-byte sentinels
      if (it != idle_.end() && !it->second.empty()) {
        std::vector<void*>& list = it->second;
        ptr = list.back();
        list.pop_back();
        std::size_t moved = 1;
        while (bin != nullptr && !list.empty() &&
               2 * (bin->bytes + bytes) <= kThreadCacheBytes &&
               2 * (bin->blocks.size() + 1) <= kThreadCacheBlocks) {
          bin->push(bytes, list.back());
          list.pop_back();
          ++moved;
        }
        listed_.fetch_sub(moved, std::memory_order_relaxed);
      }
    }
    return ptr;
  }

  DeviceKind kind_;
  std::string name_;
  std::size_t capacity_;  // 0 = unlimited; immutable after construction
  const std::shared_ptr<MeterCounters> counters_;

  // The shared idle list: frees that overflow a thread's cache, and blocks
  // larger than any thread caches.
  util::Mutex mutex_{"gpusim.meter", 54};
  std::unordered_map<std::size_t, std::vector<void*>> idle_
      MENOS_GUARDED_BY(mutex_);
  std::atomic<std::size_t> listed_{0};  // blocks in idle_
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
