// Caching (pooling) allocator for simulated devices — the c10
// CUDACachingAllocator pattern scaled to this repo's byte-exact world.
//
// Real training stacks never return freed tensors to cudaFree: they pool
// them, because allocation cost and fragmentation — not raw capacity — are
// what kill steady-state throughput. CachingAllocator reproduces that
// layer as a gpusim::Device decorator:
//
//   * requests are rounded into buckets (multiples of 512 B below 1 MiB,
//     of 64 KiB above) so freed blocks are reusable across nearby sizes,
//   * small buckets are carved out of 2 MiB segments obtained from the
//     inner device; large buckets get a dedicated segment of exactly the
//     rounded size,
//   * freed blocks enter a size-ordered free list (best fit), are split
//     when oversized and coalesced with free address-neighbors on release,
//   * empty_cache() returns fully-idle segments to the inner device, and
//     an inner OutOfMemory triggers an automatic empty_cache() + retry so
//     pooling never changes what fits.
//
// Accounting is deliberately *byte-identical* to an unpooled MeteredDevice:
// stats().allocated / peak report the client's requested bytes, not the
// rounded or segment bytes, so every number the paper's figures measure is
// unchanged by pooling (acceptance criterion of ISSUE 3). The pooling cost
// shows up only in the new fields: stats().cached (segment bytes serving
// no live allocation) and stats().largest_free_block / fragmentation().
//
// Composition order (device.cc factory): audit(cache(meter)). The auditor
// stays outermost so it sees client pointers; the meter stays innermost so
// capacity enforcement is on real segment bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::mem {

/// Pool-level counters, beyond what MemoryStats carries.
struct CacheStats {
  std::uint64_t hits = 0;        ///< allocations served from the pool
  std::uint64_t misses = 0;      ///< allocations that grew a new segment
  std::uint64_t splits = 0;      ///< oversized free blocks split
  std::uint64_t coalesces = 0;   ///< adjacent free blocks merged
  std::uint64_t segments_allocated = 0;
  std::uint64_t segments_released = 0;
  std::size_t segment_bytes = 0;   ///< bytes currently held from the inner
  std::size_t active_bytes = 0;    ///< requested bytes of live allocations
  std::size_t active_rounded = 0;  ///< bucket-rounded bytes of live allocs
  std::size_t cached_bytes = 0;    ///< segment_bytes - active_rounded

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class CachingAllocator final : public gpusim::Device {
 public:
  /// Rounding buckets (see file comment). Exposed for tests/benches.
  static constexpr std::size_t kSmallAlign = 512;
  static constexpr std::size_t kLargeAlign = 64u << 10;
  static constexpr std::size_t kSmallLimit = 1u << 20;  ///< < 1 MiB = small
  static constexpr std::size_t kSmallSegment = 2u << 20;
  /// A free block is split when the remainder is at least this large.
  static constexpr std::size_t kMinSplit = 512;

  explicit CachingAllocator(std::unique_ptr<gpusim::Device> inner);
  ~CachingAllocator() override;

  gpusim::DeviceKind kind() const noexcept override { return inner_->kind(); }
  const std::string& name() const noexcept override { return inner_->name(); }

  void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr, std::size_t bytes) noexcept override;
  gpusim::MemoryStats stats() const override;
  std::size_t reset_peak() override;
  void empty_cache() override;

  CacheStats cache_stats() const;

  /// Bucket-rounded size for a request (exposed for tests).
  static std::size_t round_size(std::size_t bytes) noexcept;

  Device& inner() noexcept { return *inner_; }
  const Device* unwrap() const noexcept override { return inner_.get(); }

 private:
  struct Segment;

  /// One contiguous run inside a segment. Blocks form an address-ordered
  /// doubly-linked list per segment for O(1) neighbor coalescing.
  struct Block {
    Segment* segment = nullptr;
    void* ptr = nullptr;
    std::size_t size = 0;  ///< rounded bytes
    bool free = false;
    Block* prev = nullptr;
    Block* next = nullptr;
  };

  struct Segment {
    void* base = nullptr;
    std::size_t size = 0;
    Block* first = nullptr;  ///< lowest-address block
  };

  using FreeKey = std::pair<std::size_t, Block*>;  // (size, addr) best-fit

  Block* find_or_grow_locked(std::size_t rounded) MENOS_REQUIRES(mutex_);
  Segment* grow_locked(std::size_t segment_size) MENOS_REQUIRES(mutex_);
  void split_locked(Block* block, std::size_t rounded) MENOS_REQUIRES(mutex_);
  Block* coalesce_locked(Block* block) MENOS_REQUIRES(mutex_);
  void release_idle_segments_locked() MENOS_REQUIRES(mutex_);
  std::size_t largest_free_locked() const MENOS_REQUIRES(mutex_);

  std::unique_ptr<gpusim::Device> inner_;

  // Lock class assigned in the constructor via decorator_lock_name():
  // pooling over an already-decorated device gets a depth-suffixed class.
  mutable util::Mutex mutex_;  // NOLINT(mutex-name)
  std::set<FreeKey> free_blocks_ MENOS_GUARDED_BY(mutex_);
  // Owning storage: segment base -> Segment; block ptr -> Block.
  std::map<void*, std::unique_ptr<Segment>> segments_ MENOS_GUARDED_BY(mutex_);
  std::unordered_map<void*, std::unique_ptr<Block>> blocks_
      MENOS_GUARDED_BY(mutex_);
  /// Live client allocations: ptr -> requested (unrounded) size. A size of
  /// 0 marks a zero-byte sentinel passed straight through to the inner
  /// device (no block exists for it).
  std::unordered_map<void*, std::size_t> active_ MENOS_GUARDED_BY(mutex_);

  CacheStats cache_ MENOS_GUARDED_BY(mutex_);
  std::size_t peak_requested_ MENOS_GUARDED_BY(mutex_) = 0;
  std::uint64_t lifetime_allocs_ MENOS_GUARDED_BY(mutex_) = 0;
  std::uint64_t lifetime_frees_ MENOS_GUARDED_BY(mutex_) = 0;
  std::size_t lifetime_bytes_ MENOS_GUARDED_BY(mutex_) = 0;
};

/// Wrap `inner` (typically a metered SimGpu) in the pooling layer.
std::unique_ptr<gpusim::Device> make_caching_device(
    std::unique_ptr<gpusim::Device> inner);

}  // namespace menos::mem
