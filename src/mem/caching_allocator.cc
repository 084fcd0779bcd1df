#include "mem/caching_allocator.h"

#include <algorithm>

#include "util/check.h"

namespace menos::mem {

CachingAllocator::CachingAllocator(std::unique_ptr<gpusim::Device> inner)
    : inner_(std::move(inner)),
      mutex_(
          gpusim::decorator_lock_name("mem.caching_alloc", inner_.get())
              .c_str(),
          gpusim::decorator_lock_rank(52, inner_.get())) {
  MENOS_CHECK_MSG(inner_ != nullptr, "CachingAllocator needs an inner device");
}

CachingAllocator::~CachingAllocator() {
  util::MutexLock lock(mutex_);
  // Live client allocations (a leak upstream) keep their segments pinned;
  // returning them to the inner device would free memory still in use. Only
  // fully idle segments go back — the inner/audit layers then report any
  // genuine leak with their own diagnostics.
  release_idle_segments_locked();
}

std::size_t CachingAllocator::round_size(std::size_t bytes) noexcept {
  if (bytes == 0) return 0;
  const std::size_t align = bytes < kSmallLimit ? kSmallAlign : kLargeAlign;
  return (bytes + align - 1) / align * align;
}

void* CachingAllocator::allocate(std::size_t bytes) {
  if (bytes == 0) {
    // Keep the inner device's unique-sentinel contract; no pooling value.
    void* ptr = inner_->allocate(0);
    util::MutexLock lock(mutex_);
    active_[ptr] = 0;
    ++lifetime_allocs_;
    return ptr;
  }
  const std::size_t rounded = round_size(bytes);
  util::MutexLock lock(mutex_);
  Block* block = find_or_grow_locked(rounded);
  split_locked(block, rounded);
  block->free = false;
  active_[block->ptr] = bytes;
  cache_.active_bytes += bytes;
  cache_.active_rounded += block->size;
  cache_.cached_bytes = cache_.segment_bytes - cache_.active_rounded;
  peak_requested_ = std::max(peak_requested_, cache_.active_bytes);
  ++lifetime_allocs_;
  lifetime_bytes_ += bytes;
  return block->ptr;
}

CachingAllocator::Block* CachingAllocator::find_or_grow_locked(
    std::size_t rounded) {
  // Best fit: the smallest free block that covers the request.
  auto it = free_blocks_.lower_bound(FreeKey{rounded, nullptr});
  if (it != free_blocks_.end()) {
    Block* block = it->second;
    free_blocks_.erase(it);
    ++cache_.hits;
    return block;
  }
  ++cache_.misses;
  // Small requests share 2 MiB segments; large ones get an exact segment.
  // If even the small segment does not fit the inner capacity (tiny test
  // devices), fall back to an exact-size segment before giving up.
  std::size_t segment_size =
      rounded < kSmallLimit ? std::max<std::size_t>(kSmallSegment, rounded)
                            : rounded;
  Segment* segment = nullptr;
  try {
    segment = grow_locked(segment_size);
  } catch (const OutOfMemory&) {
    if (segment_size == rounded) throw;
    segment = grow_locked(rounded);
    segment_size = rounded;
  }
  Block* block = segment->first;
  // grow_locked registered the whole segment as one free block; claim it.
  free_blocks_.erase(FreeKey{block->size, block});
  return block;
}

CachingAllocator::Segment* CachingAllocator::grow_locked(
    std::size_t segment_size) {
  void* base = nullptr;
  try {
    base = inner_->allocate(segment_size);
  } catch (const OutOfMemory&) {
    // Cached-but-idle segments hold capacity hostage; flush and retry once
    // so pooling never changes what fits on the device.
    if (cache_.cached_bytes == 0) throw;
    release_idle_segments_locked();
    base = inner_->allocate(segment_size);
  }
  auto segment = std::make_unique<Segment>();
  segment->base = base;
  segment->size = segment_size;
  auto block = std::make_unique<Block>();
  block->segment = segment.get();
  block->ptr = base;
  block->size = segment_size;
  block->free = true;
  segment->first = block.get();
  free_blocks_.insert(FreeKey{segment_size, block.get()});
  Segment* out = segment.get();
  segments_[base] = std::move(segment);
  blocks_[base] = std::move(block);
  ++cache_.segments_allocated;
  cache_.segment_bytes += segment_size;
  cache_.cached_bytes = cache_.segment_bytes - cache_.active_rounded;
  return out;
}

void CachingAllocator::split_locked(Block* block, std::size_t rounded) {
  MENOS_DCHECK(block->size >= rounded);
  if (block->size - rounded < kMinSplit) return;
  auto rest = std::make_unique<Block>();
  rest->segment = block->segment;
  rest->ptr = static_cast<char*>(block->ptr) + rounded;
  rest->size = block->size - rounded;
  rest->free = true;
  rest->prev = block;
  rest->next = block->next;
  if (block->next != nullptr) block->next->prev = rest.get();
  block->next = rest.get();
  block->size = rounded;
  free_blocks_.insert(FreeKey{rest->size, rest.get()});
  blocks_[rest->ptr] = std::move(rest);
  ++cache_.splits;
}

void CachingAllocator::deallocate(void* ptr, std::size_t bytes) noexcept {
  (void)bytes;  // only checked against the recorded request (Debug builds)
  if (ptr == nullptr) return;
  util::MutexLock lock(mutex_);
  const auto it = active_.find(ptr);
  MENOS_DCHECK_MSG(it != active_.end(),
                   "caching allocator '" << inner_->name()
                                         << "': free of unknown pointer "
                                         << ptr);
  if (it == active_.end()) return;  // Release builds: drop the bad free
  MENOS_DCHECK_MSG(it->second == bytes,
                   "caching allocator '" << inner_->name() << "': free size "
                                         << bytes << " != requested size "
                                         << it->second);
  const std::size_t requested = it->second;
  active_.erase(it);
  ++lifetime_frees_;
  if (requested == 0) {
    inner_->deallocate(ptr, 0);
    return;
  }
  const auto bit = blocks_.find(ptr);
  MENOS_DCHECK(bit != blocks_.end());
  Block* block = bit->second.get();
  cache_.active_bytes -= requested;
  cache_.active_rounded -= block->size;
  block->free = true;
  block = coalesce_locked(block);
  free_blocks_.insert(FreeKey{block->size, block});
  cache_.cached_bytes = cache_.segment_bytes - cache_.active_rounded;
}

CachingAllocator::Block* CachingAllocator::coalesce_locked(Block* block) {
  // Merge with the free next neighbor, then with the free previous one;
  // both are O(1) thanks to the per-segment address links.
  const auto absorb = [this](Block* keep, Block* gone) {
    free_blocks_.erase(FreeKey{gone->size, gone});
    keep->size += gone->size;
    keep->next = gone->next;
    if (gone->next != nullptr) gone->next->prev = keep;
    blocks_.erase(gone->ptr);
    ++cache_.coalesces;
  };
  if (block->next != nullptr && block->next->free) absorb(block, block->next);
  if (block->prev != nullptr && block->prev->free) {
    Block* prev = block->prev;
    free_blocks_.erase(FreeKey{prev->size, prev});
    prev->size += block->size;
    prev->next = block->next;
    if (block->next != nullptr) block->next->prev = prev;
    blocks_.erase(block->ptr);
    ++cache_.coalesces;
    // prev was re-inserted conceptually; caller adds it to the free list.
    return prev;
  }
  return block;
}

void CachingAllocator::release_idle_segments_locked() {
  for (auto it = segments_.begin(); it != segments_.end();) {
    Segment* segment = it->second.get();
    Block* first = segment->first;
    // A fully idle segment has exactly one block: free and spanning it.
    if (first->free && first->next == nullptr && first->prev == nullptr &&
        first->size == segment->size) {
      free_blocks_.erase(FreeKey{first->size, first});
      blocks_.erase(first->ptr);
      inner_->deallocate(segment->base, segment->size);
      cache_.segment_bytes -= segment->size;
      ++cache_.segments_released;
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
  cache_.cached_bytes = cache_.segment_bytes - cache_.active_rounded;
}

void CachingAllocator::empty_cache() {
  util::MutexLock lock(mutex_);
  release_idle_segments_locked();
}

std::size_t CachingAllocator::largest_free_locked() const {
  // The pool's biggest block, or untouched inner headroom — whichever
  // single contiguous grant is larger.
  std::size_t best =
      free_blocks_.empty() ? 0 : free_blocks_.rbegin()->first;
  const gpusim::MemoryStats inner = inner_->stats();
  if (inner.capacity != 0) {
    best = std::max(best, inner.capacity - inner.allocated);
  }
  return best;
}

gpusim::MemoryStats CachingAllocator::stats() const {
  util::MutexLock lock(mutex_);
  gpusim::MemoryStats s;
  s.capacity = inner_->stats().capacity;
  // Byte-identical accounting: report the client's requested bytes, exactly
  // as an unpooled MeteredDevice would (see file comment).
  s.allocated = cache_.active_bytes;
  s.peak = peak_requested_;
  s.lifetime_allocs = lifetime_allocs_;
  s.lifetime_frees = lifetime_frees_;
  s.lifetime_bytes = lifetime_bytes_;
  s.cached = cache_.cached_bytes;
  s.largest_free_block = largest_free_locked();
  return s;
}

std::size_t CachingAllocator::reset_peak() {
  util::MutexLock lock(mutex_);
  peak_requested_ = cache_.active_bytes;
  inner_->reset_peak();
  return peak_requested_;
}

CacheStats CachingAllocator::cache_stats() const {
  util::MutexLock lock(mutex_);
  return cache_;
}

std::unique_ptr<gpusim::Device> make_caching_device(
    std::unique_ptr<gpusim::Device> inner) {
  return std::make_unique<CachingAllocator>(std::move(inner));
}

}  // namespace menos::mem
