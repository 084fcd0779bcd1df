// Tests for the menos::mem subsystem: the caching (pooling) allocator and
// the host-offload residency engine (ISSUE 3).
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/device.h"
#include "mem/caching_allocator.h"
#include "mem/offload_engine.h"
#include "util/check.h"
#include "util/rng.h"

namespace menos {
namespace {

using mem::CachingAllocator;

std::unique_ptr<CachingAllocator> make_allocator(std::string name,
                                                 std::size_t capacity) {
  // Pin the factory to the unpooled meter while building the inner device
  // so these tests exercise exactly one pooling layer even under the CI
  // leg that exports MENOS_CACHING_ALLOC=1.
  const char* saved = std::getenv("MENOS_CACHING_ALLOC");
  const std::string restore = saved == nullptr ? "" : saved;
  setenv("MENOS_CACHING_ALLOC", "0", 1);
  auto inner = gpusim::make_sim_gpu(std::move(name), capacity);
  if (saved == nullptr) {
    unsetenv("MENOS_CACHING_ALLOC");
  } else {
    setenv("MENOS_CACHING_ALLOC", restore.c_str(), 1);
  }
  return std::make_unique<CachingAllocator>(std::move(inner));
}

TEST(CachingAllocatorTest, RoundSizeBuckets) {
  EXPECT_EQ(CachingAllocator::round_size(0), 0u);
  EXPECT_EQ(CachingAllocator::round_size(1), 512u);
  EXPECT_EQ(CachingAllocator::round_size(512), 512u);
  EXPECT_EQ(CachingAllocator::round_size(513), 1024u);
  // At and above 1 MiB the bucket is 64 KiB.
  EXPECT_EQ(CachingAllocator::round_size(1u << 20), 1u << 20);
  EXPECT_EQ(CachingAllocator::round_size((1u << 20) + 1),
            (1u << 20) + (64u << 10));
}

TEST(CachingAllocatorTest, FreedBlockIsReusedWithoutTouchingInner) {
  auto alloc = make_allocator("reuse", 32u << 20);
  void* a = alloc->allocate(1000);
  const auto after_first = alloc->cache_stats();
  EXPECT_EQ(after_first.misses, 1u);  // first allocation grows a segment
  alloc->deallocate(a, 1000);
  void* b = alloc->allocate(900);  // same 1024-byte bucket
  EXPECT_EQ(a, b);
  const auto after_second = alloc->cache_stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_EQ(after_second.segments_allocated, 1u);
  alloc->deallocate(b, 900);
}

TEST(CachingAllocatorTest, ByteIdenticalAccounting) {
  // stats().allocated and .peak must report the client's *requested* bytes
  // — exactly what an unpooled MeteredDevice reports — never the rounded
  // bucket or segment sizes (the ISSUE 3 acceptance criterion behind the
  // fig5 byte-identity check).
  auto alloc = make_allocator("exact", 64u << 20);
  void* a = alloc->allocate(1000);   // rounds to 1024
  void* b = alloc->allocate(70000);  // rounds to 70144
  EXPECT_EQ(alloc->stats().allocated, 71000u);
  EXPECT_EQ(alloc->stats().peak, 71000u);
  alloc->deallocate(a, 1000);
  EXPECT_EQ(alloc->stats().allocated, 70000u);
  EXPECT_EQ(alloc->stats().peak, 71000u);
  alloc->reset_peak();
  EXPECT_EQ(alloc->stats().peak, 70000u);
  alloc->deallocate(b, 70000);
  EXPECT_EQ(alloc->stats().allocated, 0u);
  // The pooling cost is visible only in the cached field.
  EXPECT_GT(alloc->stats().cached, 0u);
  alloc->empty_cache();
  EXPECT_EQ(alloc->stats().cached, 0u);
  EXPECT_EQ(alloc->inner().allocated(), 0u);
}

TEST(CachingAllocatorTest, SplitAndCoalesce) {
  auto alloc = make_allocator("split", 32u << 20);
  // Carve three neighbors out of one small segment, then free them all:
  // they must coalesce back into a single block covering the segment,
  // which empty_cache then returns to the inner device.
  void* a = alloc->allocate(100 * 1024);
  void* b = alloc->allocate(100 * 1024);
  void* c = alloc->allocate(100 * 1024);
  auto stats = alloc->cache_stats();
  EXPECT_EQ(stats.segments_allocated, 1u);  // all three share the 2 MiB pool
  EXPECT_GE(stats.splits, 3u);
  alloc->deallocate(a, 100 * 1024);
  alloc->deallocate(c, 100 * 1024);
  alloc->deallocate(b, 100 * 1024);  // middle last: merges both neighbors
  stats = alloc->cache_stats();
  EXPECT_GE(stats.coalesces, 2u);
  alloc->empty_cache();
  EXPECT_EQ(alloc->cache_stats().segment_bytes, 0u);
  EXPECT_EQ(alloc->inner().allocated(), 0u);
}

TEST(CachingAllocatorTest, OomFlushesIdleSegmentsAndRetries) {
  auto alloc = make_allocator("oom-retry", 4u << 20);
  // A freed 1.5 MiB segment holds capacity hostage; a 3 MiB request is too
  // big for the cached block AND for the remaining inner capacity, so the
  // allocator must flush the idle segment and retry — pooling never
  // changes what fits.
  void* a = alloc->allocate(3u << 19);
  alloc->deallocate(a, 3u << 19);
  EXPECT_GT(alloc->stats().cached, 0u);
  void* b = alloc->allocate(3u << 20);
  EXPECT_NE(b, nullptr);
  EXPECT_GE(alloc->cache_stats().segments_released, 1u);
  alloc->deallocate(b, 3u << 20);
  // And a genuinely impossible request still throws.
  EXPECT_THROW(alloc->allocate(8u << 20), OutOfMemory);
}

TEST(CachingAllocatorTest, SmallSegmentFallsBackToExactSizeOnTinyDevices) {
  // Capacity below the 2 MiB small-segment size: small requests must fall
  // back to exact-size segments instead of failing.
  auto alloc = make_allocator("tiny", 1u << 20);
  void* a = alloc->allocate(600 * 1024);
  void* b = alloc->allocate(400 * 1024);
  EXPECT_EQ(alloc->stats().allocated, 1024000u);
  alloc->deallocate(a, 600 * 1024);
  alloc->deallocate(b, 400 * 1024);
  alloc->empty_cache();
  EXPECT_EQ(alloc->inner().allocated(), 0u);
}

TEST(CachingAllocatorTest, ZeroByteAllocationsPassThrough) {
  auto alloc = make_allocator("zero", 1u << 20);
  void* a = alloc->allocate(0);
  void* b = alloc->allocate(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);  // unique-sentinel contract preserved
  EXPECT_EQ(alloc->stats().allocated, 0u);
  alloc->deallocate(a, 0);
  alloc->deallocate(b, 0);
}

TEST(CachingAllocatorTest, FragmentationSurfacesInStats) {
  auto alloc = make_allocator("frag", 8u << 20);
  // Alternate live/free 256 KiB blocks inside one segment: free capacity
  // exists but the largest contiguous block is smaller, so
  // fragmentation() > 0.
  std::vector<void*> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(alloc->allocate(256 * 1024));
  for (std::size_t i = 0; i < ptrs.size(); i += 2) {
    alloc->deallocate(ptrs[i], 256 * 1024);
  }
  const gpusim::MemoryStats s = alloc->stats();
  EXPECT_GT(s.largest_free_block, 0u);
  EXPECT_GT(s.fragmentation(), 0.0);
  EXPECT_LT(s.fragmentation(), 1.0);
  for (std::size_t i = 1; i < ptrs.size(); i += 2) {
    alloc->deallocate(ptrs[i], 256 * 1024);
  }
  alloc->empty_cache();
  EXPECT_EQ(alloc->stats().fragmentation(), 0.0);
}

TEST(CachingAllocatorTest, SteadyStateHitRateExceedsNinetyPercent) {
  // The ISSUE 3 acceptance loop: a steady-state allocation pattern (what a
  // training iteration looks like) must be served almost entirely from the
  // pool after warm-up.
  auto alloc = make_allocator("steady", 256u << 20);
  const std::size_t sizes[] = {4096,        65536,  1u << 20, 8192,
                               3u << 20,    300000, 512,      96 * 1024};
  std::vector<void*> ptrs;
  for (int round = 0; round < 50; ++round) {
    for (std::size_t size : sizes) ptrs.push_back(alloc->allocate(size));
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      alloc->deallocate(ptrs[i], sizes[i]);
    }
    ptrs.clear();
  }
  EXPECT_GT(alloc->cache_stats().hit_rate(), 0.9);
  alloc->empty_cache();
  EXPECT_EQ(alloc->inner().allocated(), 0u);
}

TEST(CachingAllocatorStressTest, RandomizedAllocFreeMatchesExactAccounting) {
  // Deterministic random alloc/free storm, shadow-accounted in the test:
  // at every step the pooled device's allocated/peak must equal the sum
  // of live *requested* bytes and its running maximum — the same numbers
  // an unpooled MeteredDevice produces. Runs under the ASan/TSan CI legs.
  auto alloc = make_allocator("stress", 64u << 20);
  util::Rng rng(0x5eedu);

  struct Live {
    void* ptr;
    std::size_t bytes;
  };
  std::vector<Live> live;
  std::size_t live_bytes = 0;
  std::size_t peak_bytes = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc =
        live.empty() ||
        (live_bytes < (24u << 20) && rng.next_below(100) < 55);
    if (do_alloc) {
      // Mostly small tensor-ish sizes, occasionally a large activation.
      std::size_t bytes = rng.next_below(100) < 90
                              ? 1 + rng.next_below(128 * 1024)
                              : (1u << 20) + rng.next_below(2u << 20);
      void* ptr = alloc->allocate(bytes);
      ASSERT_NE(ptr, nullptr);
      live.push_back(Live{ptr, bytes});
      live_bytes += bytes;
      peak_bytes = std::max(peak_bytes, live_bytes);
    } else {
      const std::size_t victim = rng.next_below(live.size());
      alloc->deallocate(live[victim].ptr, live[victim].bytes);
      live_bytes -= live[victim].bytes;
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(alloc->stats().allocated, live_bytes) << "step " << step;
    ASSERT_EQ(alloc->stats().peak, peak_bytes) << "step " << step;
  }
  for (const Live& l : live) alloc->deallocate(l.ptr, l.bytes);
  EXPECT_EQ(alloc->stats().allocated, 0u);
  EXPECT_EQ(alloc->stats().peak, peak_bytes);
  const auto cache = alloc->cache_stats();
  EXPECT_GT(cache.hit_rate(), 0.5);  // pooling must actually engage
  alloc->empty_cache();
  EXPECT_EQ(alloc->stats().cached, 0u);
  EXPECT_EQ(alloc->inner().allocated(), 0u);
}

// ---------------------------------------------------------------------------
// OffloadEngine
// ---------------------------------------------------------------------------

/// A fake residency world: a byte budget standing in for the scheduler
/// pool, and a per-unit location flag standing in for tensor migration.
struct FakeWorld {
  std::size_t free_bytes = 0;
  std::vector<std::string> log;

  mem::UnitCallbacks callbacks_for(int id, std::size_t bytes) {
    mem::UnitCallbacks cb;
    cb.move = [this, id](bool to_device) {
      log.push_back((to_device ? "in:" : "out:") + std::to_string(id));
      if (!to_device) free_bytes += 0;  // scheduler credits eviction itself
    };
    cb.charge = [this, id, bytes] {
      if (bytes > free_bytes) {
        throw OutOfMemory("fake pool exhausted", bytes, free_bytes);
      }
      free_bytes -= bytes;
      log.push_back("charge:" + std::to_string(id));
    };
    return cb;
  }
};

TEST(OffloadEngineTest, EvictIdleFreesLruFirst) {
  mem::OffloadEngine engine;
  FakeWorld world;
  engine.register_unit(1, 100, world.callbacks_for(1, 100));
  engine.register_unit(2, 50, world.callbacks_for(2, 50));
  // Touch unit 1 so unit 2 becomes the least recently used.
  engine.begin_use(1);
  engine.end_use(1);

  const std::size_t freed = engine.evict_idle(40);
  EXPECT_EQ(freed, 50u);  // unit 2: LRU, and 50 >= 40
  EXPECT_FALSE(engine.resident(2));
  EXPECT_TRUE(engine.resident(1));
  ASSERT_EQ(world.log.size(), 1u);
  EXPECT_EQ(world.log[0], "out:2");
  EXPECT_EQ(engine.stats().swap_outs, 1u);
  EXPECT_EQ(engine.stats().bytes_out, 50u);
  EXPECT_EQ(engine.resident_bytes(), 100u);
}

TEST(OffloadEngineTest, EvictSkipsBusyAndExceptedUnits) {
  mem::OffloadEngine engine;
  FakeWorld world;
  engine.register_unit(1, 100, world.callbacks_for(1, 100));
  engine.register_unit(2, 100, world.callbacks_for(2, 100));
  engine.register_unit(3, 100, world.callbacks_for(3, 100));
  engine.begin_use(1);  // busy: never evicted
  EXPECT_EQ(engine.evict_idle(1000, /*except_id=*/2), 100u);  // only 3 left
  EXPECT_TRUE(engine.resident(1));
  EXPECT_TRUE(engine.resident(2));
  EXPECT_FALSE(engine.resident(3));
  engine.end_use(1);
  EXPECT_EQ(engine.evict_idle(1000, /*except_id=*/2), 100u);  // now 1 goes
  EXPECT_FALSE(engine.resident(1));
}

TEST(OffloadEngineTest, EnsureResidentChargesThenMovesIn) {
  mem::OffloadEngine engine;
  FakeWorld world;
  world.free_bytes = 0;
  engine.register_unit(7, 64, world.callbacks_for(7, 64));
  ASSERT_EQ(engine.evict_idle(64), 64u);
  world.log.clear();

  world.free_bytes = 100;
  engine.ensure_resident(7);
  EXPECT_TRUE(engine.resident(7));
  ASSERT_EQ(world.log.size(), 2u);
  EXPECT_EQ(world.log[0], "charge:7");  // charge strictly before move
  EXPECT_EQ(world.log[1], "in:7");
  EXPECT_EQ(world.free_bytes, 36u);
  EXPECT_EQ(engine.stats().swap_ins, 1u);
  // Already resident: a second call is a no-op.
  engine.ensure_resident(7);
  EXPECT_EQ(engine.stats().swap_ins, 1u);
}

TEST(OffloadEngineTest, FailedChargeLeavesUnitOnHostAndThrows) {
  mem::OffloadEngine engine;
  FakeWorld world;
  engine.register_unit(7, 64, world.callbacks_for(7, 64));
  ASSERT_EQ(engine.evict_idle(64), 64u);
  world.free_bytes = 10;  // not enough for the charge
  EXPECT_THROW(engine.ensure_resident(7), OutOfMemory);
  EXPECT_EQ(engine.residency(7), mem::Residency::OnHost);
  EXPECT_EQ(engine.stats().swap_ins, 0u);
  // More room later: the retry succeeds.
  world.free_bytes = 64;
  engine.ensure_resident(7);
  EXPECT_TRUE(engine.resident(7));
}

TEST(OffloadEngineTest, UnregisterReportsWhetherChargeIsStillHeld) {
  mem::OffloadEngine engine;
  FakeWorld world;
  engine.register_unit(1, 100, world.callbacks_for(1, 100));
  engine.register_unit(2, 100, world.callbacks_for(2, 100));
  ASSERT_EQ(engine.evict_idle(100), 100u);  // unit 1 (older stamp)
  EXPECT_FALSE(engine.unregister_unit(1));  // evicted: charge already back
  EXPECT_TRUE(engine.unregister_unit(2));   // resident: caller must release
  EXPECT_FALSE(engine.unregister_unit(2));  // unknown now
}

TEST(OffloadEngineTest, ReleaseUnitSwapsOutAndReportsHeldCharge) {
  mem::OffloadEngine engine;
  FakeWorld world;
  engine.register_unit(1, 100, world.callbacks_for(1, 100));

  // Resident at release: the unit is moved out and the charge reported as
  // still held (the migration caller releases it on the source shard).
  const mem::ExportedUnit out = engine.release_unit(1);
  EXPECT_EQ(out.bytes, 100u);
  EXPECT_TRUE(out.was_resident);
  ASSERT_EQ(world.log.size(), 1u);
  EXPECT_EQ(world.log[0], "out:1");
  EXPECT_EQ(engine.stats().swap_outs, 1u);
  EXPECT_EQ(engine.stats().bytes_out, 100u);
  EXPECT_FALSE(engine.resident(1));  // unknown id -> not resident

  // Already-evicted at release: no move, no charge to release.
  engine.register_unit(2, 60, world.callbacks_for(2, 60));
  ASSERT_EQ(engine.evict_idle(60), 60u);
  world.log.clear();
  const mem::ExportedUnit out2 = engine.release_unit(2);
  EXPECT_EQ(out2.bytes, 60u);
  EXPECT_FALSE(out2.was_resident);
  EXPECT_TRUE(world.log.empty());
}

TEST(OffloadEngineTest, AdoptedUnitLandsOnHostAndChargesOnFirstUse) {
  // Two engines standing in for two shards with separate pools.
  mem::OffloadEngine src;
  mem::OffloadEngine dst;
  FakeWorld src_world;
  FakeWorld dst_world;
  src.register_unit(5, 128, src_world.callbacks_for(5, 128));

  const mem::ExportedUnit moved = src.release_unit(5);
  dst.adopt_unit(5, moved, dst_world.callbacks_for(5, 128));

  // Adoption itself takes no charge and moves nothing.
  EXPECT_EQ(dst.residency(5), mem::Residency::OnHost);
  EXPECT_TRUE(dst_world.log.empty());
  EXPECT_EQ(dst.resident_bytes(), 0u);

  // First ensure_resident behaves exactly like a post-eviction return:
  // charge the destination pool, then move in.
  dst_world.free_bytes = 128;
  dst.ensure_resident(5);
  EXPECT_TRUE(dst.resident(5));
  ASSERT_EQ(dst_world.log.size(), 2u);
  EXPECT_EQ(dst_world.log[0], "charge:5");
  EXPECT_EQ(dst_world.log[1], "in:5");
  EXPECT_EQ(dst_world.free_bytes, 0u);

  // The adopted unit is a full citizen: evictable, unregisterable.
  EXPECT_EQ(dst.evict_idle(1), 128u);
  EXPECT_FALSE(dst.unregister_unit(5));
}

TEST(OffloadEngineTest, TransferTimeIsPricedWithTheSharedModel) {
  const gpusim::TransferModel model{1.0e9, 1.0e-3};
  mem::OffloadEngine engine(model);
  FakeWorld world;
  engine.register_unit(1, 1000000, world.callbacks_for(1, 1000000));
  ASSERT_EQ(engine.evict_idle(1), 1000000u);
  world.free_bytes = 1000000;
  engine.ensure_resident(1);
  // One out + one in, each latency + bytes/bandwidth.
  EXPECT_DOUBLE_EQ(engine.stats().modeled_transfer_s,
                   2 * model.seconds_for(1000000));
}

}  // namespace
}  // namespace menos
