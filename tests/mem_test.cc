// Tests for the menos::mem subsystem: the host-offload residency engine.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/device.h"
#include "mem/offload_engine.h"
#include "util/check.h"

namespace menos {
namespace {

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
