#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "gpusim/device.h"
#include "test_helpers.h"
#include "util/check.h"

namespace menos::gpusim {
namespace {

// DeviceTest (tests/test_helpers.h) verifies at TearDown that every device
// created through the fixture ends the test with allocated() == 0.
using SimGpuTest = menos::testing::DeviceTest;
using HostDeviceTest = menos::testing::DeviceTest;

TEST_F(SimGpuTest, BasicAccounting) {
  Device& gpu = make_gpu("g0", 1000);
  EXPECT_EQ(gpu.kind(), DeviceKind::SimGpu);
  void* a = gpu.allocate(400);
  EXPECT_EQ(gpu.allocated(), 400u);
  EXPECT_EQ(gpu.available(), 600u);
  void* b = gpu.allocate(600);
  EXPECT_EQ(gpu.available(), 0u);
  gpu.deallocate(a, 400);
  EXPECT_EQ(gpu.allocated(), 600u);
  gpu.deallocate(b, 600);
  EXPECT_EQ(gpu.allocated(), 0u);
}

TEST_F(SimGpuTest, AvailableIsTheWholeFreeCapacity) {
  Device& gpu = make_gpu("g0", 1000);
  // A metered device has no placement model: every free byte is one
  // contiguous grant away.
  EXPECT_EQ(gpu.available(), 1000u);
  void* a = gpu.allocate(400);
  EXPECT_EQ(gpu.available(), 600u);
  EXPECT_EQ(gpu.allocated(), 400u);
  gpu.deallocate(a, 400);
}

TEST_F(HostDeviceTest, UnlimitedDeviceReportsMaxAvailable) {
  Device& host = make_host("h");
  void* a = host.allocate(4096);
  const MemoryStats s = host.stats();
  EXPECT_EQ(s.capacity, 0u);
  EXPECT_EQ(host.available(), std::numeric_limits<std::size_t>::max());
  host.deallocate(a, 4096);
}

TEST_F(SimGpuTest, OomThrowsWithShortfall) {
  Device& gpu = make_gpu("g0", 100);
  void* a = gpu.allocate(60);
  try {
    gpu.allocate(50);
    FAIL() << "expected OutOfMemory";
  } catch (const OutOfMemory& e) {
    EXPECT_EQ(e.requested(), 50u);
    EXPECT_EQ(e.available(), 40u);
  }
  // Failed allocation leaves accounting untouched.
  EXPECT_EQ(gpu.allocated(), 60u);
  gpu.deallocate(a, 60);
}

TEST_F(SimGpuTest, PeakTracking) {
  Device& gpu = make_gpu("g0", 1000);
  void* a = gpu.allocate(300);
  void* b = gpu.allocate(400);
  gpu.deallocate(b, 400);
  EXPECT_EQ(gpu.stats().peak, 700u);
  gpu.reset_peak();
  EXPECT_EQ(gpu.stats().peak, 300u);
  void* c = gpu.allocate(100);
  EXPECT_EQ(gpu.stats().peak, 400u);
  gpu.deallocate(a, 300);
  gpu.deallocate(c, 100);
}

TEST_F(SimGpuTest, ResetPeakReturnsTheLevelItResetTo) {
  // The profiler takes its base from reset_peak(). Read separately, a free
  // landing between allocated() and reset_peak() would leave the base above
  // the new peak and wrap peak - base; the returned level cannot.
  Device& gpu = make_gpu("g0", 1u << 20);
  void* held = gpu.allocate(4096);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      void* p = gpu.allocate(65536);
      gpu.deallocate(p, 65536);
    }
  });
  int violations = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t base = gpu.reset_peak();
    if (gpu.stats().peak < base || base < 4096u) ++violations;
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(violations, 0);
  gpu.deallocate(held, 4096);
}

TEST_F(SimGpuTest, LifetimeCounters) {
  Device& gpu = make_gpu("g0", 1000);
  void* a = gpu.allocate(10);
  void* b = gpu.allocate(20);
  gpu.deallocate(a, 10);
  gpu.deallocate(b, 20);
  const MemoryStats s = gpu.stats();
  EXPECT_EQ(s.lifetime_allocs, 2u);
  EXPECT_EQ(s.lifetime_frees, 2u);
  EXPECT_EQ(s.lifetime_bytes, 30u);
}

TEST_F(SimGpuTest, ZeroByteAllocationsAreDistinct) {
  Device& gpu = make_gpu("g0", 100);
  void* a = gpu.allocate(0);
  void* b = gpu.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
  gpu.deallocate(a, 0);
  gpu.deallocate(b, 0);
  EXPECT_EQ(gpu.allocated(), 0u);
}

TEST_F(SimGpuTest, ConcurrentAllocationNeverExceedsCapacity) {
  Device& gpu = make_gpu("g0", 8000);
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        try {
          void* p = gpu.allocate(100);
          if (gpu.allocated() > 8000) violated.store(true);
          gpu.deallocate(p, 100);
        } catch (const OutOfMemory&) {
          // capacity pressure is expected; over-allocation is not
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(gpu.allocated(), 0u);
}

// ----- Host backing: freed blocks are recycled by exact size --------------
// Invisible to every stat; these cases pin that, and that the recycled
// pointers are real reuse (docs/MEMORY.md, "Host backing").

TEST_F(HostDeviceTest, FreedBlockComesBackForTheSameSizeOnly) {
  Device& host = make_host("h");
  void* a = host.allocate(8192);
  host.deallocate(a, 8192);
  // A smaller request must not take the idle 8 KiB block (a heap would
  // carve it out of the same chunk)...
  void* b = host.allocate(4096);
  EXPECT_NE(b, a);
  // ...and the next request of exactly its size gets it back.
  void* c = host.allocate(8192);
  EXPECT_EQ(c, a);
  host.deallocate(b, 4096);
  host.deallocate(c, 8192);
}

TEST_F(SimGpuTest, RecyclingIsInvisibleToEveryStat) {
  Device& gpu = make_gpu("g0", 10000);
  void* a = gpu.allocate(1000);
  void* b = gpu.allocate(2000);
  gpu.deallocate(a, 1000);
  void* c = gpu.allocate(1000);  // served from the idle list
  gpu.deallocate(b, 2000);
  MemoryStats s = gpu.stats();
  EXPECT_EQ(s.capacity, 10000u);
  EXPECT_EQ(s.allocated, 1000u);
  EXPECT_EQ(s.peak, 3000u);
  EXPECT_EQ(s.lifetime_allocs, 3u);
  EXPECT_EQ(s.lifetime_frees, 2u);
  EXPECT_EQ(s.lifetime_bytes, 4000u);
  EXPECT_EQ(gpu.available(), 9000u);

  void* d = gpu.allocate(3000);
  void* e = gpu.allocate(2000);  // idle again
  void* z = gpu.allocate(0);     // sentinel, never recycled
  gpu.deallocate(c, 1000);
  gpu.deallocate(d, 3000);
  gpu.deallocate(e, 2000);
  gpu.deallocate(z, 0);
  s = gpu.stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.peak, 6000u);
  EXPECT_EQ(s.lifetime_allocs, 6u);
  EXPECT_EQ(s.lifetime_frees, 6u);
  EXPECT_EQ(s.lifetime_bytes, 9000u);
  EXPECT_EQ(gpu.available(), 10000u);
  EXPECT_EQ(gpu.reset_peak(), 0u);
  EXPECT_EQ(gpu.stats().peak, 0u);
}

TEST_F(SimGpuTest, IdleBlocksNeverCountAgainstCapacity) {
  constexpr std::size_t kCap = 1u << 20;
  Device& gpu = make_gpu("g0", kCap);
  void* whole = gpu.allocate(kCap);
  gpu.deallocate(whole, kCap);  // kept idle: a full capacity's worth
  void* h1 = gpu.allocate(kCap / 2);
  void* h2 = gpu.allocate(kCap / 2);
  EXPECT_EQ(gpu.allocated(), kCap);
  EXPECT_THROW(gpu.allocate(1), OutOfMemory);
  gpu.deallocate(h1, kCap / 2);
  gpu.deallocate(h2, kCap / 2);
  void* again = gpu.allocate(kCap);
  gpu.deallocate(again, kCap);
  EXPECT_EQ(gpu.allocated(), 0u);
}

TEST_F(SimGpuTest, CrossThreadReuseKeepsAccountingExact) {
  // Four threads allocate and free from one shared size set, so blocks
  // freed on one thread are handed out on another. Each thread stamps its
  // blocks and checks the stamp before freeing: a block handed to two
  // owners at once would show as a foreign stamp (and as a race in TSan).
  Device& gpu = make_gpu("g0", 64u << 20);
  constexpr std::size_t kSizes[] = {64, 256, 4096, 65536, 262144};
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::atomic<int> foreign{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto stamp = static_cast<unsigned char>(t + 1);
      for (int r = 0; r < kRounds; ++r) {
        void* held[3];
        std::size_t sizes[3];
        for (int k = 0; k < 3; ++k) {
          sizes[k] = kSizes[static_cast<std::size_t>(r + k + t) % 5];
          held[k] = gpu.allocate(sizes[k]);
          auto* bytes = static_cast<unsigned char*>(held[k]);
          bytes[0] = stamp;
          bytes[sizes[k] - 1] = stamp;
        }
        for (int k = 0; k < 3; ++k) {
          const auto* bytes = static_cast<const unsigned char*>(held[k]);
          if (bytes[0] != stamp || bytes[sizes[k] - 1] != stamp) ++foreign;
          gpu.deallocate(held[k], sizes[k]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(foreign.load(), 0);
  const MemoryStats s = gpu.stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.lifetime_allocs, std::size_t{kThreads} * kRounds * 3);
  EXPECT_EQ(s.lifetime_frees, s.lifetime_allocs);
}

TEST(MeteredDevice, ThreadsOutliveADeviceTheyCacheBlocksOf) {
  // Worker threads keep idle blocks of a device in their own caches. The
  // device is destroyed while they are parked; on their next meter call
  // (another device) they drop its blocks, and at exit they return the
  // rest. Under ASan/LSan a block dropped twice, touched after release or
  // never released fails this test; elsewhere it pins that the surviving
  // device's accounting stays exact.
  auto doomed = make_sim_gpu("doomed", 1u << 20);
  auto survivor = make_sim_gpu("survivor", 1u << 20);
  constexpr int kThreads = 3;
  std::atomic<int> phase{0};
  std::atomic<int> parked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t bytes : {512u, 4096u, 4096u, 16384u}) {
        doomed->deallocate(doomed->allocate(bytes), bytes);
      }
      parked.fetch_add(1);
      while (phase.load() == 0) std::this_thread::yield();
      for (int i = 0; i < 10; ++i) {
        void* p = survivor->allocate(4096);
        survivor->deallocate(p, 4096);
      }
    });
  }
  while (parked.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(doomed->stats().lifetime_frees, 4u * kThreads);
  doomed.reset();
  phase.store(1);
  for (auto& th : threads) th.join();
  const MemoryStats s = survivor->stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.lifetime_allocs, 10u * kThreads);
  EXPECT_EQ(s.lifetime_frees, 10u * kThreads);
}

#ifdef __SANITIZE_ADDRESS__
TEST(MeteredDeviceDeathTest, ReadingAnIdleBlockIsReported) {
  // An idle block is poisoned: a read of freed tensor storage is still an
  // ASan report although the meter keeps the memory.
  auto host = make_host_device("asan");
  EXPECT_DEATH(
      {
        auto* p = static_cast<volatile unsigned char*>(host->allocate(4096));
        host->deallocate(const_cast<unsigned char*>(p), 4096);
        (void)p[17];
      },
      "AddressSanitizer");
}
#endif

TEST_F(HostDeviceTest, Unlimited) {
  Device& host = make_host();
  EXPECT_EQ(host.kind(), DeviceKind::Host);
  void* p = host.allocate(1 << 20);
  EXPECT_EQ(host.allocated(), 1u << 20);
  EXPECT_EQ(host.stats().capacity, 0u);
  host.deallocate(p, 1 << 20);
}

TEST(TransferModel, CostFormula) {
  TransferModel m;
  m.bandwidth_bytes_per_s = 1e9;
  m.latency_s = 1e-3;
  EXPECT_NEAR(m.seconds_for(1'000'000'000), 1.001, 1e-9);
  EXPECT_NEAR(m.seconds_for(0), 1e-3, 1e-12);
}

TEST(DeviceManager, GpusAndHost) {
  DeviceManager dm(3, 1000);
  EXPECT_EQ(dm.gpu_count(), 3);
  EXPECT_EQ(dm.total_gpu_capacity(), 3000u);
  EXPECT_EQ(dm.total_gpu_available(), 3000u);
  void* p = dm.gpu(1).allocate(600);
  EXPECT_EQ(dm.total_gpu_available(), 2400u);
  EXPECT_EQ(&dm.least_loaded_gpu(), &dm.gpu(0));
  void* q = dm.gpu(0).allocate(900);
  void* r = dm.gpu(2).allocate(100);
  EXPECT_EQ(&dm.least_loaded_gpu(), &dm.gpu(2));
  dm.gpu(1).deallocate(p, 600);
  dm.gpu(0).deallocate(q, 900);
  dm.gpu(2).deallocate(r, 100);
  EXPECT_THROW(dm.gpu(3), InvalidArgument);
  EXPECT_THROW(dm.gpu(-1), InvalidArgument);
}

TEST(DeviceManager, ZeroGpusAllowedButNoLeastLoaded) {
  DeviceManager dm(0, 1000);
  EXPECT_EQ(dm.gpu_count(), 0);
  EXPECT_THROW(dm.least_loaded_gpu(), InvalidArgument);
}

TEST(SimGpu, RejectsZeroCapacity) {
  EXPECT_THROW(make_sim_gpu("bad", 0), InvalidArgument);
}

}  // namespace
}  // namespace menos::gpusim
