#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/mutex.h"
#include "util/queue.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace menos::util {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    MENOS_CHECK_MSG(1 == 2, "math is broken: " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken: 42"),
              std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  MENOS_CHECK(1 + 1 == 2);
  MENOS_CHECK_MSG(true, "never evaluated");
}

TEST(Check, OutOfMemoryCarriesSizes) {
  try {
    throw OutOfMemory("boom", 100, 40);
  } catch (const OutOfMemory& e) {
    EXPECT_EQ(e.requested(), 100u);
    EXPECT_EQ(e.available(), 40u);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng root(5);
  Rng a = root.fork();
  Rng b = root.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Bytes, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1500), "1.5 KB");
  EXPECT_EQ(format_bytes(23800 * kMB), "23.8 GB");
  EXPECT_NEAR(to_gb(32 * kGB), 32.0, 1e-9);
  EXPECT_NEAR(to_mb(246 * kMB), 246.0, 1e-9);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE check value).
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_ref(s, 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesWhole) {
  const char* s = "hello world";
  const std::uint32_t whole = crc32(s, 11);
  const std::uint32_t part = crc32(s + 5, 6, crc32(s, 5));
  EXPECT_EQ(whole, part);
}

TEST(Crc32, DetectsCorruption) {
  std::string s = "payload";
  const std::uint32_t before = crc32(s.data(), s.size());
  s[3] ^= 0x01;
  EXPECT_NE(before, crc32(s.data(), s.size()));
}

TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  // Random lengths 0-100 KB at start offsets 0-7 (every alignment of the
  // 8-byte main loop), random seeds, and an incremental split at a random
  // point: the sliced CRC must equal the bytewise oracle in every case.
  Rng rng(2024);
  std::vector<unsigned char> buf(100 * 1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  for (int i = 0; i < 200; ++i) {
    const std::size_t offset = rng.next_below(8);
    const std::size_t len = rng.next_below(100 * 1024 + 1);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const unsigned char* p = buf.data() + offset;
    const std::uint32_t want = crc32_ref(p, len, seed);
    ASSERT_EQ(crc32(p, len, seed), want) << "len " << len << " offset " << offset;
    const std::size_t split = rng.next_below(len + 1);
    ASSERT_EQ(crc32(p + split, len - split, crc32(p, split, seed)), want)
        << "len " << len << " split " << split;
  }
  // Short lengths exhaustively: every tail length of the bytewise loop.
  for (std::size_t len = 0; len <= 64; ++len) {
    ASSERT_EQ(crc32(buf.data() + 3, len), crc32_ref(buf.data() + 3, len));
  }
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, CloseDrainsThenNullopt) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
  q.push(8);  // dropped
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int count = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, count);
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, 100);
}

TEST(Notification, WaitAndReset) {
  Notification n;
  EXPECT_FALSE(n.notified());
  n.notify();
  n.wait_and_reset();
  EXPECT_FALSE(n.notified());
}

TEST(Notification, CrossThreadWakeup) {
  Notification n;
  std::thread waker([&] { n.notify(); });
  n.wait();
  waker.join();
}

TEST(WaitGroup, WaitsForAll) {
  WaitGroup wg;
  std::atomic<int> done{0};
  wg.add(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      ++done;
      wg.done();
    });
  }
  wg.wait();
  EXPECT_EQ(done.load(), 4);
  for (auto& t : threads) t.join();
}

LockContention contention_of(const std::string& name) {
  for (const LockContention& c : lock_contention()) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "lock class '" << name << "' was never registered";
  return {};
}

TEST(LockContention, ContendedAcquisitionIsCounted) {
  Mutex mu("test.contended");
  std::atomic<bool> waiter_started{false};
  mu.lock();
  std::thread waiter([&] {
    waiter_started.store(true);
    mu.lock();  // blocks: the main thread holds it
    mu.unlock();
  });
  while (!waiter_started.load()) std::this_thread::yield();
  // Hold on long enough that the waiter's first try surely ran.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  mu.unlock();
  waiter.join();
  const LockContention c = contention_of("test.contended");
  EXPECT_EQ(c.contended, 1u);
  EXPECT_GT(c.park_seconds, 0.0);
}

TEST(LockContention, UncontendedMutexIsNotCounted) {
  Mutex a("test.uncontended");
  Mutex b("test.uncontended");  // same class, never held together
  for (int i = 0; i < 1000; ++i) {
    MutexLock la(a);
  }
  for (int i = 0; i < 1000; ++i) {
    MutexLock lb(b);
  }
  const LockContention c = contention_of("test.uncontended");
  EXPECT_EQ(c.contended, 0u);
  EXPECT_EQ(c.park_seconds, 0.0);
}

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.total(), 6.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Trace, JsonlEscapesSpecialCharactersInNames) {
  // Regression: event names containing quotes, backslashes or control
  // characters used to be emitted raw, producing lines no JSON parser
  // accepts.
  EventTrace trace(8);
  trace.record(TraceCategory::Session, "he said \"hi\"", 1);
  trace.record(TraceCategory::Session, "path\\to\\thing", 2);
  trace.record(TraceCategory::Session, std::string("tab\there\nnl\x01"), 3);
  const std::string out = trace.to_jsonl();
  EXPECT_NE(out.find("\"name\":\"he said \\\"hi\\\"\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"name\":\"path\\\\to\\\\thing\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"name\":\"tab\\there\\nnl\\u0001\""), std::string::npos)
      << out;
  // No raw control characters survive anywhere in the output.
  for (char c : out) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control character in jsonl output";
  }
}

TEST(RetryPolicy, ExponentialGrowthAndCap) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.max_backoff_s = 1.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(0, rng), 0.1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1, rng), 0.2);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2, rng), 0.4);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3, rng), 0.8);
  EXPECT_DOUBLE_EQ(policy.backoff_s(4, rng), 1.0);   // capped
  EXPECT_DOUBLE_EQ(policy.backoff_s(40, rng), 1.0);  // no overflow blow-up
}

TEST(RetryPolicy, JitterIsSeededAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.jitter = 0.2;
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 8; ++i) {
    const double da = policy.backoff_s(i, a);
    const double db = policy.backoff_s(i, b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same schedule
    const double base =
        std::min(policy.max_backoff_s,
                 policy.initial_backoff_s * std::pow(policy.multiplier, i));
    EXPECT_GE(da, base * (1.0 - policy.jitter));
    EXPECT_LE(da, base * (1.0 + policy.jitter));
  }
}

TEST(RetryPolicy, ZeroJitterConsumesNoRngDraws) {
  RetryPolicy policy;
  policy.jitter = 0.0;
  Rng rng(5);
  Rng untouched(5);
  (void)policy.backoff_s(0, rng);
  (void)policy.backoff_s(1, rng);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(RetryPolicy, TimeScaleZeroSleepsNothing) {
  RetryPolicy policy;
  policy.time_scale = 0.0;
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(policy.backoff_s(i, rng), 0.0);
  }
}

}  // namespace
}  // namespace menos::util
