// Thread pool unit tests plus the determinism contract of the parallel
// tensor kernels: results must be bit-identical for MENOS_THREADS 1, 2, 8.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace menos {
namespace {

using menos::testing::host_device;
using tensor::Index;
using tensor::Tensor;
using util::ThreadPool;

/// Restore the pool to a single thread when a test ends, whatever happened.
class PoolWidthGuard {
 public:
  ~PoolWidthGuard() { ThreadPool::instance().set_num_threads(1); }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  ThreadPool::instance().set_num_threads(4);
  const Index n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  util::parallel_for(0, n, 1, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (Index i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps) {
  PoolWidthGuard guard;
  ThreadPool::instance().set_num_threads(2);
  int calls = 0;
  util::parallel_for(5, 5, 1, [&](Index, Index) { ++calls; });
  util::parallel_for(7, 3, 1, [&](Index, Index) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SmallRangeRunsSeriallyInOneCall) {
  PoolWidthGuard guard;
  ThreadPool::instance().set_num_threads(8);
  int calls = 0;
  Index seen_lo = -1, seen_hi = -1;
  util::parallel_for(2, 10, 100, [&](Index lo, Index hi) {
    ++calls;
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 2);
  EXPECT_EQ(seen_hi, 10);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  PoolWidthGuard guard;
  ThreadPool& pool = ThreadPool::instance();
  pool.set_num_threads(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [&](Index lo, Index) {
                          if (lo >= 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive the failed region and run the next one cleanly.
  std::atomic<Index> total{0};
  pool.parallel_for(0, 1000, 1, [&](Index lo, Index hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, NestedCallsDegradeToSerial) {
  PoolWidthGuard guard;
  ThreadPool::instance().set_num_threads(4);
  const Index rows = 64, cols = 64;
  std::vector<std::atomic<int>> hits(rows * cols);
  for (auto& h : hits) h.store(0);
  util::parallel_for(0, rows, 1, [&](Index r0, Index r1) {
    for (Index r = r0; r < r1; ++r) {
      // Inner parallel_for from a pool thread must run inline, not deadlock.
      util::parallel_for(0, cols, 1, [&](Index c0, Index c1) {
        for (Index c = c0; c < c1; ++c) {
          hits[static_cast<std::size_t>(r * cols + c)]++;
        }
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedResizeStartsAndStopsCleanly) {
  PoolWidthGuard guard;
  ThreadPool& pool = ThreadPool::instance();
  for (int width : {1, 3, 1, 8, 2}) {
    pool.set_num_threads(width);
    EXPECT_EQ(pool.num_threads(), width);
    std::atomic<Index> total{0};
    pool.parallel_for(0, 4096, 64, [&](Index lo, Index hi) {
      total += hi - lo;
    });
    EXPECT_EQ(total.load(), 4096);
  }
}

// ----- determinism across thread counts -----

std::vector<float> matmul_kernel_outputs() {
  util::Rng rng(1234);
  const Index m = 37, k = 53, n = 41;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng.fill_normal(a.data(), a.size(), 1.0f);
  rng.fill_normal(b.data(), b.size(), 1.0f);

  std::vector<float> out;
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  tensor::kernels::mm(a.data(), b.data(), c.data(), m, k, n);
  out.insert(out.end(), c.begin(), c.end());

  std::vector<float> c_nt(static_cast<std::size_t>(m * k), 0.0f);
  // A:[m,n] x B:[k,n]^T with n as the shared width.
  std::vector<float> a2(static_cast<std::size_t>(m * n));
  rng.fill_normal(a2.data(), a2.size(), 1.0f);
  tensor::kernels::mm_nt(a2.data(), b.data(), c_nt.data(), m, n, k);
  out.insert(out.end(), c_nt.begin(), c_nt.end());

  std::vector<float> c_tn(static_cast<std::size_t>(k * n), 0.0f);
  tensor::kernels::mm_tn(a.data(), b.data(), c_tn.data(), m, k, n);
  out.insert(out.end(), c_tn.begin(), c_tn.end());
  return out;
}

std::vector<float> run_matmul_kernels(int width) {
  ThreadPool::instance().set_num_threads(width);
  return matmul_kernel_outputs();
}

/// One tiny training step exercising matmul, layer_norm and cross_entropy
/// in forward AND backward; returns every output and gradient produced.
std::vector<float> run_train_step(int width) {
  ThreadPool::instance().set_num_threads(width);
  util::Rng rng(99);
  const Index batch = 6, dim = 40, vocab = 50;
  Tensor x = testing::random_leaf({batch, dim}, rng, host_device());
  Tensor w = testing::random_leaf({dim, vocab}, rng, host_device());
  Tensor gamma = testing::random_leaf({dim}, rng, host_device());
  Tensor beta = testing::random_leaf({dim}, rng, host_device());
  std::vector<std::int32_t> targets;
  for (Index i = 0; i < batch; ++i) {
    targets.push_back(static_cast<std::int32_t>((i * 17) % vocab));
  }

  Tensor h = tensor::layer_norm(x, gamma, beta);
  Tensor logits = tensor::matmul(h, w);
  Tensor loss = tensor::cross_entropy(logits, targets);
  tensor::backward(loss);

  std::vector<float> out = loss.to_vector();
  for (const Tensor& t : {logits, h}) {
    const std::vector<float> v = t.to_vector();
    out.insert(out.end(), v.begin(), v.end());
  }
  for (const Tensor& t : {x, w, gamma, beta}) {
    const std::vector<float> v = t.grad().to_vector();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": results differ between thread counts";
}

TEST(ParallelDeterminism, MatmulKernelsBitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  const std::vector<float> serial = run_matmul_kernels(1);
  expect_bit_identical(serial, run_matmul_kernels(2), "kernels @2 threads");
  expect_bit_identical(serial, run_matmul_kernels(8), "kernels @8 threads");
}

TEST(ParallelDeterminism, TrainStepBitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  const std::vector<float> serial = run_train_step(1);
  expect_bit_identical(serial, run_train_step(2), "train step @2 threads");
  expect_bit_identical(serial, run_train_step(8), "train step @8 threads");
}

TEST(ThreadPool, RunsInlineWhileAnotherThreadIsInASerialBody) {
  PoolWidthGuard guard;
  const std::vector<float> serial = run_matmul_kernels(1);
  ThreadPool::instance().set_num_threads(4);

  // Thread A parks inside a parallel_for body that runs serially (its
  // range is below the grain), so no region is in flight.
  std::latch entered(1), release(1);
  std::thread a([&] {
    util::parallel_for(0, 1, 1, [&](Index, Index) {
      entered.count_down();
      release.wait();
    });
  });
  entered.wait();

  // A large range from this thread must not fork while A computes. Each
  // chunk sleeps so that, were it forked, idle workers would claim some.
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> foreign_chunks{0};
  util::parallel_for(0, 100'000, 1, [&](Index, Index) {
    if (std::this_thread::get_id() != self) foreign_chunks++;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  const std::vector<float> contended = matmul_kernel_outputs();
  release.count_down();
  a.join();

  EXPECT_EQ(foreign_chunks.load(), 0);
  expect_bit_identical(serial, contended, "kernels @4 threads, contended");
}

}  // namespace
}  // namespace menos
