// The packed-panel matmul kernels' determinism contract: blocked output ==
// serial reference, BIT-identical, for every block configuration, thread
// count, and awkward shape; the permute copy == its per-element reference
// for every rank and width — plus the fastmath accuracy bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace menos {
namespace {

using tensor::Index;
using tensor::kernels::BlockConfig;
using util::ThreadPool;

class KernelGuard {
 public:
  ~KernelGuard() {
    ThreadPool::instance().set_num_threads(1);
    tensor::kernels::set_block_config(BlockConfig{});  // back to defaults
  }
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  util::Rng rng(seed);
  rng.fill_normal(v.data(), v.size(), 1.0f);
  return v;
}

/// Shapes chosen to hit every edge path: non-multiples of the register
/// tile in both axes, size-1 extents, k == 1 (no accumulation chain), and
/// dimensions larger than the default KC/NC panels.
struct Shape3 {
  Index m, k, n;
};
const Shape3 kShapes[] = {
    {37, 53, 41},  {1, 1, 1},   {1, 64, 1},   {5, 1, 33},
    {64, 64, 64},  {13, 300, 7}, {96, 17, 160}, {61, 613, 129},
};

const BlockConfig kConfigs[] = {
    {},              // defaults
    {8, 16, 8},      // tiles everywhere smaller than one register block
    {32, 48, 32},    // non-multiples of MR/NR
    {64, 512, 128},  // single jc panel, multiple kc panels
};

void expect_same(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what, const Shape3& s) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what << " diverges from serial reference at m=" << s.m
      << " k=" << s.k << " n=" << s.n;
}

TEST(KernelBitIdentity, MmMatchesReferenceForAllBlocksAndWidths) {
  KernelGuard guard;
  for (const Shape3& s : kShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), 7);
    const auto b = random_vec(static_cast<std::size_t>(s.k * s.n), 11);
    std::vector<float> ref(static_cast<std::size_t>(s.m * s.n), 0.0f);
    tensor::kernels::mm_ref(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    for (const BlockConfig& cfg : kConfigs) {
      tensor::kernels::set_block_config(cfg);
      for (int width : {1, 2, 4, 8}) {
        ThreadPool::instance().set_num_threads(width);
        std::vector<float> c(ref.size(), 0.0f);
        tensor::kernels::mm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        expect_same(c, ref, "mm", s);
      }
    }
  }
}

TEST(KernelBitIdentity, MmNtMatchesReferenceForAllBlocksAndWidths) {
  KernelGuard guard;
  for (const Shape3& s : kShapes) {
    // A:[m,n] x B:[k,n]^T -> C:[m,k]; n is the contraction width.
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.n), 13);
    const auto b = random_vec(static_cast<std::size_t>(s.k * s.n), 17);
    std::vector<float> ref(static_cast<std::size_t>(s.m * s.k), 0.0f);
    tensor::kernels::mm_nt_ref(a.data(), b.data(), ref.data(), s.m, s.n, s.k);
    for (const BlockConfig& cfg : kConfigs) {
      tensor::kernels::set_block_config(cfg);
      for (int width : {1, 2, 4, 8}) {
        ThreadPool::instance().set_num_threads(width);
        std::vector<float> c(ref.size(), 0.0f);
        tensor::kernels::mm_nt(a.data(), b.data(), c.data(), s.m, s.n, s.k);
        expect_same(c, ref, "mm_nt", s);
      }
    }
  }
}

TEST(KernelBitIdentity, MmTnMatchesReferenceForAllBlocksAndWidths) {
  KernelGuard guard;
  for (const Shape3& s : kShapes) {
    // A:[m,k]^T x B:[m,n] -> C:[k,n]; m is the contraction depth.
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), 19);
    const auto b = random_vec(static_cast<std::size_t>(s.m * s.n), 23);
    std::vector<float> ref(static_cast<std::size_t>(s.k * s.n), 0.0f);
    tensor::kernels::mm_tn_ref(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    for (const BlockConfig& cfg : kConfigs) {
      tensor::kernels::set_block_config(cfg);
      for (int width : {1, 2, 4, 8}) {
        ThreadPool::instance().set_num_threads(width);
        std::vector<float> c(ref.size(), 0.0f);
        tensor::kernels::mm_tn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        expect_same(c, ref, "mm_tn", s);
      }
    }
  }
}

TEST(KernelBitIdentity, FlattenedSharedWeightGradMatchesPerBatchLoop) {
  // A shared-B weight gradient dB = sum_i A_i^T * dC_i is one mm_tn with
  // contraction depth batch * m: each element still sees one ascending FMA
  // chain, and C round-trips through memory losslessly between the
  // per-batch (or per-KC-panel) steps. Depths here straddle KC mid-batch.
  KernelGuard guard;
  for (const Shape3& s : kShapes) {
    for (Index batch : {Index{1}, Index{3}, Index{8}}) {
      const auto a = random_vec(static_cast<std::size_t>(batch * s.m * s.k),
                                41);
      const auto b = random_vec(static_cast<std::size_t>(batch * s.m * s.n),
                                43);
      std::vector<float> ref(static_cast<std::size_t>(s.k * s.n), 0.0f);
      for (Index i = 0; i < batch; ++i) {
        tensor::kernels::mm_tn_ref(a.data() + i * s.m * s.k,
                                   b.data() + i * s.m * s.n, ref.data(), s.m,
                                   s.k, s.n);
      }
      for (const BlockConfig& cfg : kConfigs) {
        tensor::kernels::set_block_config(cfg);
        for (int width : {1, 2, 4, 8}) {
          ThreadPool::instance().set_num_threads(width);
          std::vector<float> c(ref.size(), 0.0f);
          tensor::kernels::mm_tn(a.data(), b.data(), c.data(), batch * s.m,
                                 s.k, s.n);
          expect_same(c, ref, "flattened mm_tn", s);
          std::vector<float> loop(ref.size(), 0.0f);
          for (Index i = 0; i < batch; ++i) {
            tensor::kernels::mm_tn(a.data() + i * s.m * s.k,
                                   b.data() + i * s.m * s.n, loop.data(), s.m,
                                   s.k, s.n);
          }
          expect_same(loop, ref, "per-batch mm_tn loop", s);
        }
      }
    }
  }
}

TEST(KernelBitIdentity, AccumulationIntoNonZeroOutputIsPreserved) {
  KernelGuard guard;
  // C += A*B must add on top of existing values, and the pre-existing
  // values must not perturb determinism across widths.
  const Index m = 23, k = 31, n = 29;
  const auto a = random_vec(static_cast<std::size_t>(m * k), 29);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 31);
  const auto c0 = random_vec(static_cast<std::size_t>(m * n), 37);
  std::vector<float> ref = c0;
  tensor::kernels::mm_ref(a.data(), b.data(), ref.data(), m, k, n);
  for (int width : {1, 4}) {
    ThreadPool::instance().set_num_threads(width);
    std::vector<float> c = c0;
    tensor::kernels::mm(a.data(), b.data(), c.data(), m, k, n);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)), 0);
  }
}

TEST(KernelBitIdentity, BatchedFormsMatchPerMatrixCalls) {
  KernelGuard guard;
  const Index batch = 5, m = 9, k = 26, n = 33;
  const auto a = random_vec(static_cast<std::size_t>(batch * m * k), 41);
  const auto bs = random_vec(static_cast<std::size_t>(batch * k * n), 43);
  const auto b1 = random_vec(static_cast<std::size_t>(k * n), 47);

  for (bool shared : {false, true}) {
    const float* bp = shared ? b1.data() : bs.data();
    std::vector<float> ref(static_cast<std::size_t>(batch * m * n), 0.0f);
    for (Index i = 0; i < batch; ++i) {
      tensor::kernels::mm_ref(a.data() + i * m * k,
                              shared ? bp : bp + i * k * n,
                              ref.data() + i * m * n, m, k, n);
    }
    for (int width : {1, 4}) {
      ThreadPool::instance().set_num_threads(width);
      std::vector<float> c(ref.size(), 0.0f);
      tensor::kernels::mm_batched(a.data(), bp, c.data(), batch, m, k, n,
                                  shared);
      ASSERT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                0)
          << "mm_batched shared=" << shared << " width=" << width;
    }
  }
}

TEST(KernelBitIdentity, BatchedTransposedFormsMatchPerMatrixCalls) {
  KernelGuard guard;
  const Index batch = 4, m = 11, n = 27, k = 19;
  const auto a = random_vec(static_cast<std::size_t>(batch * m * n), 53);
  const auto b = random_vec(static_cast<std::size_t>(batch * k * n), 59);
  std::vector<float> ref_nt(static_cast<std::size_t>(batch * m * k), 0.0f);
  for (Index i = 0; i < batch; ++i) {
    tensor::kernels::mm_nt_ref(a.data() + i * m * n, b.data() + i * k * n,
                               ref_nt.data() + i * m * k, m, n, k);
  }
  std::vector<float> ref_tn(static_cast<std::size_t>(batch * k * n), 0.0f);
  const auto a2 = random_vec(static_cast<std::size_t>(batch * m * k), 61);
  const auto g2 = random_vec(static_cast<std::size_t>(batch * m * n), 67);
  for (Index i = 0; i < batch; ++i) {
    tensor::kernels::mm_tn_ref(a2.data() + i * m * k, g2.data() + i * m * n,
                               ref_tn.data() + i * k * n, m, k, n);
  }
  for (int width : {1, 4}) {
    ThreadPool::instance().set_num_threads(width);
    std::vector<float> c(ref_nt.size(), 0.0f);
    tensor::kernels::mm_nt_batched(a.data(), b.data(), c.data(), batch, m, n,
                                   k, /*shared_b=*/false);
    ASSERT_EQ(
        std::memcmp(c.data(), ref_nt.data(), c.size() * sizeof(float)), 0)
        << "mm_nt_batched width=" << width;
    std::vector<float> ctn(ref_tn.size(), 0.0f);
    tensor::kernels::mm_tn_batched(a2.data(), g2.data(), ctn.data(), batch, m,
                                   k, n);
    ASSERT_EQ(
        std::memcmp(ctn.data(), ref_tn.data(), ctn.size() * sizeof(float)), 0)
        << "mm_tn_batched width=" << width;
  }
}

// ----- permute: stride-walking copy == per-element reference -----

/// permute() output vs permute_ref(), byte for byte, at pool widths
/// 1/2/4/8. Outputs start from a sentinel fill with one spare element past
/// the end, so a skipped element or an overrun shows (and a zero-size
/// tensor still compares real buffers).
void expect_permute_matches_ref(const tensor::Shape& shape,
                                const std::vector<int>& dims) {
  const auto n = static_cast<std::size_t>(tensor::numel_of(shape));
  const auto in = random_vec(n + 1, 71);
  std::vector<float> ref(n + 1, -7.0f);
  tensor::kernels::permute_ref(in.data(), ref.data(), shape, dims);
  for (int width : {1, 2, 4, 8}) {
    ThreadPool::instance().set_num_threads(width);
    std::vector<float> out(n + 1, -7.0f);
    tensor::kernels::permute(in.data(), out.data(), shape, dims);
    ASSERT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)),
              0)
        << "permute " << tensor::shape_to_string(shape) << " by "
        << tensor::shape_to_string(tensor::Shape(dims.begin(), dims.end()))
        << " diverges at width " << width;
  }
}

TEST(KernelBitIdentity, PermuteMatchesReferenceForAllRanksAndWidths) {
  KernelGuard guard;
  // Identity permutations, rank 0 (a scalar) through rank 5.
  const tensor::Shape by_rank[] = {
      {}, {7}, {3, 5}, {2, 3, 4}, {2, 3, 4, 5}, {2, 3, 1, 4, 3}};
  for (const tensor::Shape& shape : by_rank) {
    std::vector<int> dims(shape.size());
    for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = static_cast<int>(i);
    expect_permute_matches_ref(shape, dims);
  }

  // Every rank-4 permutation: memcpy rows where the last axis stays last,
  // strided gathers otherwise.
  std::vector<int> dims4 = {0, 1, 2, 3};
  int count = 0;
  do {
    expect_permute_matches_ref({2, 3, 4, 5}, dims4);
    ++count;
  } while (std::next_permutation(dims4.begin(), dims4.end()));
  EXPECT_EQ(count, 24);

  // Other ranks, zero-size axes (no element is touched) and size-1 axes.
  expect_permute_matches_ref({3, 5}, {1, 0});
  expect_permute_matches_ref({2, 3, 4}, {0, 2, 1});
  expect_permute_matches_ref({2, 3, 1, 4, 3}, {4, 0, 3, 1, 2});
  expect_permute_matches_ref({0}, {0});
  expect_permute_matches_ref({3, 0, 4}, {2, 0, 1});
  expect_permute_matches_ref({2, 3, 0}, {0, 2, 1});
  expect_permute_matches_ref({1, 5, 1, 3}, {2, 0, 3, 1});
  expect_permute_matches_ref({4, 1}, {1, 0});
  expect_permute_matches_ref({1, 1, 1}, {2, 1, 0});

  // Larger than one copy grain (2^15 floats), so widths > 1 fork: the
  // fused-batch head split, a transpose_last gather, and rows each longer
  // than the grain.
  expect_permute_matches_ref({128, 32, 4, 32}, {0, 2, 1, 3});
  expect_permute_matches_ref({40, 32, 32}, {0, 2, 1});
  expect_permute_matches_ref({3, 40000}, {0, 1});
  expect_permute_matches_ref({2, 40000}, {1, 0});

  // A permute followed by its inverse gives back the original bytes.
  const tensor::Shape shape = {16, 32, 4, 32};
  const std::vector<int> dims = {2, 0, 3, 1};
  tensor::Shape permuted(shape.size());
  std::vector<int> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    permuted[i] = shape[static_cast<std::size_t>(dims[i])];
    inverse[static_cast<std::size_t>(dims[i])] = static_cast<int>(i);
  }
  const auto n = static_cast<std::size_t>(tensor::numel_of(shape));
  const auto in = random_vec(n, 73);
  for (int width : {1, 2, 4, 8}) {
    ThreadPool::instance().set_num_threads(width);
    std::vector<float> mid(n), back(n);
    tensor::kernels::permute(in.data(), mid.data(), shape, dims);
    tensor::kernels::permute(mid.data(), back.data(), permuted, inverse);
    ASSERT_EQ(std::memcmp(back.data(), in.data(), n * sizeof(float)), 0)
        << "width " << width;
  }
}

TEST(KernelConfig, RejectsNegativeBlockSizes) {
  KernelGuard guard;
  EXPECT_THROW(tensor::kernels::set_block_config({-1, 0, 0}), Error);
  EXPECT_GT(tensor::kernels::micro_tile_rows(), 0);
  EXPECT_GT(tensor::kernels::micro_tile_cols(), 0);
  EXPECT_NE(tensor::kernels::vector_arch(), nullptr);
}

// ----- fastmath accuracy -----

TEST(FastMath, ExpTanhSigmoidStayWithinAbsoluteBounds) {
  // The fast transcendentals trade exactness for vectorizability; the ops
  // that use them only need ~1e-6 absolute accuracy on the ranges a
  // normalized activation can reach.
  double worst_exp = 0.0, worst_tanh = 0.0, worst_sig = 0.0;
  for (int i = -80000; i <= 80000; ++i) {
    const float x = static_cast<float>(i) / 8000.0f;  // [-10, 10]
    worst_exp = std::max(
        worst_exp,
        std::abs(static_cast<double>(util::fast_exp(x)) -
                 std::exp(static_cast<double>(x))) /
            std::max(1.0, std::exp(static_cast<double>(x))));
    worst_tanh =
        std::max(worst_tanh, std::abs(static_cast<double>(util::fast_tanh(x)) -
                                      std::tanh(static_cast<double>(x))));
    worst_sig = std::max(
        worst_sig,
        std::abs(static_cast<double>(util::fast_sigmoid(x)) -
                 1.0 / (1.0 + std::exp(-static_cast<double>(x)))));
  }
  EXPECT_LT(worst_exp, 1e-6) << "fast_exp relative error too large";
  EXPECT_LT(worst_tanh, 1e-6);
  EXPECT_LT(worst_sig, 1e-6);
  // Saturation: no NaN/inf surprises at the clamp boundaries.
  // fast_exp clamps its argument near the float-denormal boundary, so
  // deeply negative inputs land at a tiny positive value, not exactly 0.
  EXPECT_GE(util::fast_exp(-200.0f), 0.0f);
  EXPECT_LT(util::fast_exp(-200.0f), 1e-37f);
  EXPECT_TRUE(std::isfinite(util::fast_exp(88.0f)));
  EXPECT_FLOAT_EQ(util::fast_tanh(30.0f), 1.0f);
  EXPECT_FLOAT_EQ(util::fast_tanh(-30.0f), -1.0f);
}

}  // namespace
}  // namespace menos
