// The packed-panel matmul kernels' determinism contract: blocked output ==
// serial reference, BIT-identical, for every block configuration, thread
// count, and awkward shape; the fused causal attention forward and backward
// == their scalar references on the same terms — plus the fastmath accuracy
// bounds.
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

// ----- fused causal attention == scalar reference -----

using tensor::kernels::AttentionShape;

/// (B, T, H, Hkv, D): the trunk shape, the memory_pressure shape, a
/// sequence longer than one default column strip, grouped-query groups of
/// 2 and 8, T below one register tile, and D past one strip.
const AttentionShape kAttentionShapes[] = {
    {4, 32, 4, 4, 32}, {2, 16, 2, 2, 16}, {4, 64, 4, 4, 16},
    {3, 37, 4, 2, 20}, {1, 33, 8, 1, 8},  {2, 5, 2, 2, 3},
    {2, 17, 3, 3, 48},
};

struct AttentionBuffers {
  std::vector<float> ctx, p, dq, dk, dv;
};

/// Outputs start from a NaN fill, so an element the kernel fails to write
/// shows as a mismatch.
AttentionBuffers nan_buffers(const AttentionShape& s) {
  const float nan = std::nanf("");
  const auto q_elems = static_cast<std::size_t>(s.batch * s.seq * s.heads *
                                                s.head_dim);
  const auto kv_elems = static_cast<std::size_t>(s.batch * s.seq *
                                                 s.kv_heads * s.head_dim);
  const auto p_elems =
      static_cast<std::size_t>(s.batch * s.heads * s.seq * s.seq);
  return {std::vector<float>(q_elems, nan), std::vector<float>(p_elems, nan),
          std::vector<float>(q_elems, nan), std::vector<float>(kv_elems, nan),
          std::vector<float>(kv_elems, nan)};
}

void expect_bytes(const std::vector<float>& got,
                  const std::vector<float>& want, const char* what,
                  const AttentionShape& s, int width) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what << " diverges from the serial reference at B=" << s.batch
      << " T=" << s.seq << " H=" << s.heads << " Hkv=" << s.kv_heads
      << " D=" << s.head_dim << " width=" << width;
}

TEST(KernelBitIdentity, CausalAttentionMatchesReferenceForAllBlocksAndWidths) {
  KernelGuard guard;
  namespace k = tensor::kernels;
  for (const AttentionShape& s : kAttentionShapes) {
    const auto q_elems = static_cast<std::size_t>(s.batch * s.seq * s.heads *
                                                  s.head_dim);
    const auto kv_elems = static_cast<std::size_t>(s.batch * s.seq *
                                                   s.kv_heads * s.head_dim);
    const auto q = random_vec(q_elems, 79);
    const auto kk = random_vec(kv_elems, 83);
    const auto v = random_vec(kv_elems, 89);
    const auto dctx = random_vec(q_elems, 97);
    AttentionBuffers ref = nan_buffers(s);
    k::causal_attention_ref(q.data(), kk.data(), v.data(), ref.ctx.data(),
                            ref.p.data(), s);
    k::causal_attention_backward_ref(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), ref.dq.data(),
                                     ref.dk.data(), ref.dv.data(), s);
    for (const BlockConfig& cfg : kConfigs) {
      k::set_block_config(cfg);
      for (int width : {1, 2, 4, 8}) {
        ThreadPool::instance().set_num_threads(width);
        AttentionBuffers got = nan_buffers(s);
        k::causal_attention(q.data(), kk.data(), v.data(), got.ctx.data(),
                            got.p.data(), s);
        expect_bytes(got.ctx, ref.ctx, "ctx", s, width);
        expect_bytes(got.p, ref.p, "P", s, width);
        k::causal_attention_backward(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), got.dq.data(),
                                     got.dk.data(), got.dv.data(), s);
        expect_bytes(got.dq, ref.dq, "dq", s, width);
        expect_bytes(got.dk, ref.dk, "dk", s, width);
        expect_bytes(got.dv, ref.dv, "dv", s, width);

        // Without P (the no-grad forward) the output is the same bytes,
        // and each gradient alone is the same bytes as all three together.
        AttentionBuffers alone = nan_buffers(s);
        k::causal_attention(q.data(), kk.data(), v.data(), alone.ctx.data(),
                            nullptr, s);
        expect_bytes(alone.ctx, ref.ctx, "ctx without P", s, width);
        k::causal_attention_backward(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(),
                                     alone.dq.data(), nullptr, nullptr, s);
        k::causal_attention_backward(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), nullptr,
                                     alone.dk.data(), nullptr, s);
        k::causal_attention_backward(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), nullptr,
                                     nullptr, alone.dv.data(), s);
        expect_bytes(alone.dq, ref.dq, "dq alone", s, width);
        expect_bytes(alone.dk, ref.dk, "dk alone", s, width);
        expect_bytes(alone.dv, ref.dv, "dv alone", s, width);
      }
    }
  }
}

// ----- operand staging edges -----
//
// A is read in place except the matrix's last, partial MR strip, and a
// transposed B is packed in register-transposed blocks with scalar tails.
// These shapes put every such edge under every kernel: M with a partial
// last strip (1, 2, 7, 128), transposed A with M % MR != 0 (mm_tn), and a
// transposed B whose depth K leaves a tail after whole blocks (1, 15, 17,
// 33) or spans two default KC panels (257), with N the LoRA rank (8) or a
// partial strip past a whole one (40). C starts non-zero, so a partial
// tile that clobbered its neighbours' rows would show.

const BlockConfig kStagingConfigs[] = {
    {},            // defaults
    {18, 40, 20},  // KC leaves a transpose tail; NC a partial strip
    {8, 16, 8},    // every panel smaller than one transpose block
};

TEST(KernelBitIdentity, InPlaceAAndTransposedBEdgesMatchReference) {
  KernelGuard guard;
  namespace k = tensor::kernels;
  for (Index m : {1, 2, 7, 128}) {
    for (Index depth : {1, 15, 17, 33, 257}) {
      for (Index n : {8, 40}) {
        const Shape3 s{m, depth, n};
        const auto mk = static_cast<std::size_t>(m * depth);
        const auto kn = static_cast<std::size_t>(depth * n);
        const auto a = random_vec(mk, 101);   // [m, k], or [k, m] for mm_tn
        const auto b = random_vec(kn, 103);   // [k, n], or [n, k] for mm_nt
        const auto c0 = random_vec(static_cast<std::size_t>(m * n), 107);
        std::vector<float> ref_mm = c0, ref_nt = c0, ref_tn = c0;
        k::mm_ref(a.data(), b.data(), ref_mm.data(), m, depth, n);
        k::mm_nt_ref(a.data(), b.data(), ref_nt.data(), m, depth, n);
        k::mm_tn_ref(a.data(), b.data(), ref_tn.data(), depth, m, n);
        for (const BlockConfig& cfg : kStagingConfigs) {
          k::set_block_config(cfg);
          for (int width : {1, 2, 4, 8}) {
            ThreadPool::instance().set_num_threads(width);
            std::vector<float> c = c0;
            k::mm(a.data(), b.data(), c.data(), m, depth, n);
            expect_same(c, ref_mm, "mm", s);
            c = c0;
            k::mm_nt(a.data(), b.data(), c.data(), m, depth, n);
            expect_same(c, ref_nt, "mm_nt", s);
            c = c0;
            k::mm_tn(a.data(), b.data(), c.data(), depth, m, n);
            expect_same(c, ref_tn, "mm_tn", s);
          }
        }
      }
    }
  }
}

/// Attention reads each head's Q (and dctx) in place as a column slice of
/// the [B, T, H*D] projection (lda = H*D > K = D), P as a transposed A in
/// the dK/dV products, and K and V through the transposed B pack. (B, T, H,
/// Hkv, D): T with a partial last strip (7, 2, 1, 128), head depths that
/// leave a transpose tail (17, 33, 15) or exceed KC (257), and N = D of 8
/// and 40.
const AttentionShape kStagingAttentionShapes[] = {
    {2, 7, 3, 3, 17}, {1, 2, 2, 1, 33},  {1, 1, 2, 2, 15},
    {1, 128, 2, 2, 8}, {2, 40, 2, 1, 40}, {1, 20, 2, 2, 257},
};

TEST(KernelBitIdentity, AttentionOperandSlicesMatchReference) {
  KernelGuard guard;
  namespace k = tensor::kernels;
  for (const AttentionShape& s : kStagingAttentionShapes) {
    const auto q_elems = static_cast<std::size_t>(s.batch * s.seq * s.heads *
                                                  s.head_dim);
    const auto kv_elems = static_cast<std::size_t>(s.batch * s.seq *
                                                   s.kv_heads * s.head_dim);
    const auto q = random_vec(q_elems, 109);
    const auto kk = random_vec(kv_elems, 113);
    const auto v = random_vec(kv_elems, 127);
    const auto dctx = random_vec(q_elems, 131);
    AttentionBuffers ref = nan_buffers(s);
    k::causal_attention_ref(q.data(), kk.data(), v.data(), ref.ctx.data(),
                            ref.p.data(), s);
    k::causal_attention_backward_ref(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), ref.dq.data(),
                                     ref.dk.data(), ref.dv.data(), s);
    for (const BlockConfig& cfg : kStagingConfigs) {
      k::set_block_config(cfg);
      for (int width : {1, 2, 4, 8}) {
        ThreadPool::instance().set_num_threads(width);
        AttentionBuffers got = nan_buffers(s);
        k::causal_attention(q.data(), kk.data(), v.data(), got.ctx.data(),
                            got.p.data(), s);
        expect_bytes(got.ctx, ref.ctx, "ctx", s, width);
        expect_bytes(got.p, ref.p, "P", s, width);
        k::causal_attention_backward(q.data(), kk.data(), v.data(),
                                     ref.p.data(), dctx.data(), got.dq.data(),
                                     got.dk.data(), got.dv.data(), s);
        expect_bytes(got.dq, ref.dq, "dq", s, width);
        expect_bytes(got.dk, ref.dk, "dk", s, width);
        expect_bytes(got.dv, ref.dv, "dv", s, width);
      }
    }
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
