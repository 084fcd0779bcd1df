// Reverse-mode autograd: every differentiable op is verified against
// central finite differences, plus tape mechanics (accumulation, detach,
// no-grad mode, seeded backward for split learning) and the need-flag rule
// (a frozen parameter gets no gradient computed or allocated).
#include <gtest/gtest.h>

#include <cstring>

#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace menos::tensor {
namespace {

using menos::testing::check_gradients;
using menos::testing::host_device;
using menos::testing::random_leaf;

// ----- tape mechanics -----

TEST(Tape, LeafGradAccumulates) {
  Tensor a = Tensor::full({2}, 3.0f, host_device(), true);
  Tensor l1 = sum(scale(a, 2.0f));
  backward(l1);
  Tensor l2 = sum(scale(a, 2.0f));
  backward(l2);
  auto g = a.grad().to_vector();
  EXPECT_FLOAT_EQ(g[0], 4.0f);  // 2 + 2
  a.zero_grad();
  EXPECT_FALSE(a.grad().defined());
}

TEST(Tape, NoGradGuardSuppressesGraph) {
  Tensor a = Tensor::full({2}, 1.0f, host_device(), true);
  NoGradGuard no_grad;
  Tensor b = scale(a, 2.0f);
  EXPECT_EQ(b.impl()->grad_fn, nullptr);
}

TEST(Tape, NoGradGuardRestores) {
  Tensor a = Tensor::full({2}, 1.0f, host_device(), true);
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(grad_enabled());
    {
      NoGradGuard nested;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_TRUE(grad_enabled());
  Tensor b = scale(a, 2.0f);
  EXPECT_NE(b.impl()->grad_fn, nullptr);
}

TEST(Tape, DetachBlocksGradient) {
  Tensor a = Tensor::full({2}, 1.0f, host_device(), true);
  Tensor b = scale(a, 2.0f).detach();
  Tensor loss = sum(scale(b, 3.0f));
  backward(loss);
  EXPECT_FALSE(a.grad().defined());
}

TEST(Tape, DiamondGraphAccumulatesBothPaths) {
  Tensor a = Tensor::full({1}, 2.0f, host_device(), true);
  Tensor left = scale(a, 3.0f);
  Tensor right = scale(a, 4.0f);
  Tensor loss = sum(add(left, right));
  backward(loss);
  EXPECT_FLOAT_EQ(a.grad().item(), 7.0f);
}

TEST(Tape, SeededBackwardMatchesChainRule) {
  // Split-learning resume: backward(x_c, g) must equal d(sum(g*f(x)))/dx.
  Tensor a = Tensor::from_vector({1, 2}, {2}, host_device(), true);
  Tensor y = scale(a, 5.0f);
  Tensor seed = Tensor::from_vector({10, 20}, {2}, host_device());
  backward(y, seed);
  auto g = a.grad().to_vector();
  EXPECT_FLOAT_EQ(g[0], 50.0f);
  EXPECT_FLOAT_EQ(g[1], 100.0f);
}

TEST(Tape, SeedSizeMismatchThrows) {
  Tensor a = Tensor::full({2}, 1.0f, host_device(), true);
  Tensor y = scale(a, 2.0f);
  Tensor seed = Tensor::zeros({3}, host_device());
  EXPECT_THROW(backward(y, seed), InvalidArgument);
}

TEST(Tape, SplitBackwardEqualsEndToEnd) {
  // Cutting the chain at h and resuming with the upstream gradient must
  // reproduce the uncut gradient — the §2.2 correctness core.
  util::Rng rng(11);
  Tensor w1 = random_leaf({4, 4}, rng, host_device());
  Tensor w2 = random_leaf({4, 4}, rng, host_device());
  Tensor x = Tensor::empty({2, 4}, host_device());
  rng.fill_normal(x.data(), 8, 1.0f);

  // End-to-end.
  Tensor h_full = gelu(matmul(x, w1));
  Tensor loss_full = sum(matmul(h_full, w2));
  backward(loss_full);
  auto gw1_full = w1.grad().to_vector();
  auto gw2_full = w2.grad().to_vector();
  w1.zero_grad();
  w2.zero_grad();

  // Split at h: "server" computes h, "client" computes loss from a leaf
  // copy of h, gradients flow back through the seed.
  Tensor h_srv = gelu(matmul(x, w1));
  Tensor h_leaf = h_srv.clone();
  h_leaf.set_requires_grad(true);
  Tensor loss_client = sum(matmul(h_leaf, w2));
  backward(loss_client);
  backward(h_srv, h_leaf.grad());

  auto gw1_split = w1.grad().to_vector();
  auto gw2_split = w2.grad().to_vector();
  for (std::size_t i = 0; i < gw1_full.size(); ++i) {
    EXPECT_NEAR(gw1_full[i], gw1_split[i], 1e-5f);
  }
  for (std::size_t i = 0; i < gw2_full.size(); ++i) {
    EXPECT_NEAR(gw2_full[i], gw2_split[i], 1e-5f);
  }
}

// ----- per-op gradient checks -----

TEST(GradCheck, AddSubMul) {
  util::Rng rng(1);
  Tensor a = random_leaf({3, 4}, rng, host_device());
  Tensor b = random_leaf({3, 4}, rng, host_device());
  check_gradients([&] { return sum(mul(add(a, b), sub(a, b))); }, {a, b});
}

TEST(GradCheck, ScaleAndBias) {
  util::Rng rng(2);
  Tensor x = random_leaf({2, 5}, rng, host_device());
  Tensor bias = random_leaf({5}, rng, host_device());
  check_gradients([&] { return sum(add_bias(scale(x, 1.7f), bias)); },
                  {x, bias});
}

TEST(GradCheck, Activations) {
  util::Rng rng(3);
  Tensor x = random_leaf({4, 4}, rng, host_device(), 1.0f);
  check_gradients([&] { return sum(gelu(x)); }, {x});
  check_gradients([&] { return sum(silu(x)); }, {x});
  check_gradients([&] { return mean(relu(x)); }, {x}, 1e-2f, 4e-2f, 5e-3f);
}

TEST(GradCheck, Matmul2D) {
  util::Rng rng(4);
  Tensor a = random_leaf({3, 4}, rng, host_device());
  Tensor b = random_leaf({4, 2}, rng, host_device());
  check_gradients([&] { return sum(matmul(a, b)); }, {a, b});
}

TEST(GradCheck, MatmulBatchedSharedRight) {
  util::Rng rng(5);
  Tensor a = random_leaf({2, 3, 4}, rng, host_device());
  Tensor w = random_leaf({4, 3}, rng, host_device());
  check_gradients([&] { return sum(matmul(a, w)); }, {a, w});
}

TEST(GradCheck, Reshape) {
  util::Rng rng(7);
  Tensor a = random_leaf({2, 3, 4}, rng, host_device());
  Tensor w = random_leaf({4, 6}, rng, host_device());
  check_gradients([&] { return sum(mul(reshape(a, {4, 6}), w)); }, {a, w});
}

TEST(GradCheck, ConcatSlice) {
  util::Rng rng(8);
  Tensor a = random_leaf({2, 2, 3}, rng, host_device());
  Tensor b = random_leaf({2, 1, 3}, rng, host_device());
  check_gradients(
      [&] {
        Tensor c = concat_dim1(a, b);
        return sum(mul(slice_dim1(c, 1, 2), slice_dim1(c, 0, 2)));
      },
      {a, b});
}

TEST(GradCheck, Softmax) {
  util::Rng rng(9);
  Tensor x = random_leaf({3, 5}, rng, host_device(), 1.0f);
  Tensor weight = Tensor::empty({3, 5}, host_device());
  rng.fill_normal(weight.data(), 15, 1.0f);
  check_gradients([&] { return sum(mul(softmax_lastdim(x), weight)); }, {x});
}

TEST(GradCheck, CausalAttentionMultiHead) {
  util::Rng rng(10);
  Tensor q = random_leaf({2, 5, 6}, rng, host_device(), 1.0f);
  Tensor k = random_leaf({2, 5, 6}, rng, host_device(), 1.0f);
  Tensor v = random_leaf({2, 5, 6}, rng, host_device(), 1.0f);
  Tensor weight = Tensor::empty({2, 5, 6}, host_device());
  rng.fill_normal(weight.data(), 60, 1.0f);
  check_gradients(
      [&] { return sum(mul(causal_attention(q, k, v, 2, 2), weight)); },
      {q, k, v});
}

TEST(GradCheck, CausalAttentionGroupedQuery) {
  // Four query heads share two kv heads: dk/dv sum over each group.
  util::Rng rng(16);
  Tensor q = random_leaf({2, 4, 8}, rng, host_device(), 1.0f);
  Tensor k = random_leaf({2, 4, 4}, rng, host_device(), 1.0f);
  Tensor v = random_leaf({2, 4, 4}, rng, host_device(), 1.0f);
  Tensor weight = Tensor::empty({2, 4, 8}, host_device());
  rng.fill_normal(weight.data(), 64, 1.0f);
  check_gradients(
      [&] { return sum(mul(causal_attention(q, k, v, 4, 2), weight)); },
      {q, k, v});
}

TEST(GradCheck, LayerNorm) {
  util::Rng rng(11);
  Tensor x = random_leaf({3, 6}, rng, host_device(), 1.0f);
  Tensor gamma = random_leaf({6}, rng, host_device(), 0.5f);
  Tensor beta = random_leaf({6}, rng, host_device(), 0.5f);
  Tensor weight = Tensor::empty({3, 6}, host_device());
  rng.fill_normal(weight.data(), 18, 1.0f);
  check_gradients(
      [&] { return sum(mul(layer_norm(x, gamma, beta), weight)); },
      {x, gamma, beta}, 1e-2f, 6e-2f, 4e-3f);
}

TEST(GradCheck, RmsNorm) {
  util::Rng rng(12);
  Tensor x = random_leaf({3, 6}, rng, host_device(), 1.0f);
  Tensor gamma = random_leaf({6}, rng, host_device(), 0.5f);
  Tensor weight = Tensor::empty({3, 6}, host_device());
  rng.fill_normal(weight.data(), 18, 1.0f);
  check_gradients([&] { return sum(mul(rms_norm(x, gamma), weight)); },
                  {x, gamma}, 1e-2f, 6e-2f, 4e-3f);
}

TEST(GradCheck, Embedding) {
  util::Rng rng(13);
  Tensor w = random_leaf({5, 3}, rng, host_device());
  const std::vector<std::int32_t> ids{0, 2, 2, 4};
  check_gradients([&] { return sum(embedding(w, ids, 2, 2)); }, {w});
}

TEST(GradCheck, CrossEntropy) {
  util::Rng rng(14);
  Tensor logits = random_leaf({4, 6}, rng, host_device(), 1.0f);
  const std::vector<std::int32_t> targets{1, 0, 5, 3};
  check_gradients([&] { return cross_entropy(logits, targets); }, {logits});
}

TEST(GradCheck, CrossEntropyWithIgnore) {
  util::Rng rng(15);
  Tensor logits = random_leaf({3, 4}, rng, host_device(), 1.0f);
  const std::vector<std::int32_t> targets{2, -1, 0};
  check_gradients([&] { return cross_entropy(logits, targets); }, {logits});
}

// ----- frozen parameters: the backward computes only what is read -----

/// x -> layer_norm -> Linear (matmul + bias) -> gelu -> rms_norm -> matmul,
/// the trunk's op mix. `trainable` puts every parameter on the tape.
struct FrozenGraph {
  FrozenGraph(gpusim::Device& device, bool trainable) {
    util::Rng rng(21);
    x = random_leaf({4, 8, 16}, rng, device, 1.0f);
    gamma = random_leaf({16}, rng, device);
    beta = random_leaf({16}, rng, device);
    w1 = random_leaf({16, 24}, rng, device);
    b1 = random_leaf({24}, rng, device);
    gamma2 = random_leaf({24}, rng, device);
    w2 = random_leaf({24, 8}, rng, device);
    for (Tensor* p : {&gamma, &beta, &w1, &b1, &gamma2, &w2}) {
      p->set_requires_grad(trainable);
    }
    seed = Tensor::empty({4, 8, 8}, device);
    rng.fill_normal(seed.data(), static_cast<std::size_t>(seed.numel()), 1.0f);
  }

  Tensor forward() const {
    Tensor h = add_bias(matmul(layer_norm(x, gamma, beta), w1), b1);
    return matmul(rms_norm(gelu(h), gamma2), w2);
  }

  Tensor x, gamma, beta, w1, b1, gamma2, w2, seed;
};

using FrozenBackward = menos::testing::DeviceTest;

TEST_F(FrozenBackward, AllocatesOnlyOnTapeGradients) {
  // LN -> Linear[128x512] -> bias with x on the tape and every parameter
  // frozen. The backward allocates, per on-tape tensor, its .grad (a clone
  // of the incoming delta) and each op's input gradient: 2x the output
  // [4,32,512] for the root and the matmul result (add_bias passes its
  // gradient through), and 4x x's [4,32,128] for the layer_norm result and
  // x itself. A weight, bias, gamma or beta gradient would add its bytes.
  gpusim::Device& gpu = make_gpu("g0", 64u << 20);
  util::Rng rng(22);
  Tensor x = random_leaf({4, 32, 128}, rng, gpu);
  Tensor gamma = Tensor::full({128}, 1.0f, gpu);
  Tensor beta = Tensor::zeros({128}, gpu);
  Tensor w = Tensor::empty({128, 512}, gpu);
  rng.fill_normal(w.data(), static_cast<std::size_t>(w.numel()), 0.02f);
  Tensor b = Tensor::zeros({512}, gpu);
  Tensor y = add_bias(matmul(layer_norm(x, gamma, beta), w), b);
  Tensor seed = Tensor::full(y.shape(), 1.0f, gpu);

  const gpusim::MemoryStats before = gpu.stats();
  backward(y, seed);
  const gpusim::MemoryStats after = gpu.stats();
  const std::size_t x_bytes = 4 * 32 * 128 * sizeof(float);
  const std::size_t y_bytes = 4 * 32 * 512 * sizeof(float);
  EXPECT_EQ(after.lifetime_allocs - before.lifetime_allocs, 6u);
  EXPECT_EQ(after.lifetime_bytes - before.lifetime_bytes,
            2 * y_bytes + 4 * x_bytes);
  for (const Tensor& p : {gamma, beta, w, b}) {
    EXPECT_FALSE(p.grad().defined());
  }
  ASSERT_TRUE(x.grad().defined());
}

TEST_F(FrozenBackward, AttentionAllocatesOutputProbsAndOnTapeGradients) {
  // causal_attention on the trunk shape [4, 32, 128], 4 heads: a grad-mode
  // forward allocates its output and P [4, 4, 32, 32], nothing else; a
  // no-grad forward only its output; the backward only the gradients of
  // operands on the tape (k frozen here gets no dk buffer).
  gpusim::Device& gpu = make_gpu("g0", 64u << 20);
  util::Rng rng(24);
  Tensor q = random_leaf({4, 32, 128}, rng, gpu);
  Tensor k = Tensor::empty({4, 32, 128}, gpu);
  rng.fill_normal(k.data(), static_cast<std::size_t>(k.numel()), 1.0f);
  Tensor v = random_leaf({4, 32, 128}, rng, gpu);
  const std::size_t act_bytes = 4 * 32 * 128 * sizeof(float);
  const std::size_t p_bytes = 4 * 4 * 32 * 32 * sizeof(float);

  gpusim::MemoryStats before = gpu.stats();
  {
    NoGradGuard no_grad;
    Tensor out = causal_attention(q, k, v, 4, 4);
  }
  gpusim::MemoryStats after = gpu.stats();
  EXPECT_EQ(after.lifetime_allocs - before.lifetime_allocs, 1u);
  EXPECT_EQ(after.lifetime_bytes - before.lifetime_bytes, act_bytes);

  before = gpu.stats();
  Tensor out = causal_attention(q, k, v, 4, 4);
  after = gpu.stats();
  EXPECT_EQ(after.lifetime_allocs - before.lifetime_allocs, 2u);
  EXPECT_EQ(after.lifetime_bytes - before.lifetime_bytes, act_bytes + p_bytes);

  Tensor seed = Tensor::full(out.shape(), 1.0f, gpu);
  before = gpu.stats();
  const std::vector<Tensor> grads = out.impl()->grad_fn->run_backward(seed);
  after = gpu.stats();
  ASSERT_EQ(grads.size(), 3u);
  EXPECT_TRUE(grads[0].defined());
  EXPECT_FALSE(grads[1].defined());
  EXPECT_TRUE(grads[2].defined());
  EXPECT_EQ(after.lifetime_allocs - before.lifetime_allocs, 2u);
  EXPECT_EQ(after.lifetime_bytes - before.lifetime_bytes, 2 * act_bytes);
}

TEST_F(FrozenBackward, InputGradBitIdenticalFrozenOrTrainable) {
  struct WidthGuard {
    ~WidthGuard() { util::ThreadPool::instance().set_num_threads(1); }
  } guard;
  gpusim::Device& gpu = make_gpu("g0", 64u << 20);
  for (int width : {1, 2, 4}) {
    util::ThreadPool::instance().set_num_threads(width);
    std::vector<float> got[2];
    for (bool trainable : {false, true}) {
      FrozenGraph g(gpu, trainable);
      backward(g.forward(), g.seed);
      got[trainable ? 1 : 0] = g.x.grad().to_vector();
      EXPECT_EQ(g.w1.grad().defined(), trainable);
    }
    ASSERT_EQ(got[0].size(), got[1].size());
    EXPECT_EQ(std::memcmp(got[0].data(), got[1].data(),
                          got[0].size() * sizeof(float)),
              0)
        << "x.grad depends on whether parameters are frozen, width "
        << width;
  }
}

TEST(GradCheck, MixedFrozenAndTrainableParameters) {
  // Frozen: gamma, w1, gamma2 (and matmul's left operand c). Trainable:
  // x, beta, b1, w2, w3 — every need-flag combination of the four ops.
  FrozenGraph g(host_device(), false);
  util::Rng rng(23);
  Tensor c = Tensor::empty({4, 8, 24}, host_device());
  rng.fill_normal(c.data(), static_cast<std::size_t>(c.numel()), 0.5f);
  Tensor w3 = random_leaf({24, 8}, rng, host_device());
  for (Tensor* p : {&g.beta, &g.b1, &g.w2}) p->set_requires_grad(true);
  check_gradients(
      [&] { return sum(mul(add(g.forward(), matmul(c, w3)), g.seed)); },
      {g.x, g.beta, g.b1, g.w2, w3}, 1e-2f, 6e-2f, 4e-3f);
  for (const Tensor& p : {g.gamma, g.w1, g.gamma2, c}) {
    EXPECT_FALSE(p.grad().defined());
  }
}

// ----- parameterized sweep: composite MLP chains across shapes -----

struct ShapeCase {
  Index batch;
  Index in;
  Index hidden;
  Index out;
};

class MlpGradSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(MlpGradSweep, EndToEndGradcheck) {
  const ShapeCase c = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(c.batch * 1000 + c.in));
  Tensor x = random_leaf({c.batch, c.in}, rng, host_device());
  Tensor w1 = random_leaf({c.in, c.hidden}, rng, host_device());
  Tensor b1 = random_leaf({c.hidden}, rng, host_device(), 0.1f);
  Tensor w2 = random_leaf({c.hidden, c.out}, rng, host_device());
  std::vector<std::int32_t> targets;
  for (Index i = 0; i < c.batch; ++i) {
    targets.push_back(static_cast<std::int32_t>(i % c.out));
  }
  check_gradients(
      [&] {
        Tensor h = gelu(add_bias(matmul(x, w1), b1));
        return cross_entropy(matmul(h, w2), targets);
      },
      {x, w1, b1, w2}, 1e-2f, 6e-2f, 4e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpGradSweep,
                         ::testing::Values(ShapeCase{1, 3, 4, 2},
                                           ShapeCase{2, 4, 8, 3},
                                           ShapeCase{3, 6, 5, 4},
                                           ShapeCase{4, 2, 6, 2},
                                           ShapeCase{2, 8, 3, 5}));

}  // namespace
}  // namespace menos::tensor
