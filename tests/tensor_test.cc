// Unit tests for the tensor engine: construction, views, and every op's
// forward semantics against hand-computed values.
#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_helpers.h"

namespace menos::tensor {
namespace {

using menos::testing::host_device;

TEST(TensorBasics, NumelAndShape) {
  EXPECT_EQ(numel_of({2, 3, 4}), 24);
  EXPECT_EQ(numel_of({}), 1);
  EXPECT_EQ(numel_of({5}), 5);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(TensorBasics, ZerosAndFull) {
  Tensor z = Tensor::zeros({2, 3}, host_device());
  for (float v : z.to_vector()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::full({4}, 2.5f, host_device());
  for (float v : f.to_vector()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorBasics, FromVectorRoundTrip) {
  std::vector<float> data{1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::from_vector(data, {2, 3}, host_device());
  EXPECT_EQ(t.to_vector(), data);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.bytes(), 6 * sizeof(float));
}

TEST(TensorBasics, FromVectorShapeMismatchThrows) {
  std::vector<float> data{1, 2, 3};
  EXPECT_THROW(Tensor::from_vector(data, {2, 2}, host_device()),
               InvalidArgument);
}

TEST(TensorBasics, ScalarItem) {
  Tensor s = Tensor::scalar(3.5f, host_device());
  EXPECT_FLOAT_EQ(s.item(), 3.5f);
  Tensor t = Tensor::zeros({2}, host_device());
  EXPECT_THROW(t.item(), InvalidArgument);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor a = Tensor::full({3}, 1.0f, host_device());
  Tensor b = a.clone();
  b.data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 1.0f);
}

TEST(TensorBasics, DetachSharesStorage) {
  Tensor a = Tensor::full({3}, 1.0f, host_device());
  Tensor b = a.detach();
  b.data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 9.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(TensorBasics, CopyHandleAliases) {
  Tensor a = Tensor::full({2}, 1.0f, host_device());
  Tensor b = a;
  b.data()[1] = 7.0f;
  EXPECT_FLOAT_EQ(a.data()[1], 7.0f);
}

TEST(TensorBasics, MigrateMovesBetweenDevices) {
  auto gpu = gpusim::make_sim_gpu("g", 1 << 20);
  Tensor a = Tensor::full({4}, 2.0f, *gpu);
  const std::size_t on_gpu = gpu->allocated();
  EXPECT_GT(on_gpu, 0u);
  a.migrate(host_device());
  EXPECT_EQ(gpu->allocated(), 0u);
  EXPECT_FLOAT_EQ(a.data()[2], 2.0f);
  a.migrate(*gpu);
  EXPECT_EQ(gpu->allocated(), on_gpu);
}

TEST(TensorBasics, RequiresGradOnNonLeafThrows) {
  Tensor a = Tensor::full({2}, 1.0f, host_device(), true);
  Tensor b = scale(a, 2.0f);
  EXPECT_THROW(b.set_requires_grad(true), InvalidArgument);
}

// ----- elementwise forward semantics -----

TEST(Elementwise, Add) {
  Tensor a = Tensor::from_vector({1, 2, 3}, {3}, host_device());
  Tensor b = Tensor::from_vector({10, 20, 30}, {3}, host_device());
  EXPECT_EQ(add(a, b).to_vector(), (std::vector<float>{11, 22, 33}));
}

TEST(Elementwise, AddShapeMismatchThrows) {
  Tensor a = Tensor::zeros({3}, host_device());
  Tensor b = Tensor::zeros({4}, host_device());
  EXPECT_THROW(add(a, b), InvalidArgument);
}

TEST(Elementwise, Sub) {
  Tensor a = Tensor::from_vector({5, 7}, {2}, host_device());
  Tensor b = Tensor::from_vector({2, 3}, {2}, host_device());
  EXPECT_EQ(sub(a, b).to_vector(), (std::vector<float>{3, 4}));
}

TEST(Elementwise, Mul) {
  Tensor a = Tensor::from_vector({2, 3}, {2}, host_device());
  Tensor b = Tensor::from_vector({4, 5}, {2}, host_device());
  EXPECT_EQ(mul(a, b).to_vector(), (std::vector<float>{8, 15}));
}

TEST(Elementwise, Scale) {
  Tensor a = Tensor::from_vector({1, -2}, {2}, host_device());
  EXPECT_EQ(scale(a, -3.0f).to_vector(), (std::vector<float>{-3, 6}));
}

TEST(Elementwise, AddBiasBroadcastsOverRows) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3}, host_device());
  Tensor b = Tensor::from_vector({10, 20, 30}, {3}, host_device());
  EXPECT_EQ(add_bias(x, b).to_vector(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Elementwise, Relu) {
  Tensor a = Tensor::from_vector({-1, 0, 2}, {3}, host_device());
  EXPECT_EQ(relu(a).to_vector(), (std::vector<float>{0, 0, 2}));
}

TEST(Elementwise, GeluKnownValues) {
  Tensor a = Tensor::from_vector({0.0f, 1.0f, -1.0f}, {3}, host_device());
  auto y = gelu(a).to_vector();
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3f);
}

TEST(Elementwise, SiluKnownValues) {
  Tensor a = Tensor::from_vector({0.0f, 1.0f}, {2}, host_device());
  auto y = silu(a).to_vector();
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.7311f, 1e-3f);
}

// ----- shape ops -----

TEST(ShapeOps, ReshapeSharesStorage) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2}, host_device());
  Tensor b = reshape(a, {4});
  b.data()[0] = 42.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 42.0f);
  EXPECT_EQ(b.shape(), (Shape{4}));
  EXPECT_THROW(reshape(a, {3}), InvalidArgument);
}

TEST(ShapeOps, ConcatAndSliceDim1) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {1, 2, 2}, host_device());
  Tensor b = Tensor::from_vector({5, 6}, {1, 1, 2}, host_device());
  Tensor c = concat_dim1(a, b);
  EXPECT_EQ(c.shape(), (Shape{1, 3, 2}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
  Tensor s = slice_dim1(c, 1, 2);
  EXPECT_EQ(s.to_vector(), (std::vector<float>{3, 4, 5, 6}));
  EXPECT_THROW(slice_dim1(c, 2, 2), InvalidArgument);
}

// ----- matmul -----

TEST(Matmul, TwoByTwo) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2}, host_device());
  Tensor b = Tensor::from_vector({5, 6, 7, 8}, {2, 2}, host_device());
  EXPECT_EQ(matmul(a, b).to_vector(), (std::vector<float>{19, 22, 43, 50}));
}

TEST(Matmul, RectangularShapes) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3}, host_device());
  Tensor b = Tensor::from_vector({1, 0, 0, 1, 1, 1}, {3, 2}, host_device());
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{4, 5, 10, 11}));
}

TEST(Matmul, BatchedSharedRight) {
  // Two batch entries against one weight.
  Tensor a = Tensor::from_vector({1, 0, 0, 1, 2, 0, 0, 2}, {2, 2, 2},
                                 host_device());
  Tensor w = Tensor::from_vector({1, 2, 3, 4}, {2, 2}, host_device());
  Tensor c = matmul(a, w);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{1, 2, 3, 4, 2, 4, 6, 8}));
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3}, host_device());
  Tensor b = Tensor::zeros({4, 2}, host_device());
  EXPECT_THROW(matmul(a, b), InvalidArgument);
}

TEST(Matmul, BatchedRightOperandThrows) {
  // The right operand is a weight: 2-D only.
  Tensor a = Tensor::zeros({2, 2, 2}, host_device());
  Tensor b = Tensor::zeros({2, 2, 2}, host_device());
  EXPECT_THROW(matmul(a, b), InvalidArgument);
  EXPECT_THROW(matmul(a, Tensor::zeros({2}, host_device())), InvalidArgument);
}

// ----- reductions / softmax / norms -----

TEST(Reductions, SumAndMean) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2}, host_device());
  EXPECT_FLOAT_EQ(sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(mean(a).item(), 2.5f);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(7);
  Tensor a = Tensor::empty({4, 8}, host_device());
  rng.fill_normal(a.data(), 32, 2.0f);
  Tensor y = softmax_lastdim(a);
  auto v = y.to_vector();
  for (int r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int j = 0; j < 8; ++j) total += v[static_cast<std::size_t>(r * 8 + j)];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, InvariantToShift) {
  Tensor a = Tensor::from_vector({1, 2, 3}, {1, 3}, host_device());
  Tensor b = Tensor::from_vector({101, 102, 103}, {1, 3}, host_device());
  auto ya = softmax_lastdim(a).to_vector();
  auto yb = softmax_lastdim(b).to_vector();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(ya[i], yb[i], 1e-5f);
}

TEST(Attention, FutureTokensDoNotChangeEarlierOutputs) {
  // The causal mask: row t of the output reads keys and values 0..t only,
  // so rewriting the last position's q/k/v moves only the last row.
  util::Rng rng(9);
  const Index B = 1, T = 4, C = 4;
  Tensor q = Tensor::empty({B, T, C}, host_device());
  Tensor k = Tensor::empty({B, T, C}, host_device());
  Tensor v = Tensor::empty({B, T, C}, host_device());
  for (Tensor* t : {&q, &k, &v}) {
    rng.fill_normal(t->data(), static_cast<std::size_t>(t->numel()), 1.0f);
  }
  const auto before = causal_attention(q, k, v, 2, 2).to_vector();
  for (Tensor* t : {&q, &k, &v}) {
    for (Index j = 0; j < C; ++j) t->data()[(T - 1) * C + j] += 3.0f;
  }
  const auto after = causal_attention(q, k, v, 2, 2).to_vector();
  for (Index i = 0; i < (T - 1) * C; ++i) {
    EXPECT_EQ(before[static_cast<std::size_t>(i)],
              after[static_cast<std::size_t>(i)]) << "element " << i;
  }
  // Position 0 attends only to itself: its output is its own value row.
  for (Index j = 0; j < C; ++j) {
    EXPECT_NEAR(after[static_cast<std::size_t>(j)],
                v.data()[static_cast<std::size_t>(j)], 1e-6f);
  }
}

TEST(Attention, RejectsMismatchedShapes) {
  Tensor q = Tensor::zeros({2, 3, 8}, host_device());
  Tensor kv = Tensor::zeros({2, 3, 4}, host_device());
  EXPECT_THROW(causal_attention(q, q, q, 3, 3), InvalidArgument);  // 8 % 3
  EXPECT_THROW(causal_attention(q, q, q, 4, 3), InvalidArgument);  // 4 % 3
  EXPECT_THROW(causal_attention(q, kv, kv, 4, 4), InvalidArgument);
  EXPECT_THROW(causal_attention(q, q, kv, 4, 4), InvalidArgument);
  EXPECT_THROW(causal_attention(reshape(q, {6, 8}), q, q, 4, 4),
               InvalidArgument);
  EXPECT_EQ(causal_attention(q, kv, kv, 4, 2).shape(), (Shape{2, 3, 8}));
}

TEST(Norms, LayerNormNormalizesRows) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 10, 20, 30, 40}, {2, 4},
                                 host_device());
  Tensor gamma = Tensor::full({4}, 1.0f, host_device());
  Tensor beta = Tensor::zeros({4}, host_device());
  auto y = layer_norm(x, gamma, beta).to_vector();
  for (int r = 0; r < 2; ++r) {
    float mu = 0.0f, var = 0.0f;
    for (int j = 0; j < 4; ++j) mu += y[static_cast<std::size_t>(r * 4 + j)];
    mu /= 4.0f;
    for (int j = 0; j < 4; ++j) {
      const float d = y[static_cast<std::size_t>(r * 4 + j)] - mu;
      var += d * d;
    }
    EXPECT_NEAR(mu, 0.0f, 1e-5f);
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  }
}

TEST(Norms, LayerNormAffine) {
  Tensor x = Tensor::from_vector({1, 2}, {1, 2}, host_device());
  Tensor gamma = Tensor::from_vector({2, 2}, {2}, host_device());
  Tensor beta = Tensor::from_vector({5, 5}, {2}, host_device());
  auto y = layer_norm(x, gamma, beta).to_vector();
  // Normalized row is {-1, 1} (up to eps), so output is {3, 7}.
  EXPECT_NEAR(y[0], 3.0f, 1e-2f);
  EXPECT_NEAR(y[1], 7.0f, 1e-2f);
}

TEST(Norms, RmsNormMatchesDefinition) {
  Tensor x = Tensor::from_vector({3, 4}, {1, 2}, host_device());
  Tensor gamma = Tensor::full({2}, 1.0f, host_device());
  auto y = rms_norm(x, gamma, 0.0f).to_vector();
  const float rms = std::sqrt((9.0f + 16.0f) / 2.0f);
  EXPECT_NEAR(y[0], 3.0f / rms, 1e-5f);
  EXPECT_NEAR(y[1], 4.0f / rms, 1e-5f);
}

// ----- token ops -----

TEST(TokenOps, EmbeddingGathersRows) {
  Tensor w = Tensor::from_vector({0, 1, 10, 11, 20, 21}, {3, 2},
                                 host_device());
  Tensor e = embedding(w, {2, 0, 1, 1}, 2, 2);
  EXPECT_EQ(e.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(e.to_vector(),
            (std::vector<float>{20, 21, 0, 1, 10, 11, 10, 11}));
}

TEST(TokenOps, EmbeddingRejectsOutOfVocab) {
  Tensor w = Tensor::zeros({3, 2}, host_device());
  EXPECT_THROW(embedding(w, {3, 0}, 1, 2), InvalidArgument);
  EXPECT_THROW(embedding(w, {-1, 0}, 1, 2), InvalidArgument);
}

TEST(TokenOps, CrossEntropyUniformLogits) {
  // Uniform logits over V classes -> loss = log(V).
  Tensor logits = Tensor::zeros({2, 4}, host_device());
  Tensor loss = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(TokenOps, CrossEntropyConfidentCorrect) {
  Tensor logits = Tensor::from_vector({100, 0, 0, 0}, {1, 4}, host_device());
  EXPECT_NEAR(cross_entropy(logits, {0}).item(), 0.0f, 1e-4f);
}

TEST(TokenOps, CrossEntropyIgnoreIndex) {
  Tensor logits = Tensor::from_vector({100, 0, 0, 0, 0, 0, 0, 0}, {2, 4},
                                      host_device());
  // Second row ignored: loss comes from the confident first row only.
  Tensor loss = cross_entropy(logits, {0, -1});
  EXPECT_NEAR(loss.item(), 0.0f, 1e-4f);
  EXPECT_THROW(cross_entropy(logits, {0, 7}), InvalidArgument);
}

TEST(TokenOps, CrossEntropyAllIgnoredThrows) {
  Tensor logits = Tensor::zeros({1, 4}, host_device());
  EXPECT_THROW(cross_entropy(logits, {-1}), InvalidArgument);
}

// ----- memory accounting through tensor lifecycle -----

TEST(TensorMemory, StorageFreedOnDrop) {
  auto gpu = gpusim::make_sim_gpu("mem", 1 << 20);
  {
    Tensor a = Tensor::zeros({64}, *gpu);
    EXPECT_EQ(gpu->allocated(), 64 * sizeof(float));
    Tensor view = reshape(a, {8, 8});
    EXPECT_EQ(gpu->allocated(), 64 * sizeof(float));  // view shares storage
  }
  EXPECT_EQ(gpu->allocated(), 0u);
}

TEST(TensorMemory, OomSurfacesAsException) {
  auto gpu = gpusim::make_sim_gpu("tiny", 256);
  EXPECT_THROW(Tensor::zeros({1024}, *gpu), OutOfMemory);
  // Failed allocation must not leak accounting.
  EXPECT_EQ(gpu->allocated(), 0u);
}

TEST(TensorMemory, NoGradForwardAllocatesLessThanGradForward) {
  auto gpu = gpusim::make_sim_gpu("peek", 64u << 20);
  util::Rng rng(3);
  Tensor w1 = menos::testing::random_leaf({32, 64}, rng, *gpu);
  Tensor w2 = menos::testing::random_leaf({64, 32}, rng, *gpu);
  Tensor x = Tensor::empty({16, 32}, *gpu);
  rng.fill_normal(x.data(), 16 * 32, 1.0f);

  const auto run = [&] {
    Tensor h = gelu(matmul(x, w1));
    return sum(matmul(h, w2));
  };

  gpu->reset_peak();
  const std::size_t base = gpu->allocated();
  {
    NoGradGuard no_grad;
    run();
  }
  const std::size_t nograd_peak = gpu->stats().peak - base;

  gpu->reset_peak();
  {
    Tensor loss = run();  // graph + saved activations retained in scope
    const std::size_t grad_peak = gpu->stats().peak - base;
    EXPECT_GT(grad_peak, nograd_peak);
  }
  EXPECT_EQ(gpu->allocated(), base);  // graph release returns all memory
}

}  // namespace
}  // namespace menos::tensor
