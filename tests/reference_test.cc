// Cross-checks against independent brute-force reference implementations:
// matmul vs a naive triple loop over random shapes, attention vs a
// per-position implementation, softmax vs direct exponentials, and a fuzz
// sweep over the wire decoder.
#include <gtest/gtest.h>

#include <cmath>

#include "net/message.h"
#include "nn/attention.h"
#include "test_helpers.h"

namespace menos {
namespace {

using menos::testing::host_device;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

// ----- matmul sweep vs naive reference -----

struct MatmulCase {
  Index batch;  // 0 = plain 2-D
  Index m;
  Index k;
  Index n;
};

class MatmulSweep : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(MatmulSweep, MatchesNaiveTripleLoop) {
  const MatmulCase c = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(c.m * 131 + c.k * 17 + c.n));
  const Index b = c.batch == 0 ? 1 : c.batch;

  Shape a_shape = c.batch == 0 ? Shape{c.m, c.k} : Shape{c.batch, c.m, c.k};
  Tensor A = Tensor::empty(a_shape, host_device());
  Tensor B = Tensor::empty({c.k, c.n}, host_device());
  rng.fill_normal(A.data(), static_cast<std::size_t>(A.numel()), 1.0f);
  rng.fill_normal(B.data(), static_cast<std::size_t>(B.numel()), 1.0f);

  Tensor C = tensor::matmul(A, B);
  ASSERT_EQ(C.numel(), b * c.m * c.n);

  const float* pa = A.data();
  const float* pb = B.data();
  const float* pc = C.data();
  for (Index bi = 0; bi < b; ++bi) {
    const float* a_mat = pa + bi * c.m * c.k;
    for (Index i = 0; i < c.m; ++i) {
      for (Index j = 0; j < c.n; ++j) {
        double acc = 0.0;
        for (Index p = 0; p < c.k; ++p) {
          acc += static_cast<double>(a_mat[i * c.k + p]) *
                 static_cast<double>(pb[p * c.n + j]);
        }
        EXPECT_NEAR(pc[(bi * c.m + i) * c.n + j], static_cast<float>(acc),
                    1e-3f * (1.0f + std::fabs(static_cast<float>(acc))))
            << "batch " << bi << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Values(MatmulCase{0, 1, 1, 1}, MatmulCase{0, 7, 3, 5},
                      MatmulCase{0, 16, 16, 16}, MatmulCase{0, 1, 33, 2},
                      MatmulCase{2, 4, 6, 3}, MatmulCase{3, 5, 2, 7},
                      MatmulCase{2, 3, 4, 5}, MatmulCase{4, 2, 8, 2},
                      MatmulCase{1, 9, 1, 9}));

// ----- attention vs per-position reference -----

/// causal_attention vs a per-(batch, head, position) double-precision
/// reference: the causal softmax-weighted sum of value vectors, query head
/// h reading kv head h / (H / Hkv).
void expect_attention_matches_brute_force(Index B, Index T, Index H,
                                          Index Hkv, Index D) {
  const Index C = H * D, Ckv = Hkv * D, group = H / Hkv;
  util::Rng rng(77);
  Tensor q = Tensor::empty({B, T, C}, host_device());
  Tensor k = Tensor::empty({B, T, Ckv}, host_device());
  Tensor v = Tensor::empty({B, T, Ckv}, host_device());
  rng.fill_normal(q.data(), static_cast<std::size_t>(q.numel()), 0.8f);
  rng.fill_normal(k.data(), static_cast<std::size_t>(k.numel()), 0.8f);
  rng.fill_normal(v.data(), static_cast<std::size_t>(v.numel()), 0.8f);

  // Library path: the attention core CausalSelfAttention::forward runs
  // between its projections.
  Tensor lib = tensor::causal_attention(q, k, v, static_cast<int>(H),
                                        static_cast<int>(Hkv));
  ASSERT_EQ(lib.shape(), (Shape{B, T, C}));
  const float* out = lib.data();

  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();
  for (Index b = 0; b < B; ++b) {
    for (Index h = 0; h < H; ++h) {
      const Index kvh = h / group;
      for (Index t = 0; t < T; ++t) {
        // Scores against positions 0..t.
        std::vector<double> s(static_cast<std::size_t>(t + 1));
        for (Index u = 0; u <= t; ++u) {
          double dot = 0.0;
          for (Index d = 0; d < D; ++d) {
            dot += static_cast<double>(pq[(b * T + t) * C + h * D + d]) *
                   static_cast<double>(pk[(b * T + u) * Ckv + kvh * D + d]);
          }
          s[static_cast<std::size_t>(u)] = dot / std::sqrt(double(D));
        }
        double mx = s[0];
        for (double x : s) mx = std::max(mx, x);
        double z = 0.0;
        for (double& x : s) {
          x = std::exp(x - mx);
          z += x;
        }
        for (Index d = 0; d < D; ++d) {
          double acc = 0.0;
          for (Index u = 0; u <= t; ++u) {
            acc += s[static_cast<std::size_t>(u)] / z *
                   static_cast<double>(pv[(b * T + u) * Ckv + kvh * D + d]);
          }
          EXPECT_NEAR(out[(b * T + t) * C + h * D + d],
                      static_cast<float>(acc), 2e-4f)
              << "H=" << H << " Hkv=" << Hkv << " b=" << b << " h=" << h
              << " t=" << t << " d=" << d;
        }
      }
    }
  }
}

TEST(AttentionReference, MatchesBruteForce) {
  expect_attention_matches_brute_force(2, 5, 2, 2, 3);  // multi-head
  expect_attention_matches_brute_force(2, 7, 4, 2, 3);  // grouped-query
  expect_attention_matches_brute_force(1, 9, 4, 1, 5);  // one kv head
}

// ----- layer norm / rms norm reference over random shapes -----

class NormSweep : public ::testing::TestWithParam<Index> {};

TEST_P(NormSweep, LayerNormMatchesDirectFormula) {
  const Index n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 31);
  Tensor x = Tensor::empty({3, n}, host_device());
  Tensor gamma = Tensor::empty({n}, host_device());
  Tensor beta = Tensor::empty({n}, host_device());
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 2.0f);
  rng.fill_normal(gamma.data(), static_cast<std::size_t>(n), 0.5f);
  rng.fill_normal(beta.data(), static_cast<std::size_t>(n), 0.5f);
  const float eps = 1e-5f;
  Tensor y = tensor::layer_norm(x, gamma, beta, eps);
  for (Index r = 0; r < 3; ++r) {
    double mu = 0.0;
    for (Index j = 0; j < n; ++j) mu += x.data()[r * n + j];
    mu /= n;
    double var = 0.0;
    for (Index j = 0; j < n; ++j) {
      const double d = x.data()[r * n + j] - mu;
      var += d * d;
    }
    var /= n;
    for (Index j = 0; j < n; ++j) {
      const double expected =
          (x.data()[r * n + j] - mu) / std::sqrt(var + eps) *
              gamma.data()[j] +
          beta.data()[j];
      EXPECT_NEAR(y.data()[r * n + j], expected, 2e-4);
    }
  }
}

TEST_P(NormSweep, RmsNormMatchesDirectFormula) {
  const Index n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 37);
  Tensor x = Tensor::empty({2, n}, host_device());
  Tensor gamma = Tensor::empty({n}, host_device());
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 2.0f);
  rng.fill_normal(gamma.data(), static_cast<std::size_t>(n), 0.5f);
  const float eps = 1e-5f;
  Tensor y = tensor::rms_norm(x, gamma, eps);
  for (Index r = 0; r < 2; ++r) {
    double ms = 0.0;
    for (Index j = 0; j < n; ++j) {
      ms += static_cast<double>(x.data()[r * n + j]) * x.data()[r * n + j];
    }
    ms /= n;
    for (Index j = 0; j < n; ++j) {
      const double expected =
          x.data()[r * n + j] / std::sqrt(ms + eps) * gamma.data()[j];
      EXPECT_NEAR(y.data()[r * n + j], expected, 2e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NormSweep,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 100));

// ----- wire decoder fuzzing -----

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomBytesNeverCrashDecoder) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len = rng.next_below(512);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    try {
      net::decode_message(junk.data(), junk.size());
    } catch (const ProtocolError&) {
      // the only acceptable outcome for malformed input
    }
    try {
      net::parse_frame(junk.data(), junk.size());
    } catch (const ProtocolError&) {
    }
  }
}

TEST_P(WireFuzz, TruncatedValidFramesRejectedCleanly) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  net::WireTensor t;
  t.shape = {4, 4};
  t.data.assign(16, 1.5f);
  const auto frame = net::frame_message(net::Message::forward(t, 3));
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t cut = rng.next_below(frame.size());
    try {
      net::parse_frame(frame.data(), cut);
      FAIL() << "truncated frame accepted at " << cut << " bytes";
    } catch (const ProtocolError&) {
    }
  }
}

TEST_P(WireFuzz, BitflippedValidPayloadsRejectedOrEqualLength) {
  // Flipping bits inside a framed message must never crash; the CRC layer
  // rejects virtually all of them.
  util::Rng rng(GetParam() ^ 0x1234);
  const auto frame =
      net::frame_message(net::Message::hello(net::FinetuneConfig{}));
  for (int trial = 0; trial < 200; ++trial) {
    auto copy = frame;
    copy[rng.next_below(copy.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      net::parse_frame(copy.data(), copy.size());
    } catch (const ProtocolError&) {
    } catch (const menos::Error&) {
      // decoded but semantically invalid — also acceptable
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace menos
