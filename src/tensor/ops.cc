#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/kernels.h"
#include "util/fastmath.h"
#include "util/thread_pool.h"

namespace menos::tensor {

namespace {

using detail::attach_node;
using detail::on_tape;
using detail::should_record;

void check_defined(const Tensor& t, const char* op) {
  MENOS_CHECK_MSG(t.defined(), op << ": undefined tensor operand");
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  MENOS_CHECK_MSG(a.shape() == b.shape(),
                  op << ": shape mismatch " << shape_to_string(a.shape())
                     << " vs " << shape_to_string(b.shape()));
}

/// New impl sharing `t`'s storage with a different shape (detached view).
Tensor view_as(const Tensor& t, Shape shape) {
  MENOS_CHECK_MSG(numel_of(shape) == t.numel(),
                  "view numel mismatch: " << shape_to_string(shape) << " on "
                                          << shape_to_string(t.shape()));
  return Tensor(std::make_shared<TensorImpl>(t.impl()->storage,
                                             std::move(shape), false));
}

// ----- parallel partitioning helpers -----
//
// Grain sizes are the minimum work (indices / output rows) worth shipping
// to another thread. Work is always partitioned so each output element is
// produced by exactly one chunk with a fixed internal loop order, which is
// what makes results bit-identical for any MENOS_THREADS (docs/PERF.md).

constexpr Index kEwGrain = 1 << 15;    // plain elementwise arithmetic
constexpr Index kMathGrain = 1 << 12;  // exp/tanh-heavy elementwise

Index rows_grain(Index row_len, Index grain = kEwGrain) {
  return std::max<Index>(1, grain / std::max<Index>(row_len, 1));
}

// ----- shared elementwise / backward helpers -----
//
// The raw matmul loops live in tensor/kernels.cc (the cache-blocked
// packed-panel implementation).

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

/// gelu(x), tanh approximation, on the deterministic fast_tanh.
inline float gelu_fwd(float x) {
  const float t = util::fast_tanh(kGeluC * (x + kGeluA * x * x * x));
  return 0.5f * x * (1.0f + t);
}

/// d gelu(x) / dx.
inline float gelu_grad(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = util::fast_tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

/// db[j] = sum_r g[r, j]: the bias gradient. Column-partitioned — each
/// thread owns a block of columns and sweeps rows in ascending order, so
/// every db[j] sees the same addition order at any thread count.
Tensor bias_grad_columns(const Tensor& g, Index rows, Index n) {
  Tensor db = Tensor::zeros({n}, g.device());
  const float* pg = g.data();
  float* pdb = db.data();
  util::parallel_for(0, n, rows_grain(rows), [&](Index j0, Index j1) {
    for (Index r = 0; r < rows; ++r) {
      const float* grow = pg + r * n;
      for (Index j = j0; j < j1; ++j) pdb[j] += grow[j];
    }
  });
  return db;
}

/// The layer_norm backward body: {dx, dgamma, dbeta} from the saved
/// normalized activations and per-row 1/sigma. dgamma/dbeta share one
/// pass and are computed only when `need_affine` (either is on the tape).
std::vector<Tensor> layer_norm_backward(const Tensor& xhat,
                                        const Tensor& inv_sigma,
                                        const Tensor& gamma_saved, Index n,
                                        Index rows, bool need_affine,
                                        const Tensor& g) {
  Tensor dx = Tensor::empty(g.shape(), g.device());
  const float* ph2 = xhat.data();
  const float* pis2 = inv_sigma.data();
  const float* pgam = gamma_saved.data();
  const float* pgr = g.data();
  float* pdx = dx.data();
  // Pass 1 (rows): dx, which only needs per-row statistics.
  util::parallel_for(0, rows, rows_grain(n), [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* hr = ph2 + r * n;
      const float* gr = pgr + r * n;
      float* dxr = pdx + r * n;
      float mean_gy = 0.0f, mean_gyh = 0.0f;
      for (Index j = 0; j < n; ++j) {
        const float gy = gr[j] * pgam[j];
        mean_gy += gy;
        mean_gyh += gy * hr[j];
      }
      mean_gy /= static_cast<float>(n);
      mean_gyh /= static_cast<float>(n);
      const float is = pis2[r];
      for (Index j = 0; j < n; ++j) {
        const float gy = gr[j] * pgam[j];
        dxr[j] = is * (gy - mean_gy - hr[j] * mean_gyh);
      }
    }
  });
  if (!need_affine) return {dx, Tensor(), Tensor()};
  // Pass 2 (columns): dgamma/dbeta. Each thread owns a column block and
  // sweeps rows in ascending order, so the reduction order per parameter
  // is thread-count invariant.
  Tensor dgamma = Tensor::zeros({n}, g.device());
  Tensor dbeta = Tensor::zeros({n}, g.device());
  float* pdg = dgamma.data();
  float* pdb = dbeta.data();
  util::parallel_for(0, n, rows_grain(rows), [&](Index j0, Index j1) {
    for (Index r = 0; r < rows; ++r) {
      const float* hr = ph2 + r * n;
      const float* gr = pgr + r * n;
      for (Index j = j0; j < j1; ++j) {
        pdg[j] += gr[j] * hr[j];
        pdb[j] += gr[j];
      }
    }
  });
  return {dx, dgamma, dbeta};
}

}  // namespace

// ----- elementwise -----

Tensor add(const Tensor& a, const Tensor& b) {
  check_defined(a, "add");
  check_defined(b, "add");
  check_same_shape(a, b, "add");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = pa[i] + pb[i];
  });
  if (should_record({a, b})) {
    attach_node(out, "add", {a, b}, [](const Tensor& g) {
      return std::vector<Tensor>{g, g};
    });
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_defined(a, "sub");
  check_defined(b, "sub");
  check_same_shape(a, b, "sub");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = pa[i] - pb[i];
  });
  if (should_record({a, b})) {
    attach_node(out, "sub", {a, b}, [](const Tensor& g) {
      return std::vector<Tensor>{g, scale(g, -1.0f)};
    });
  }
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_defined(a, "mul");
  check_defined(b, "mul");
  check_same_shape(a, b, "mul");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = pa[i] * pb[i];
  });
  if (should_record({a, b})) {
    Tensor sa = a.detach(), sb = b.detach();
    attach_node(out, "mul", {a, b}, [sa, sb](const Tensor& g) {
      return std::vector<Tensor>{mul(g, sb), mul(g, sa)};
    });
  }
  return out;
}

Tensor scale(const Tensor& a, float s) {
  check_defined(a, "scale");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = pa[i] * s;
  });
  if (should_record({a})) {
    attach_node(out, "scale", {a}, [s](const Tensor& g) {
      return std::vector<Tensor>{scale(g, s)};
    });
  }
  return out;
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  check_defined(x, "add_bias");
  check_defined(bias, "add_bias");
  MENOS_CHECK_MSG(bias.ndim() == 1, "add_bias: bias must be 1-D, got "
                                        << shape_to_string(bias.shape()));
  const Index n = bias.dim(0);
  MENOS_CHECK_MSG(x.ndim() >= 1 && x.shape().back() == n,
                  "add_bias: last dim of x " << shape_to_string(x.shape())
                                             << " != bias size " << n);
  Tensor out = Tensor::empty(x.shape(), x.device());
  const Index rows = x.numel() / n;
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  util::parallel_for(0, rows, rows_grain(n), [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float* orow = po + r * n;
      for (Index j = 0; j < n; ++j) orow[j] = xr[j] + pb[j];
    }
  });
  if (should_record({x, bias})) {
    const bool need_bias = on_tape(bias);
    attach_node(out, "add_bias", {x, bias},
                [n, rows, need_bias](const Tensor& g) {
                  return std::vector<Tensor>{
                      g, need_bias ? bias_grad_columns(g, rows, n) : Tensor()};
                });
  }
  return out;
}

Tensor relu(const Tensor& a) {
  check_defined(a, "relu");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kEwGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  });
  if (should_record({a})) {
    Tensor sa = a.detach();
    attach_node(out, "relu", {a}, [sa](const Tensor& g) {
      Tensor dx = Tensor::empty(g.shape(), g.device());
      const float* px = sa.data();
      const float* pg = g.data();
      float* pd = dx.data();
      const Index m = g.numel();
      util::parallel_for(0, m, kEwGrain, [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) pd[i] = px[i] > 0.0f ? pg[i] : 0.0f;
      });
      return std::vector<Tensor>{dx};
    });
  }
  return out;
}

Tensor gelu(const Tensor& a) {
  check_defined(a, "gelu");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  const Index n = a.numel();
  // gelu_fwd is branch-free inline arithmetic (util/fastmath.h), so this
  // loop vectorizes — the libm tanh it replaces pinned gelu at scalar
  // speed regardless of width (the flat scaling in BENCH_tensor_ops.json).
  util::parallel_for(0, n, kMathGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) po[i] = gelu_fwd(pa[i]);
  });
  if (should_record({a})) {
    Tensor sa = a.detach();
    attach_node(out, "gelu", {a}, [sa](const Tensor& g) {
      Tensor dx = Tensor::empty(g.shape(), g.device());
      const float* px = sa.data();
      const float* pg = g.data();
      float* pd = dx.data();
      const Index m = g.numel();
      util::parallel_for(0, m, kMathGrain, [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) pd[i] = pg[i] * gelu_grad(px[i]);
      });
      return std::vector<Tensor>{dx};
    });
  }
  return out;
}

Tensor silu(const Tensor& a) {
  check_defined(a, "silu");
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  const Index n = a.numel();
  util::parallel_for(0, n, kMathGrain, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      const float x = pa[i];
      po[i] = x * util::fast_sigmoid(x);
    }
  });
  if (should_record({a})) {
    Tensor sa = a.detach();
    attach_node(out, "silu", {a}, [sa](const Tensor& g) {
      Tensor dx = Tensor::empty(g.shape(), g.device());
      const float* px = sa.data();
      const float* pg = g.data();
      float* pd = dx.data();
      const Index m = g.numel();
      util::parallel_for(0, m, kMathGrain, [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) {
          const float x = px[i];
          const float s = util::fast_sigmoid(x);
          pd[i] = pg[i] * s * (1.0f + x * (1.0f - s));
        }
      });
      return std::vector<Tensor>{dx};
    });
  }
  return out;
}

Tensor dropout(const Tensor& a, float p, util::Rng& rng) {
  check_defined(a, "dropout");
  MENOS_CHECK_MSG(p >= 0.0f && p < 1.0f,
                  "dropout probability must be in [0, 1), got " << p);
  // p == 0 is the identity and consumes no rng state (tests/extras_test.cc
  // pins this).
  if (p == 0.0f) return a;
  const float keep_scale = 1.0f / (1.0f - p);
  Tensor out = Tensor::empty(a.shape(), a.device());
  // The mask is saved (as keep_scale or 0 per element) for backward.
  Tensor mask = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  float* pm = mask.data();
  const Index n = a.numel();
  for (Index i = 0; i < n; ++i) {
    const bool keep = rng.next_double() >= static_cast<double>(p);
    pm[i] = keep ? keep_scale : 0.0f;
    po[i] = pa[i] * pm[i];
  }
  if (should_record({a})) {
    attach_node(out, "dropout", {a}, [mask](const Tensor& g) {
      return std::vector<Tensor>{mul(g, mask)};
    });
  }
  return out;
}

// ----- shape manipulation -----

Tensor reshape(const Tensor& a, Shape new_shape) {
  check_defined(a, "reshape");
  Tensor out = view_as(a, std::move(new_shape));
  if (should_record({a})) {
    const Shape original = a.shape();
    attach_node(out, "reshape", {a}, [original](const Tensor& g) {
      return std::vector<Tensor>{view_as(g, original)};
    });
  }
  return out;
}

Tensor concat_dim1(const Tensor& a, const Tensor& b) {
  check_defined(a, "concat_dim1");
  check_defined(b, "concat_dim1");
  MENOS_CHECK_MSG(a.ndim() == 3 && b.ndim() == 3,
                  "concat_dim1 expects 3-D tensors");
  MENOS_CHECK_MSG(a.dim(0) == b.dim(0) && a.dim(2) == b.dim(2),
                  "concat_dim1: incompatible shapes "
                      << shape_to_string(a.shape()) << " and "
                      << shape_to_string(b.shape()));
  const Index B = a.dim(0), Ta = a.dim(1), Tb = b.dim(1), C = a.dim(2);
  Tensor out = Tensor::empty({B, Ta + Tb, C}, a.device());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (Index i = 0; i < B; ++i) {
    std::memcpy(po + i * (Ta + Tb) * C, pa + i * Ta * C,
                static_cast<std::size_t>(Ta * C) * sizeof(float));
    std::memcpy(po + (i * (Ta + Tb) + Ta) * C, pb + i * Tb * C,
                static_cast<std::size_t>(Tb * C) * sizeof(float));
  }
  if (should_record({a, b})) {
    attach_node(out, "concat_dim1", {a, b}, [B, Ta, Tb, C](const Tensor& g) {
      Tensor ga = Tensor::empty({B, Ta, C}, g.device());
      Tensor gb = Tensor::empty({B, Tb, C}, g.device());
      const float* pg = g.data();
      for (Index i = 0; i < B; ++i) {
        std::memcpy(ga.data() + i * Ta * C, pg + i * (Ta + Tb) * C,
                    static_cast<std::size_t>(Ta * C) * sizeof(float));
        std::memcpy(gb.data() + i * Tb * C, pg + (i * (Ta + Tb) + Ta) * C,
                    static_cast<std::size_t>(Tb * C) * sizeof(float));
      }
      return std::vector<Tensor>{ga, gb};
    });
  }
  return out;
}

Tensor slice_dim1(const Tensor& a, Index start, Index len) {
  check_defined(a, "slice_dim1");
  MENOS_CHECK_MSG(a.ndim() == 3, "slice_dim1 expects a 3-D tensor");
  const Index B = a.dim(0), T = a.dim(1), C = a.dim(2);
  MENOS_CHECK_MSG(start >= 0 && len >= 0 && start + len <= T,
                  "slice_dim1: range [" << start << ", " << start + len
                                        << ") out of bounds for T=" << T);
  Tensor out = Tensor::empty({B, len, C}, a.device());
  const float* pa = a.data();
  float* po = out.data();
  for (Index i = 0; i < B; ++i) {
    std::memcpy(po + i * len * C, pa + (i * T + start) * C,
                static_cast<std::size_t>(len * C) * sizeof(float));
  }
  if (should_record({a})) {
    attach_node(out, "slice_dim1", {a}, [B, T, C, start, len](const Tensor& g) {
      Tensor gx = Tensor::zeros({B, T, C}, g.device());
      const float* pg = g.data();
      for (Index i = 0; i < B; ++i) {
        std::memcpy(gx.data() + (i * T + start) * C, pg + i * len * C,
                    static_cast<std::size_t>(len * C) * sizeof(float));
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor tile_batch(const Tensor& prefix, Index batch) {
  check_defined(prefix, "tile_batch");
  MENOS_CHECK_MSG(prefix.ndim() == 2,
                  "tile_batch expects a 2-D prefix, got ndim "
                      << prefix.ndim());
  MENOS_CHECK_MSG(batch > 0, "tile_batch: batch must be positive");
  const Index p = prefix.dim(0);
  const Index c = prefix.dim(1);
  Tensor out = Tensor::empty({batch, p, c}, prefix.device());
  const float* src = prefix.data();
  float* dst = out.data();
  const std::size_t block = static_cast<std::size_t>(p * c) * sizeof(float);
  for (Index b = 0; b < batch; ++b) std::memcpy(dst + b * p * c, src, block);
  if (should_record({prefix})) {
    attach_node(out, "tile_batch", {prefix},
                [batch, p, c](const Tensor& g) {
                  Tensor dp = Tensor::zeros({p, c}, g.device());
                  const float* pg = g.data();
                  float* pd = dp.data();
                  for (Index b = 0; b < batch; ++b) {
                    const float* gb = pg + b * p * c;
                    for (Index i = 0; i < p * c; ++i) pd[i] += gb[i];
                  }
                  return std::vector<Tensor>{dp};
                });
  }
  return out;
}

// ----- contractions -----

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_defined(a, "matmul");
  check_defined(b, "matmul");
  MENOS_CHECK_MSG(a.ndim() >= 2 && b.ndim() == 2,
                  "matmul expects [..., m, k] x [k, n], got "
                      << shape_to_string(a.shape()) << " x "
                      << shape_to_string(b.shape()));
  const Shape& sa = a.shape();
  const Index k = sa.back();
  MENOS_CHECK_MSG(b.dim(0) == k,
                  "matmul: inner dims " << k << " vs " << b.dim(0));
  const Index n = b.dim(1);
  // [B..., m, k] x [k, n] is one [rows, k] x [k, n] product.
  const Index rows = a.numel() / k;

  Shape out_shape(sa.begin(), sa.end() - 1);
  out_shape.push_back(n);
  Tensor out = Tensor::zeros(out_shape, a.device());
  // A sealed weight (the shared base model) brings its B panels, packed
  // once; any other B is packed by the kernel on every call.
  if (const float* panels = b.packed_panels(false)) {
    kernels::mm_packed(a.data(), panels, out.data(), rows, k, n);
  } else {
    kernels::mm(a.data(), b.data(), out.data(), rows, k, n);
  }

  if (should_record({a, b})) {
    Tensor saved_a = a.detach();
    Tensor saved_b = b.detach();
    const bool need_a = on_tape(a);
    const bool need_b = on_tape(b);
    attach_node(out, "matmul", {a, b},
                [saved_a, saved_b, rows, k, n, need_a,
                 need_b](const Tensor& g) {
                  Tensor da, db;
                  const float* pg = g.data();
                  if (need_a) {
                    // dA = dC * B^T.
                    da = Tensor::zeros(saved_a.shape(), g.device());
                    if (const float* panels = saved_b.packed_panels(true)) {
                      kernels::mm_packed(pg, panels, da.data(), rows, n, k);
                    } else {
                      kernels::mm_nt(pg, saved_b.data(), da.data(), rows, n,
                                     k);
                    }
                  }
                  if (need_b) {
                    // dB = A^T * dC, summed over the leading axes: one
                    // contraction of depth rows.
                    db = Tensor::zeros(saved_b.shape(), g.device());
                    kernels::mm_tn(saved_a.data(), pg, db.data(), rows, k, n);
                  }
                  return std::vector<Tensor>{da, db};
                });
  }
  return out;
}

// ----- reductions / normalization -----

Tensor sum(const Tensor& a) {
  check_defined(a, "sum");
  double acc = 0.0;
  const float* pa = a.data();
  const Index n = a.numel();
  for (Index i = 0; i < n; ++i) acc += pa[i];
  Tensor out = Tensor::scalar(static_cast<float>(acc), a.device());
  if (should_record({a})) {
    const Shape in_shape = a.shape();
    attach_node(out, "sum", {a}, [in_shape](const Tensor& g) {
      return std::vector<Tensor>{
          Tensor::full(in_shape, g.item(), g.device())};
    });
  }
  return out;
}

Tensor mean(const Tensor& a) {
  check_defined(a, "mean");
  MENOS_CHECK_MSG(a.numel() > 0, "mean of empty tensor");
  const float inv = 1.0f / static_cast<float>(a.numel());
  return scale(sum(a), inv);
}

namespace {

/// The softmax backward: ds = y * (dy - sum_j dy_j * y_j) per row.
std::vector<Tensor> softmax_backward(const Tensor& y, const Tensor& g,
                                     Index row_len) {
  Tensor dx = Tensor::empty(g.shape(), g.device());
  const Index rows = g.numel() / row_len;
  const float* py = y.data();
  const float* pg = g.data();
  float* pd = dx.data();
  util::parallel_for(0, rows, rows_grain(row_len), [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* yr = py + r * row_len;
      const float* gr = pg + r * row_len;
      float* dr = pd + r * row_len;
      float dot = 0.0f;
      for (Index j = 0; j < row_len; ++j) dot += yr[j] * gr[j];
      for (Index j = 0; j < row_len; ++j) dr[j] = yr[j] * (gr[j] - dot);
    }
  });
  return {dx};
}

}  // namespace

Tensor softmax_lastdim(const Tensor& a) {
  check_defined(a, "softmax");
  MENOS_CHECK_MSG(a.ndim() >= 1, "softmax needs ndim >= 1");
  const Index n = a.shape().back();
  const Index rows = a.numel() / n;
  Tensor out = Tensor::empty(a.shape(), a.device());
  const float* pa = a.data();
  float* po = out.data();
  util::parallel_for(0, rows, rows_grain(n, kMathGrain),
                     [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* xr = pa + r * n;
      float* yr = po + r * n;
      float mx = xr[0];
      for (Index j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
      float z = 0.0f;
      for (Index j = 0; j < n; ++j) {
        yr[j] = util::fast_exp(xr[j] - mx);
        z += yr[j];
      }
      const float inv = 1.0f / z;
      for (Index j = 0; j < n; ++j) yr[j] *= inv;
    }
  });
  if (should_record({a})) {
    Tensor saved_y = out.detach();
    attach_node(out, "softmax", {a}, [saved_y, n](const Tensor& g) {
      return softmax_backward(saved_y, g, n);
    });
  }
  return out;
}

Tensor causal_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                        int n_heads, int n_kv_heads) {
  check_defined(q, "causal_attention");
  check_defined(k, "causal_attention");
  check_defined(v, "causal_attention");
  MENOS_CHECK_MSG(q.ndim() == 3 && k.ndim() == 3 && v.ndim() == 3,
                  "causal_attention expects [B, T, C] operands, got "
                      << shape_to_string(q.shape()) << ", "
                      << shape_to_string(k.shape()) << ", "
                      << shape_to_string(v.shape()));
  check_same_shape(k, v, "causal_attention");
  MENOS_CHECK_MSG(n_heads > 0 && n_kv_heads > 0 && n_heads % n_kv_heads == 0,
                  "causal_attention: query heads " << n_heads
                      << " not divisible by kv heads " << n_kv_heads);
  const Index batch = q.dim(0), seq = q.dim(1);
  MENOS_CHECK_MSG(q.dim(2) > 0 && q.dim(2) % n_heads == 0,
                  "causal_attention: width " << q.dim(2)
                      << " not divisible by heads " << n_heads);
  const Index head_dim = q.dim(2) / n_heads;
  MENOS_CHECK_MSG(k.dim(0) == batch && k.dim(1) == seq &&
                      k.dim(2) == n_kv_heads * head_dim,
                  "causal_attention: k/v " << shape_to_string(k.shape())
                      << " do not match q " << shape_to_string(q.shape())
                      << " with " << n_kv_heads << " kv heads");
  const kernels::AttentionShape s{batch, seq, n_heads, n_kv_heads, head_dim};

  Tensor out = Tensor::empty(q.shape(), q.device());
  const bool record = should_record({q, k, v});
  // The only saved activation of its own: P [B, H, T, T]. q/k/v are the
  // inputs, kept alive by reference.
  Tensor probs = record ? Tensor::empty({batch, n_heads, seq, seq}, q.device())
                        : Tensor();
  kernels::causal_attention(q.data(), k.data(), v.data(), out.data(),
                            record ? probs.data() : nullptr, s);
  if (record) {
    Tensor sq = q.detach(), sk = k.detach(), sv = v.detach();
    const bool need_q = on_tape(q), need_k = on_tape(k), need_v = on_tape(v);
    attach_node(out, "causal_attention", {q, k, v},
                [sq, sk, sv, probs, s, need_q, need_k,
                 need_v](const Tensor& g) {
                  const auto grad_for = [&](bool need, const Tensor& like) {
                    return need ? Tensor::empty(like.shape(), g.device())
                                : Tensor();
                  };
                  Tensor dq = grad_for(need_q, sq);
                  Tensor dk = grad_for(need_k, sk);
                  Tensor dv = grad_for(need_v, sv);
                  const auto ptr = [](Tensor& t) {
                    return t.defined() ? t.data() : nullptr;
                  };
                  kernels::causal_attention_backward(
                      sq.data(), sk.data(), sv.data(), probs.data(), g.data(),
                      ptr(dq), ptr(dk), ptr(dv), s);
                  return std::vector<Tensor>{dq, dk, dv};
                });
  }
  return out;
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  check_defined(x, "layer_norm");
  check_defined(gamma, "layer_norm");
  check_defined(beta, "layer_norm");
  MENOS_CHECK_MSG(gamma.ndim() == 1 && beta.ndim() == 1,
                  "layer_norm: gamma/beta must be 1-D");
  const Index n = x.shape().back();
  MENOS_CHECK_MSG(gamma.dim(0) == n && beta.dim(0) == n,
                  "layer_norm: param size mismatch");
  const Index rows = x.numel() / n;
  Tensor out = Tensor::empty(x.shape(), x.device());
  // Saved for backward: normalized activations and per-row 1/sigma.
  Tensor xhat = Tensor::empty(x.shape(), x.device());
  Tensor inv_sigma = Tensor::empty({rows}, x.device());

  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  float* ph = xhat.data();
  float* pis = inv_sigma.data();
  util::parallel_for(0, rows, rows_grain(n), [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float mu = 0.0f;
      for (Index j = 0; j < n; ++j) mu += xr[j];
      mu /= static_cast<float>(n);
      float var = 0.0f;
      for (Index j = 0; j < n; ++j) {
        const float d = xr[j] - mu;
        var += d * d;
      }
      var /= static_cast<float>(n);
      const float is = 1.0f / std::sqrt(var + eps);
      pis[r] = is;
      float* hr = ph + r * n;
      float* orow = po + r * n;
      for (Index j = 0; j < n; ++j) {
        hr[j] = (xr[j] - mu) * is;
        orow[j] = hr[j] * pg[j] + pb[j];
      }
    }
  });

  if (should_record({x, gamma, beta})) {
    Tensor sg = gamma.detach();
    const bool need_affine = on_tape(gamma) || on_tape(beta);
    attach_node(out, "layer_norm", {x, gamma, beta},
                [xhat, inv_sigma, sg, n, rows, need_affine](const Tensor& g) {
                  return layer_norm_backward(xhat, inv_sigma, sg, n, rows,
                                             need_affine, g);
                });
  }
  return out;
}

Tensor rms_norm(const Tensor& x, const Tensor& gamma, float eps) {
  check_defined(x, "rms_norm");
  check_defined(gamma, "rms_norm");
  MENOS_CHECK_MSG(gamma.ndim() == 1, "rms_norm: gamma must be 1-D");
  const Index n = x.shape().back();
  MENOS_CHECK_MSG(gamma.dim(0) == n, "rms_norm: gamma size mismatch");
  const Index rows = x.numel() / n;
  Tensor out = Tensor::empty(x.shape(), x.device());
  Tensor xhat = Tensor::empty(x.shape(), x.device());
  Tensor inv_rms = Tensor::empty({rows}, x.device());

  const float* px = x.data();
  const float* pg = gamma.data();
  float* po = out.data();
  float* ph = xhat.data();
  float* pir = inv_rms.data();
  util::parallel_for(0, rows, rows_grain(n), [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float ms = 0.0f;
      for (Index j = 0; j < n; ++j) ms += xr[j] * xr[j];
      ms /= static_cast<float>(n);
      const float ir = 1.0f / std::sqrt(ms + eps);
      pir[r] = ir;
      float* hr = ph + r * n;
      float* orow = po + r * n;
      for (Index j = 0; j < n; ++j) {
        hr[j] = xr[j] * ir;
        orow[j] = hr[j] * pg[j];
      }
    }
  });

  if (should_record({x, gamma})) {
    Tensor sg = gamma.detach();
    const bool need_gamma = on_tape(gamma);
    attach_node(out, "rms_norm", {x, gamma},
                [xhat, inv_rms, sg, n, rows, need_gamma](const Tensor& g) {
                  Tensor dx = Tensor::empty(g.shape(), g.device());
                  const float* ph2 = xhat.data();
                  const float* pir2 = inv_rms.data();
                  const float* pgam = sg.data();
                  const float* pgr = g.data();
                  float* pdx = dx.data();
                  util::parallel_for(
                      0, rows, rows_grain(n), [&](Index lo, Index hi) {
                        for (Index r = lo; r < hi; ++r) {
                          const float* hr = ph2 + r * n;
                          const float* gr = pgr + r * n;
                          float* dxr = pdx + r * n;
                          float mean_gh = 0.0f;
                          for (Index j = 0; j < n; ++j) {
                            mean_gh += gr[j] * pgam[j] * hr[j];
                          }
                          mean_gh /= static_cast<float>(n);
                          const float ir = pir2[r];
                          for (Index j = 0; j < n; ++j) {
                            const float gy = gr[j] * pgam[j];
                            dxr[j] = ir * (gy - hr[j] * mean_gh);
                          }
                        }
                      });
                  if (!need_gamma) return std::vector<Tensor>{dx, Tensor()};
                  Tensor dgamma = Tensor::zeros({n}, g.device());
                  float* pdg = dgamma.data();
                  util::parallel_for(
                      0, n, rows_grain(rows), [&](Index j0, Index j1) {
                        for (Index r = 0; r < rows; ++r) {
                          const float* hr = ph2 + r * n;
                          const float* gr = pgr + r * n;
                          for (Index j = j0; j < j1; ++j) {
                            pdg[j] += gr[j] * hr[j];
                          }
                        }
                      });
                  return std::vector<Tensor>{dx, dgamma};
                });
  }
  return out;
}

// ----- token ops -----

Tensor embedding(const Tensor& weight, const std::vector<std::int32_t>& ids,
                 Index batch, Index seq) {
  check_defined(weight, "embedding");
  MENOS_CHECK_MSG(weight.ndim() == 2, "embedding: weight must be [V, D]");
  MENOS_CHECK_MSG(static_cast<Index>(ids.size()) == batch * seq,
                  "embedding: ids size " << ids.size() << " != batch*seq "
                                         << batch * seq);
  const Index vocab = weight.dim(0);
  const Index dim = weight.dim(1);
  for (std::int32_t id : ids) {
    MENOS_CHECK_MSG(id >= 0 && id < vocab,
                    "embedding: id " << id << " outside vocab " << vocab);
  }
  Tensor out = Tensor::empty({batch, seq, dim}, weight.device());
  const float* pw = weight.data();
  float* po = out.data();
  util::parallel_for(0, batch * seq, rows_grain(dim),
                     [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      std::memcpy(po + i * dim,
                  pw + static_cast<Index>(ids[static_cast<std::size_t>(i)]) *
                           dim,
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  });
  if (should_record({weight})) {
    attach_node(out, "embedding", {weight},
                [ids, vocab, dim, batch, seq](const Tensor& g) {
                  Tensor dw = Tensor::zeros({vocab, dim}, g.device());
                  const float* pg = g.data();
                  float* pdw = dw.data();
                  for (Index i = 0; i < batch * seq; ++i) {
                    float* row = pdw + static_cast<Index>(
                                           ids[static_cast<std::size_t>(i)]) *
                                           dim;
                    const float* grow = pg + i * dim;
                    for (Index j = 0; j < dim; ++j) row[j] += grow[j];
                  }
                  return std::vector<Tensor>{dw};
                });
  }
  return out;
}

Tensor cross_entropy(const Tensor& logits,
                     const std::vector<std::int32_t>& targets,
                     std::int32_t ignore_index) {
  check_defined(logits, "cross_entropy");
  MENOS_CHECK_MSG(logits.ndim() == 2, "cross_entropy: logits must be [N, V]");
  const Index rows = logits.dim(0);
  const Index vocab = logits.dim(1);
  MENOS_CHECK_MSG(static_cast<Index>(targets.size()) == rows,
                  "cross_entropy: target count " << targets.size()
                                                 << " != rows " << rows);

  // Probabilities are saved for backward (grad = probs - onehot).
  Tensor probs = Tensor::empty(logits.shape(), logits.device());
  const float* pl = logits.data();
  float* pp = probs.data();
  // Rows are independent: probabilities and per-row losses are computed in
  // parallel, then the scalar loss is reduced serially in ascending row
  // order so the (double) accumulation order never depends on threading.
  std::vector<double> row_loss(static_cast<std::size_t>(rows), 0.0);
  util::parallel_for(0, rows, rows_grain(vocab, kMathGrain),
                     [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      const float* xr = pl + r * vocab;
      float* pr = pp + r * vocab;
      float mx = xr[0];
      for (Index j = 1; j < vocab; ++j) mx = std::max(mx, xr[j]);
      double z = 0.0;
      for (Index j = 0; j < vocab; ++j)
        z += std::exp(static_cast<double>(xr[j] - mx));
      const double lse = mx + std::log(z);
      for (Index j = 0; j < vocab; ++j) {
        pr[j] = static_cast<float>(std::exp(static_cast<double>(xr[j]) - lse));
      }
      const std::int32_t t = targets[static_cast<std::size_t>(r)];
      if (t == ignore_index) continue;
      MENOS_CHECK_MSG(t >= 0 && t < vocab,
                      "cross_entropy: target " << t << " outside vocab "
                                               << vocab);
      row_loss[static_cast<std::size_t>(r)] = lse - static_cast<double>(xr[t]);
    }
  });
  double loss_acc = 0.0;
  Index counted = 0;
  for (Index r = 0; r < rows; ++r) {
    if (targets[static_cast<std::size_t>(r)] == ignore_index) continue;
    loss_acc += row_loss[static_cast<std::size_t>(r)];
    ++counted;
  }
  MENOS_CHECK_MSG(counted > 0, "cross_entropy: all targets ignored");
  Tensor out = Tensor::scalar(
      static_cast<float>(loss_acc / static_cast<double>(counted)),
      logits.device());

  if (should_record({logits})) {
    attach_node(out, "cross_entropy", {logits},
                [probs, targets, rows, vocab, ignore_index,
                 counted](const Tensor& g) {
                  const float go = g.item();
                  Tensor dl = Tensor::empty({rows, vocab}, g.device());
                  const float* pp2 = probs.data();
                  float* pd = dl.data();
                  const float inv = go / static_cast<float>(counted);
                  util::parallel_for(
                      0, rows, rows_grain(vocab), [&](Index lo, Index hi) {
                        for (Index r = lo; r < hi; ++r) {
                          const std::int32_t t =
                              targets[static_cast<std::size_t>(r)];
                          float* dr = pd + r * vocab;
                          if (t == ignore_index) {
                            std::memset(dr, 0,
                                        static_cast<std::size_t>(vocab) *
                                            sizeof(float));
                            continue;
                          }
                          const float* pr = pp2 + r * vocab;
                          for (Index j = 0; j < vocab; ++j)
                            dr[j] = pr[j] * inv;
                          dr[t] -= inv;
                        }
                      });
                  return std::vector<Tensor>{dl};
                });
  }
  return out;
}

Tensor to_device(const Tensor& a, gpusim::Device& device) {
  check_defined(a, "to_device");
  Tensor out = Tensor::empty(a.shape(), device);
  std::memcpy(out.data(), a.data(), a.bytes());
  if (should_record({a})) {
    gpusim::Device* source = &a.device();
    attach_node(out, "to_device", {a}, [source](const Tensor& g) {
      Tensor back = Tensor::empty(g.shape(), *source);
      std::memcpy(back.data(), g.data(), g.bytes());
      return std::vector<Tensor>{back};
    });
  }
  return out;
}

std::vector<std::int32_t> argmax_lastdim(const Tensor& a) {
  check_defined(a, "argmax_lastdim");
  MENOS_CHECK_MSG(a.ndim() >= 1 && a.shape().back() > 0,
                  "argmax needs a non-empty last dimension");
  const Index n = a.shape().back();
  const Index rows = a.numel() / n;
  std::vector<std::int32_t> out(static_cast<std::size_t>(rows));
  const float* p = a.data();
  for (Index r = 0; r < rows; ++r) {
    const float* row = p + r * n;
    Index best = 0;
    for (Index j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(best);
  }
  return out;
}

}  // namespace menos::tensor
