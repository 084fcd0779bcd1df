// Cache-blocked packed-panel matmul kernels and the stride-walking permute
// copy (see kernels.h for the contract, docs/PERF.md for the design).
//
// Structure, outermost to innermost (the GotoBLAS/BLIS decomposition):
//
//   for jc : NC-wide column panels of C
//     for pc : KC-deep contraction panels
//       pack B[pc:pc+KC, jc:jc+NC] into contiguous NR-wide strips
//       parallel_for over MR-row strips of C        <- the ONLY fork point
//         for ic : MC-tall row blocks of this thread's range
//           pack A[ic:ic+MC, pc:pc+KC] into MR-wide strips (thread scratch)
//           for each (MR x NR) tile: micro-kernel
//
// The micro-kernel keeps an MR x NR accumulator block in vector registers
// and adds one rank-1 update per contraction step p, p ascending. Because C
// round-trips through memory between KC-panels losslessly (float loads and
// stores are exact) and every a*b term is added individually, the value of
// every C element is the result of the SAME sequence of fused
// multiply-adds regardless of MC/NC/KC, chunk boundaries, or thread count
// — which is exactly what the serial *_ref kernels compute.
//
// Scratch never touches the gpusim Device layer: packing buffers are
// per-thread aligned pools from util/aligned.h (the `kernel-scratch` lint
// rule enforces this).
#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>

#if defined(__FMA__)
#include <immintrin.h>
#endif

#include "util/aligned.h"
#include "util/thread_pool.h"

namespace menos::tensor::kernels {
namespace {

// ----- architecture selection -----
//
// GNU vector extensions, plus one FMA intrinsic in vmadd(): the same source
// compiles to SSE2, AVX2+FMA or AVX-512 depending on -march (see
// MENOS_NATIVE_ARCH in the top-level CMakeLists). Lane arithmetic is
// element-wise identical to the scalar form, so the choice affects speed
// only within one build; the determinism contract is per build, same as
// any -ffp-contract effect.

#if defined(__AVX512F__)
constexpr int kVecLanes = 16;
constexpr int kMR = 6;        // rows per register tile
constexpr int kNVecs = 2;     // vectors per tile row -> 12 accumulators
constexpr char kArchLabel[] = "avx512";
#elif defined(__AVX__)
constexpr int kVecLanes = 8;
constexpr int kMR = 4;
constexpr int kNVecs = 3;     // 12 ymm accumulators + 3 B + 1 broadcast
constexpr char kArchLabel[] = "avx2";
#else
constexpr int kVecLanes = 4;
constexpr int kMR = 4;
constexpr int kNVecs = 2;     // 8 xmm accumulators
constexpr char kArchLabel[] = "sse2";
#endif
constexpr int kNR = kVecLanes * kNVecs;  // cols per register tile

typedef float Vec __attribute__((vector_size(kVecLanes * sizeof(float))));

// Default cache blocking: A block (MC x KC) ~96 KiB stays in L2, the B
// panel (KC x NC) streams through L3, the B strip (KC x NR) lives in L1.
constexpr Index kDefaultMc = 96;
constexpr Index kDefaultNc = 512;
constexpr Index kDefaultKc = 256;

BlockConfig g_config;  // zeros = defaults; set between kernels only

Index resolved(Index value, Index fallback) {
  return value > 0 ? value : fallback;
}

// The scalar reduction loops (the serial references) must make the SAME
// per-element rounding decisions as the vector micro-kernel, and a
// plain `acc += a[p]*b[p]` does not guarantee that: the compiler may
// contract it to an fma, leave it as mul+add, or — worst — partially
// vectorize it into a vmulps + sequential vaddss mix that keeps the
// summation order but rounds some products separately. madd() pins the
// choice explicitly: fused when the target ISA has FMA (what vmadd() emits
// for the micro-kernel), plain mul+add otherwise (SSE2 has no fma
// instruction, so the vector code rounds products separately too). One
// contraction decision per build, every path. The reference kernels are
// additionally kept scalar so the vectorizer cannot re-mix them.
inline float madd(float acc, float a, float b) {
#if defined(__FMA__)
  return __builtin_fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

// Vector counterpart of madd(), with the same fuse-or-not decision per
// build. The update is spelled as the explicit FMA intrinsic of the
// register width kVecLanes picked above, not as `acc += a * b`: GCC
// contracts that expression into vfmadd only at -O2 (-ffp-contract=fast),
// so Debug builds would round products separately while madd() stays
// fused. The intrinsic emits the same packed vfmadd231ps at every
// optimisation level, so Debug and Release agree bit for bit with each
// other and with the *_ref kernels. (A per-lane __builtin_fmaf loop agrees
// too, but GCC 12 does not re-vectorize it: it runs lane by lane.)
inline Vec vmadd(Vec acc, float a, Vec b) {
#if defined(__FMA__) && defined(__AVX512F__)
  return (Vec)_mm512_fmadd_ps(_mm512_set1_ps(a), (__m512)b, (__m512)acc);
#elif defined(__FMA__) && defined(__AVX__)
  return (Vec)_mm256_fmadd_ps(_mm256_set1_ps(a), (__m256)b, (__m256)acc);
#elif defined(__FMA__)
  return (Vec)_mm_fmadd_ps(_mm_set1_ps(a), (__m128)b, (__m128)acc);
#else
  return acc + a * b;  // no fma instruction on this target; never contracted
#endif
}

#if defined(__GNUC__) && !defined(__clang__)
#define MENOS_SCALAR_ONLY __attribute__((optimize("no-tree-vectorize")))
#else
#define MENOS_SCALAR_ONLY
#endif

// Scratch slots (per thread, util::scratch_floats): 0 = A panels packed by
// whichever thread runs the row chunk, 1 = the shared B panel packed by
// the dispatching thread (or by each thread in the self-packing batched
// path — still its own slot, never shared).
constexpr int kScratchA = 0;
constexpr int kScratchB = 1;

// ----- packing -----
//
// A is packed contraction-major in MR-wide row strips: ap[s][p*MR + i]
// holds A-element (strip_row s*MR+i, contraction p). B likewise in NR-wide
// column strips: bp[s][p*NR + j]. Partial strips are zero-padded; padded
// lanes are computed and discarded, never stored.

/// `trans == false`: element (i, p) at a[i * lda + p] (A row-major).
/// `trans == true` : element (i, p) at a[p * lda + i] (A^T view).
void pack_a(const float* __restrict__ a, Index lda, bool trans, Index mc,
            Index kc, float* __restrict__ ap) {
  for (Index i0 = 0; i0 < mc; i0 += kMR) {
    const Index mr = std::min<Index>(kMR, mc - i0);
    if (trans) {
      for (Index p = 0; p < kc; ++p) {
        const float* src = a + p * lda + i0;
        for (Index ii = 0; ii < kMR; ++ii) {
          ap[p * kMR + ii] = ii < mr ? src[ii] : 0.0f;
        }
      }
    } else {
      for (Index p = 0; p < kc; ++p) {
        for (Index ii = 0; ii < kMR; ++ii) {
          ap[p * kMR + ii] = ii < mr ? a[(i0 + ii) * lda + p] : 0.0f;
        }
      }
    }
    ap += kc * kMR;
  }
}

/// `trans == false`: element (p, j) at b[p * ldb + j] (B row-major).
/// `trans == true` : element (p, j) at b[j * ldb + p] (B^T view).
void pack_b(const float* __restrict__ b, Index ldb, bool trans, Index kc,
            Index nc, float* __restrict__ bp) {
  for (Index j0 = 0; j0 < nc; j0 += kNR) {
    const Index nr = std::min<Index>(kNR, nc - j0);
    if (trans) {
      for (Index p = 0; p < kc; ++p) {
        for (Index jj = 0; jj < kNR; ++jj) {
          bp[p * kNR + jj] = jj < nr ? b[(j0 + jj) * ldb + p] : 0.0f;
        }
      }
    } else {
      for (Index p = 0; p < kc; ++p) {
        const float* src = b + p * ldb + j0;
        for (Index jj = 0; jj < kNR; ++jj) {
          bp[p * kNR + jj] = jj < nr ? src[jj] : 0.0f;
        }
      }
    }
    bp += kc * kNR;
  }
}

// ----- micro-kernels -----

/// Full MR x NR tile: C_tile += sum_p apack[p][:] (x) bpack[p][:], one
/// rank-1 update per p, kept entirely in vector registers.
void micro(const float* __restrict__ ap, const float* __restrict__ bp,
           float* __restrict__ c, Index ldc, Index kc) {
  Vec acc[kMR][kNVecs];
  for (int i = 0; i < kMR; ++i) {
    for (int v = 0; v < kNVecs; ++v) {
      std::memcpy(&acc[i][v], c + i * ldc + v * kVecLanes, sizeof(Vec));
    }
  }
  for (Index p = 0; p < kc; ++p) {
    Vec b[kNVecs];
    for (int v = 0; v < kNVecs; ++v) {
      std::memcpy(&b[v], bp + p * kNR + v * kVecLanes, sizeof(Vec));
    }
    const float* acol = ap + p * kMR;
    for (int i = 0; i < kMR; ++i) {
      const float a = acol[i];
      for (int v = 0; v < kNVecs; ++v) acc[i][v] = vmadd(acc[i][v], a, b[v]);
    }
  }
  for (int i = 0; i < kMR; ++i) {
    for (int v = 0; v < kNVecs; ++v) {
      std::memcpy(c + i * ldc + v * kVecLanes, &acc[i][v], sizeof(Vec));
    }
  }
}

/// Partial mr x nr tile at the m/n edges: the same vector micro-kernel on a
/// zero-padded copy of the C block. The packed panels are zero-padded too,
/// so every real element sees the same vmadd sequence as a full tile; the
/// padded lanes are computed and discarded.
void micro_partial(const float* __restrict__ ap,
                   const float* __restrict__ bp, float* __restrict__ c,
                   Index ldc, Index kc, Index mr, Index nr) {
  alignas(64) float tile[kMR * kNR] = {};
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(tile + i * kNR, c + i * ldc, sizeof(float) * nr);
  }
  micro(ap, bp, tile, kNR, kc);
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(c + i * ldc, tile + i * kNR, sizeof(float) * nr);
  }
}

// ----- panel drivers -----

/// Compute C rows [r0, r1) against one pre-packed B panel of `nc` columns
/// (kc deep). `a` addresses element (i, p) per `at`; `c` points at column 0
/// of the panel (the jc offset is applied by the caller).
void panel_rows(const float* a, Index lda, bool at, const float* bpack,
                float* c, Index ldc, Index r0, Index r1, Index kc, Index nc,
                Index mc_blk) {
  for (Index ic = r0; ic < r1; ic += mc_blk) {
    const Index mc = std::min(mc_blk, r1 - ic);
    const Index strips = (mc + kMR - 1) / kMR;
    float* apack = util::scratch_floats(
        kScratchA, static_cast<std::size_t>(strips * kMR * kc));
    pack_a(at ? a + ic : a + ic * lda, lda, at, mc, kc, apack);
    for (Index j0 = 0; j0 < nc; j0 += kNR) {
      const Index nr = std::min<Index>(kNR, nc - j0);
      const float* bp = bpack + (j0 / kNR) * kc * kNR;
      for (Index i0 = 0; i0 < mc; i0 += kMR) {
        const Index mr = std::min<Index>(kMR, mc - i0);
        const float* ap = apack + (i0 / kMR) * kc * kMR;
        float* cp = c + (ic + i0) * ldc + j0;
        if (mr == kMR && nr == kNR) {
          micro(ap, bp, cp, ldc, kc);
        } else {
          micro_partial(ap, bp, cp, ldc, kc, mr, nr);
        }
      }
    }
  }
}

/// Number of MR-row strips covering `rows` output rows. The parallel
/// kernels split work in whole strips, so every chunk boundary is a tile
/// boundary and only the last strip of a matrix can be a partial tile.
Index strips_of(Index rows) { return (rows + kMR - 1) / kMR; }

/// Minimum strips per parallel chunk: enough flops (~2^18) to be worth
/// shipping to another thread.
Index strip_grain(Index k, Index n) {
  const Index flops_per_strip =
      2 * kMR * std::max<Index>(k, 1) * std::max<Index>(n, 1);
  return std::max<Index>(1, (Index{1} << 18) / flops_per_strip);
}

/// One C = A * B product, parallel over MR-row strips of the output.
/// `at`/`bt` select the
/// transposed addressing of pack_a/pack_b; M/K/N are the logical
/// (output rows, contraction, output cols).
void gemm(const float* a, Index lda, bool at, const float* b, Index ldb,
          bool bt, float* c, Index M, Index K, Index N) {
  if (M <= 0 || K <= 0 || N <= 0) return;
  const BlockConfig blk = block_config();
  const Index grain = strip_grain(K, N);
  for (Index jc = 0; jc < N; jc += blk.nc) {
    const Index nc = std::min(blk.nc, N - jc);
    const Index bstrips = (nc + kNR - 1) / kNR;
    for (Index pc = 0; pc < K; pc += blk.kc) {
      const Index kc = std::min(blk.kc, K - pc);
      float* bpack = util::scratch_floats(
          kScratchB, static_cast<std::size_t>(bstrips * kNR * kc));
      pack_b(bt ? b + jc * ldb + pc : b + pc * ldb + jc, ldb, bt, kc, nc,
             bpack);
      const float* abase = at ? a + pc * lda : a + pc;
      util::parallel_for(0, strips_of(M), grain, [&](Index s0, Index s1) {
        panel_rows(abase, lda, at, bpack, c + jc, N, s0 * kMR,
                   std::min(M, s1 * kMR), kc, nc, blk.mc);
      });
    }
  }
}

/// Serial single-thread variant computing only C rows [r0, r1), packing
/// its own B panels into this thread's scratch. Used inside the batched
/// fan-out, where the parallel_for already runs one level up.
void gemm_rows_selfpack(const float* a, Index lda, bool at, const float* b,
                        Index ldb, bool bt, float* c, Index r0, Index r1,
                        Index K, Index N) {
  if (r0 >= r1 || K <= 0 || N <= 0) return;
  const BlockConfig blk = block_config();
  for (Index jc = 0; jc < N; jc += blk.nc) {
    const Index nc = std::min(blk.nc, N - jc);
    const Index bstrips = (nc + kNR - 1) / kNR;
    for (Index pc = 0; pc < K; pc += blk.kc) {
      const Index kc = std::min(blk.kc, K - pc);
      float* bpack = util::scratch_floats(
          kScratchB, static_cast<std::size_t>(bstrips * kNR * kc));
      pack_b(bt ? b + jc * ldb + pc : b + pc * ldb + jc, ldb, bt, kc, nc,
             bpack);
      const float* abase = at ? a + pc * lda : a + pc;
      panel_rows(abase, lda, at, bpack, c + jc, N, r0, r1, kc, nc, blk.mc);
    }
  }
}

/// Fan a batch of independent products out over one flattened space of
/// MR-row strips. `fn(bi, i0, i1)` computes output rows [i0, i1) of batch
/// item bi.
template <typename Fn>
void batched_fan_out(Index batch, Index rows, Index k, Index n,
                     const Fn& fn) {
  const Index strips = strips_of(rows);  // per batch item
  util::parallel_for(0, batch * strips, strip_grain(k, n),
                     [&](Index s0, Index s1) {
    Index s = s0;
    while (s < s1) {
      const Index bi = s / strips;
      const Index first = s - bi * strips;
      const Index last = std::min(strips, first + (s1 - s));
      fn(bi, first * kMR, std::min(rows, last * kMR));
      s += last - first;
    }
  });
}

}  // namespace

// ----- public kernels -----

void mm(const float* a, const float* b, float* c, Index m, Index k,
        Index n) {
  gemm(a, k, false, b, n, false, c, m, k, n);
}

void mm_nt(const float* a, const float* b, float* c, Index m, Index n,
           Index k) {
  // C[m,k] = A[m,n] * B[k,n]^T: contraction over n, B addressed transposed.
  gemm(a, n, false, b, n, true, c, m, n, k);
}

void mm_tn(const float* a, const float* b, float* c, Index m, Index k,
           Index n) {
  // C[k,n] = A[m,k]^T * B[m,n]: contraction over m, A addressed transposed.
  gemm(a, k, true, b, n, false, c, k, m, n);
}

void mm_batched(const float* a, const float* b, float* c, Index batch,
                Index m, Index k, Index n, bool shared_b) {
  if (batch <= 0) return;
  if (shared_b) {
    // [batch, m, k] x [k, n] is one [batch*m, k] x [k, n] product.
    mm(a, b, c, batch * m, k, n);
    return;
  }
  if (batch == 1) {
    mm(a, b, c, m, k, n);
    return;
  }
  batched_fan_out(batch, m, k, n, [&](Index bi, Index i0, Index i1) {
    gemm_rows_selfpack(a + bi * m * k, k, false, b + bi * k * n, n, false,
                       c + bi * m * n, i0, i1, k, n);
  });
}

void mm_nt_batched(const float* a, const float* b, float* c, Index batch,
                   Index m, Index n, Index k, bool shared_b) {
  if (batch <= 0) return;
  if (shared_b) {
    mm_nt(a, b, c, batch * m, n, k);
    return;
  }
  if (batch == 1) {
    mm_nt(a, b, c, m, n, k);
    return;
  }
  batched_fan_out(batch, m, n, k, [&](Index bi, Index i0, Index i1) {
    gemm_rows_selfpack(a + bi * m * n, n, false, b + bi * k * n, n, true,
                       c + bi * m * k, i0, i1, n, k);
  });
}

void mm_tn_batched(const float* a, const float* b, float* c, Index batch,
                   Index m, Index k, Index n) {
  if (batch <= 0) return;
  if (batch == 1) {
    mm_tn(a, b, c, m, k, n);
    return;
  }
  batched_fan_out(batch, k, m, n, [&](Index bi, Index p0, Index p1) {
    gemm_rows_selfpack(a + bi * m * k, k, true, b + bi * m * n, n, false,
                       c + bi * k * n, p0, p1, m, n);
  });
}

// ----- shape kernels -----

namespace {

/// Minimum floats per parallel chunk of a copy: ops.cc's kEwGrain, so a
/// trunk-size permute (16K floats) runs inline and a fused-batch one forks.
constexpr Index kCopyGrain = Index{1} << 15;

}  // namespace

void permute(const float* in, float* out, const Shape& in_shape,
             const std::vector<int>& dims) {
  const std::size_t nd = dims.size();
  if (nd == 0) {  // a scalar holds one element
    out[0] = in[0];
    return;
  }
  const Index total = numel_of(in_shape);
  if (total == 0) return;

  // extent[i] / step[i]: the size of output axis i, and how far one step
  // along it moves in the input.
  std::vector<Index> in_stride(nd, 1);
  for (std::size_t i = nd - 1; i > 0; --i) {
    in_stride[i - 1] = in_stride[i] * in_shape[i];
  }
  std::vector<Index> extent(nd);
  std::vector<Index> step(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    const auto d = static_cast<std::size_t>(dims[i]);
    extent[i] = in_shape[d];
    step[i] = in_stride[d];
  }
  const std::size_t outer = nd - 1;  // axes the odometer walks
  const Index inner = extent[outer];
  const Index inner_step = step[outer];

  util::parallel_for(0, total / inner, std::max<Index>(1, kCopyGrain / inner),
                     [&](Index r0, Index r1) {
    // Odometer over the outer output axes, set to row r0.
    std::vector<Index> coord(outer, 0);
    Index src = 0;
    Index rem = r0;
    for (std::size_t i = outer; i-- > 0;) {
      coord[i] = rem % extent[i];
      rem /= extent[i];
      src += coord[i] * step[i];
    }
    float* dst = out + r0 * inner;
    for (Index r = r0; r < r1; ++r, dst += inner) {
      const float* row = in + src;
      if (inner_step == 1) {
        std::memcpy(dst, row, sizeof(float) * static_cast<std::size_t>(inner));
      } else {
        for (Index j = 0; j < inner; ++j) dst[j] = row[j * inner_step];
      }
      for (std::size_t i = outer; i-- > 0;) {  // advance to the next row
        src += step[i];
        if (++coord[i] < extent[i]) break;
        src -= coord[i] * step[i];
        coord[i] = 0;
      }
    }
  });
}

// ----- serial references -----

MENOS_SCALAR_ONLY
void mm_ref(const float* a, const float* b, float* c, Index m, Index k,
            Index n) {
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (Index p = 0; p < k; ++p) acc = madd(acc, a[i * k + p], b[p * n + j]);
      c[i * n + j] = acc;
    }
  }
}

MENOS_SCALAR_ONLY
void mm_nt_ref(const float* a, const float* b, float* c, Index m, Index n,
               Index k) {
  for (Index i = 0; i < m; ++i) {
    for (Index p = 0; p < k; ++p) {
      float acc = c[i * k + p];
      for (Index j = 0; j < n; ++j) acc = madd(acc, a[i * n + j], b[p * n + j]);
      c[i * k + p] = acc;
    }
  }
}

MENOS_SCALAR_ONLY
void mm_tn_ref(const float* a, const float* b, float* c, Index m, Index k,
               Index n) {
  for (Index p = 0; p < k; ++p) {
    for (Index j = 0; j < n; ++j) {
      float acc = c[p * n + j];
      for (Index i = 0; i < m; ++i) acc = madd(acc, a[i * k + p], b[i * n + j]);
      c[p * n + j] = acc;
    }
  }
}

void permute_ref(const float* in, float* out, const Shape& in_shape,
                 const std::vector<int>& dims) {
  const int nd = static_cast<int>(dims.size());
  Shape out_shape(static_cast<std::size_t>(nd));
  for (int i = 0; i < nd; ++i) {
    out_shape[static_cast<std::size_t>(i)] =
        in_shape[static_cast<std::size_t>(dims[static_cast<std::size_t>(i)])];
  }

  // Strides (row-major).
  std::vector<Index> in_strides(static_cast<std::size_t>(nd), 1);
  std::vector<Index> out_strides(static_cast<std::size_t>(nd), 1);
  for (int i = nd - 2; i >= 0; --i) {
    in_strides[static_cast<std::size_t>(i)] =
        in_strides[static_cast<std::size_t>(i + 1)] *
        in_shape[static_cast<std::size_t>(i + 1)];
    out_strides[static_cast<std::size_t>(i)] =
        out_strides[static_cast<std::size_t>(i + 1)] *
        out_shape[static_cast<std::size_t>(i + 1)];
  }

  const Index total = numel_of(in_shape);
  std::vector<Index> idx(static_cast<std::size_t>(nd), 0);
  for (Index flat = 0; flat < total; ++flat) {
    // Decompose flat input index -> coordinates.
    Index rem = flat;
    for (int i = 0; i < nd; ++i) {
      idx[static_cast<std::size_t>(i)] =
          rem / in_strides[static_cast<std::size_t>(i)];
      rem %= in_strides[static_cast<std::size_t>(i)];
    }
    Index out_flat = 0;
    for (int i = 0; i < nd; ++i) {
      out_flat += idx[static_cast<std::size_t>(dims[static_cast<std::size_t>(i)])] *
                  out_strides[static_cast<std::size_t>(i)];
    }
    out[out_flat] = in[flat];
  }
}

// ----- configuration -----

BlockConfig block_config() noexcept {
  BlockConfig out;
  out.mc = resolved(g_config.mc, kDefaultMc);
  out.nc = resolved(g_config.nc, kDefaultNc);
  out.kc = resolved(g_config.kc, kDefaultKc);
  return out;
}

void set_block_config(const BlockConfig& cfg) {
  MENOS_CHECK_MSG(cfg.mc >= 0 && cfg.nc >= 0 && cfg.kc >= 0,
                  "BlockConfig fields must be >= 0 (0 = default)");
  g_config = cfg;
}

Index micro_tile_rows() noexcept { return kMR; }
Index micro_tile_cols() noexcept { return kNR; }
const char* vector_arch() noexcept { return kArchLabel; }

}  // namespace menos::tensor::kernels
