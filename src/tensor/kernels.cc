// Cache-blocked packed-panel matmul kernels and the fused causal attention
// built on them (see kernels.h for the contract, docs/PERF.md for the
// design).
//
// Structure, outermost to innermost (the GotoBLAS/BLIS decomposition):
//
//   for jc : NC-wide column panels of C
//     for pc : KC-deep contraction panels
//       pack B[pc:pc+KC, jc:jc+NC] into contiguous NR-wide strips
//         (or, for a B packed once by pack_b_panels, address the KC-deep
//         slice of its whole-K strips in place)
//       parallel_for over MR-row strips of C        <- the ONLY fork point
//         for ic : MC-tall row blocks of this thread's range
//           copy the matrix's last strip if it is partial (thread scratch)
//           for each (MR x NR) tile: micro-kernel, A read in place
//
// Unlike GotoBLAS, A is not packed: the micro-kernel takes A's row and
// column strides and broadcasts each element from where it lies (the
// observation behind BLIS's unpacked small-matrix path: when K fits one
// KC panel, as at the trunk's shapes, copying A costs a full pass over it
// that the few B strips reading it never pay back).
//
// The micro-kernel keeps an MR x NR accumulator block in vector registers
// and adds one rank-1 update per contraction step p, p ascending. Because C
// round-trips through memory between KC-panels losslessly (float loads and
// stores are exact) and every a*b term is added individually, the value of
// every C element is the result of the SAME sequence of fused
// multiply-adds regardless of MC/NC/KC, chunk boundaries, or thread count
// — which is exactly what the serial *_ref kernels compute.
//
// Scratch never touches the gpusim Device layer: staging buffers are
// per-thread aligned pools from util/aligned.h (the `kernel-scratch` lint
// rule enforces this). Panels packed once are the caller's memory: the
// kernels only fill and read them (tensor/tensor.cc keeps a frozen
// weight's in a util::PageBuffer).
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "util/aligned.h"
#include "util/fastmath.h"
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

// Scratch slots (per thread, util::scratch_floats): 0 = the partial last
// A strip, packed by whichever thread runs it, 1 = the shared B panel
// packed by the dispatching thread (or by each thread in an attention
// head's self-packing product — still its own slot, never shared).
constexpr int kScratchA = 0;
constexpr int kScratchB = 1;

// ----- operand staging -----
//
// A is read where it lies: element (i, p) at a[i * rs + p * cs], row-major
// (rs = lda, cs = 1) or transposed (rs = 1, cs = lda), one broadcast per
// element. Only a strip that would run past the matrix's last row — the
// final, partial MR strip — is copied, contraction-major and zero-padded:
// ap[p * MR + i] (rs = 1, cs = MR).
//
// B is packed in NR-wide column strips, bp[s][p * NR + j], so the kernel
// loads each step's NR values as whole vectors. Read in place instead, a
// strip of an untransposed B at ld 128 or 512 walks a few L1 sets (a
// prototype ran 512^3 mm ~1.35x slower that way). Partial strips are zero-padded; padded
// lanes are computed and discarded, never stored.

/// Copy the mr (< MR) rows of an A strip, element (i, p) at
/// a[i * rs + p * cs], to ap[p * MR + i], rows mr.. zero.
void pack_a_strip(const float* __restrict__ a, Index rs, Index cs, Index mr,
                  Index kc, float* __restrict__ ap) {
  for (Index p = 0; p < kc; ++p) {
    for (Index i = 0; i < kMR; ++i) {
      ap[p * kMR + i] = i < mr ? a[i * rs + p * cs] : 0.0f;
    }
  }
}

/// Side of the square block transpose_block() moves through registers:
/// one vector of rows by one vector of columns.
constexpr Index kTB = kVecLanes;

/// dst[c * ldd + r] = src[r * lds + c] for r, c < kTB, in registers: a
/// 16x16 block on AVX-512, 8x8 on AVX and 4x4 on SSE2 (a scalar loop on
/// other targets). A copy, so it cannot change any result.
inline void transpose_block(const float* __restrict__ src, Index lds,
                            float* __restrict__ dst, Index ldd) {
#if defined(__AVX512F__)
  // Pairs of rows interleave by float, then by float pair: after that,
  // r[4g + c]'s 128-bit lane L holds rows 4g..4g+3 of column 4L + c. Two
  // rounds of 128-bit lane shuffles then gather column 4L + c's four
  // lanes. The maskz forms with a full mask are the plain instructions;
  // unlike the unmasked intrinsics they pass no undefined vector through,
  // which GCC 12 reports as -Wuninitialized at -O2.
  constexpr __mmask16 kAll = 0xFFFF;
  constexpr __mmask8 kAll8 = 0xFF;
  __m512 r[16], t[16];
  for (int i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * lds);
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_maskz_unpacklo_ps(kAll, r[i], r[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_ps(kAll, r[i], r[i + 1]);
  }
  for (int i = 0; i < 16; i += 4) {
    const __m512d lo0 = _mm512_castps_pd(t[i]);
    const __m512d lo1 = _mm512_castps_pd(t[i + 2]);
    const __m512d hi0 = _mm512_castps_pd(t[i + 1]);
    const __m512d hi1 = _mm512_castps_pd(t[i + 3]);
    r[i] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAll8, lo0, lo1));
    r[i + 1] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAll8, lo0, lo1));
    r[i + 2] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAll8, hi0, hi1));
    r[i + 3] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAll8, hi0, hi1));
  }
  for (int c = 0; c < 4; ++c) {
    const __m512 v0 = _mm512_maskz_shuffle_f32x4(kAll, r[c], r[4 + c], 0x44);
    const __m512 v1 = _mm512_maskz_shuffle_f32x4(kAll, r[c], r[4 + c], 0xEE);
    const __m512 v2 =
        _mm512_maskz_shuffle_f32x4(kAll, r[8 + c], r[12 + c], 0x44);
    const __m512 v3 =
        _mm512_maskz_shuffle_f32x4(kAll, r[8 + c], r[12 + c], 0xEE);
    _mm512_storeu_ps(dst + (c + 0) * ldd,
                     _mm512_maskz_shuffle_f32x4(kAll, v0, v2, 0x88));
    _mm512_storeu_ps(dst + (c + 4) * ldd,
                     _mm512_maskz_shuffle_f32x4(kAll, v0, v2, 0xDD));
    _mm512_storeu_ps(dst + (c + 8) * ldd,
                     _mm512_maskz_shuffle_f32x4(kAll, v1, v3, 0x88));
    _mm512_storeu_ps(dst + (c + 12) * ldd,
                     _mm512_maskz_shuffle_f32x4(kAll, v1, v3, 0xDD));
  }
#elif defined(__AVX__)
  __m256 r[8], t[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  // r[4h + c]'s 128-bit half L holds rows 4h..4h+3 of column 4L + c.
  for (int h = 0; h < 8; h += 4) {
    r[h] = _mm256_shuffle_ps(t[h], t[h + 2], 0x44);
    r[h + 1] = _mm256_shuffle_ps(t[h], t[h + 2], 0xEE);
    r[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0x44);
    r[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0xEE);
  }
  for (int c = 0; c < 4; ++c) {
    _mm256_storeu_ps(dst + c * ldd,
                     _mm256_permute2f128_ps(r[c], r[4 + c], 0x20));
    _mm256_storeu_ps(dst + (c + 4) * ldd,
                     _mm256_permute2f128_ps(r[c], r[4 + c], 0x31));
  }
#elif defined(__SSE2__)
  __m128 r0 = _mm_loadu_ps(src), r1 = _mm_loadu_ps(src + lds);
  __m128 r2 = _mm_loadu_ps(src + 2 * lds), r3 = _mm_loadu_ps(src + 3 * lds);
  _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
  _mm_storeu_ps(dst, r0);
  _mm_storeu_ps(dst + ldd, r1);
  _mm_storeu_ps(dst + 2 * ldd, r2);
  _mm_storeu_ps(dst + 3 * ldd, r3);
#else
  for (Index r = 0; r < kTB; ++r) {
    for (Index c = 0; c < kTB; ++c) dst[c * ldd + r] = src[r * lds + c];
  }
#endif
}

/// `trans == false`: element (p, j) at b[p * ldb + j] (B row-major), one
/// memcpy per strip row. `trans == true`: element (p, j) at b[j * ldb + p]
/// (B^T view), moved in kTB x kTB register blocks; a K tail short of a
/// block and the columns of a partial strip past its last whole block go
/// element by element.
void pack_b(const float* __restrict__ b, Index ldb, bool trans, Index kc,
            Index nc, float* __restrict__ bp) {
  const Index kblocks = kc - kc % kTB;
  for (Index j0 = 0; j0 < nc; j0 += kNR) {
    const Index nr = std::min<Index>(kNR, nc - j0);
    if (trans) {
      const Index jblocks = nr - nr % kTB;
      for (Index jj = 0; jj < jblocks; jj += kTB) {
        for (Index p = 0; p < kblocks; p += kTB) {
          transpose_block(b + (j0 + jj) * ldb + p, ldb, bp + p * kNR + jj,
                          kNR);
        }
      }
      for (Index jj = 0; jj < nr; ++jj) {
        const float* src = b + (j0 + jj) * ldb;
        for (Index p = jj < jblocks ? kblocks : 0; p < kc; ++p) {
          bp[p * kNR + jj] = src[p];
        }
      }
    } else {
      const auto row_bytes = sizeof(float) * static_cast<std::size_t>(nr);
      for (Index p = 0; p < kc; ++p) {
        std::memcpy(bp + p * kNR, b + p * ldb + j0, row_bytes);
      }
    }
    if (nr < kNR) {
      for (Index p = 0; p < kc; ++p) {
        std::fill(bp + p * kNR + nr, bp + (p + 1) * kNR, 0.0f);
      }
    }
    bp += kc * kNR;
  }
}

// ----- micro-kernel -----

/// Full MR x NR tile: C_tile += sum_p A[:, p] (x) bpack[p][:], one rank-1
/// update per p, kept entirely in vector registers. A element (i, p) is
/// a[i * rs + p * cs] (see "operand staging").
void micro(const float* __restrict__ a, Index rs, Index cs,
           const float* __restrict__ bp, float* __restrict__ c, Index ldc,
           Index kc) {
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
    const float* acol = a + p * cs;
    for (int i = 0; i < kMR; ++i) {
      const float ai = acol[i * rs];
      for (int v = 0; v < kNVecs; ++v) acc[i][v] = vmadd(acc[i][v], ai, b[v]);
    }
  }
  for (int i = 0; i < kMR; ++i) {
    for (int v = 0; v < kNVecs; ++v) {
      std::memcpy(c + i * ldc + v * kVecLanes, &acc[i][v], sizeof(Vec));
    }
  }
}

// ----- panel drivers -----

/// Which terms of a product the causal mask makes exact zeros, for the
/// MR-row strip holding output rows [lo, hi). The fused attention's
/// per-head products name one; every matmul runs kNone.
enum class Causal {
  kNone,
  kColumns,  // C[t, s] is read only for s <= t: columns >= hi are skipped
  kPrefix,   // A[t, s] is zero for s > t: the contraction stops at hi
  kSuffix,   // A^T[s, t] is zero for t < s: the contraction starts at lo
};

/// The steps [*p0, *p1) of the KC panel at `pc` that output rows [lo, hi)
/// in the column strip starting at `col` need; false when they need none.
bool causal_steps(Causal mode, Index lo, Index hi, Index col, Index pc,
                  Index kc, Index* p0, Index* p1) {
  *p0 = 0;
  *p1 = kc;
  switch (mode) {
    case Causal::kNone:
      return true;
    case Causal::kColumns:
      return col < hi;
    case Causal::kPrefix:
      *p1 = std::min(kc, hi - pc);
      break;
    case Causal::kSuffix:
      *p0 = std::max<Index>(0, lo - pc);
      break;
  }
  return *p0 < *p1;
}

/// Compute C rows [r0, r1) of an M-row product against one packed B panel
/// of `nc` columns (kc deep) starting at column `jc` and contraction step
/// `pc`: its NR-wide strips start `strip_stride` floats apart (kc * NR when
/// packed for this panel, K * NR in whole-K panels). `a` addresses element
/// (i, p) per `at`, already offset by pc; `c` points at column jc. Strips
/// and steps `mode` proves zero are skipped; every computed element still
/// sees one ascending madd chain.
void panel_rows(const float* a, Index lda, bool at, const float* bpack,
                Index strip_stride, float* c, Index ldc, Index r0, Index r1,
                Index M, Index kc, Index nc, Index mc_blk,
                Causal mode = Causal::kNone, Index jc = 0, Index pc = 0) {
  const Index rs = at ? 1 : lda, cs = at ? lda : 1;
  Index p0 = 0, p1 = 0;
  for (Index ic = r0; ic < r1; ic += mc_blk) {
    const Index mc = std::min(mc_blk, r1 - ic);
    if (!causal_steps(mode, ic, ic + mc, jc, pc, kc, &p0, &p1)) continue;
    // At most one strip of the block can run past row M: its last.
    const Index tail_lo = ic + (mc - 1) / kMR * kMR;
    float* tail = nullptr;
    if (tail_lo + kMR > M) {
      tail = util::scratch_floats(kScratchA,
                                  static_cast<std::size_t>(kMR * kc));
      pack_a_strip(a + tail_lo * rs, rs, cs, ic + mc - tail_lo, kc, tail);
    }
    for (Index j0 = 0; j0 < nc; j0 += kNR) {
      const Index nr = std::min<Index>(kNR, nc - j0);
      for (Index i0 = 0; i0 < mc; i0 += kMR) {
        const Index mr = std::min<Index>(kMR, mc - i0);
        const Index lo = ic + i0;
        if (!causal_steps(mode, lo, lo + mr, jc + j0, pc, kc, &p0, &p1)) {
          continue;
        }
        const bool packed = lo == tail_lo && tail != nullptr;
        const float* ap = packed ? tail + p0 * kMR : a + lo * rs + p0 * cs;
        const Index ars = packed ? 1 : rs, acs = packed ? kMR : cs;
        const float* bp = bpack + (j0 / kNR) * strip_stride + p0 * kNR;
        float* cp = c + lo * ldc + j0;
        if (mr == kMR && nr == kNR) {
          micro(ap, ars, acs, bp, cp, ldc, p1 - p0);
          continue;
        }
        // An edge tile runs the same kernel on a zero-padded copy of its
        // C block; the padded rows and lanes are computed and discarded.
        alignas(64) float tile[kMR * kNR] = {};
        for (Index i = 0; i < mr; ++i) {
          std::memcpy(tile + i * kNR, cp + i * ldc, sizeof(float) * nr);
        }
        micro(ap, ars, acs, bp, tile, kNR, p1 - p0);
        for (Index i = 0; i < mr; ++i) {
          std::memcpy(cp + i * ldc, tile + i * kNR, sizeof(float) * nr);
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

/// Number of NR-wide strips covering `cols` columns.
Index bstrips_of(Index cols) { return (cols + kNR - 1) / kNR; }

/// One C = A * B product, parallel over MR-row strips of the output.
/// `at`/`bt` select the transposed addressing of A (read in place) and of
/// pack_b; M/K/N are the logical (output rows, contraction, output cols).
/// A non-null `prepacked` is B already packed by pack_b_panels, read in
/// place (`b`, `ldb` and `bt` unused): NC is rounded up to a multiple of NR
/// so that every panel starts on a strip boundary.
void gemm(const float* a, Index lda, bool at, const float* b, Index ldb,
          bool bt, const float* prepacked, float* c, Index M, Index K,
          Index N) {
  if (M <= 0 || K <= 0 || N <= 0) return;
  const BlockConfig blk = block_config();
  const Index grain = strip_grain(K, N);
  const Index nc_blk =
      prepacked != nullptr ? bstrips_of(blk.nc) * kNR : blk.nc;
  for (Index jc = 0; jc < N; jc += nc_blk) {
    const Index nc = std::min(nc_blk, N - jc);
    for (Index pc = 0; pc < K; pc += blk.kc) {
      const Index kc = std::min(blk.kc, K - pc);
      const float* bpack = nullptr;
      Index strip_stride = K * kNR;
      if (prepacked != nullptr) {
        bpack = prepacked + jc * K + pc * kNR;  // strip jc / NR, step pc
      } else {
        float* scratch = util::scratch_floats(
            kScratchB, static_cast<std::size_t>(bstrips_of(nc) * kNR * kc));
        pack_b(bt ? b + jc * ldb + pc : b + pc * ldb + jc, ldb, bt, kc, nc,
               scratch);
        bpack = scratch;
        strip_stride = kc * kNR;
      }
      const float* abase = at ? a + pc * lda : a + pc;
      util::parallel_for(0, strips_of(M), grain, [&](Index s0, Index s1) {
        panel_rows(abase, lda, at, bpack, strip_stride, c + jc, N, s0 * kMR,
                   std::min(M, s1 * kMR), M, kc, nc, blk.mc);
      });
    }
  }
}

/// One C[M, N] += A * B on the calling thread with the causal skipping of
/// `mode`: an attention head's product, packed into this thread's scratch
/// (the parallel_for runs one level up, over heads).
void gemm_causal(const float* a, Index lda, bool at, const float* b,
                 Index ldb, bool bt, float* c, Index ldc, Index M, Index K,
                 Index N, Causal mode) {
  const BlockConfig blk = block_config();
  for (Index jc = 0; jc < N; jc += blk.nc) {
    const Index nc = std::min(blk.nc, N - jc);
    for (Index pc = 0; pc < K; pc += blk.kc) {
      const Index kc = std::min(blk.kc, K - pc);
      float* bpack = util::scratch_floats(
          kScratchB, static_cast<std::size_t>(bstrips_of(nc) * kNR * kc));
      pack_b(bt ? b + jc * ldb + pc : b + pc * ldb + jc, ldb, bt, kc, nc,
             bpack);
      const float* abase = at ? a + pc * lda : a + pc;
      panel_rows(abase, lda, at, bpack, kc * kNR, c + jc, ldc, 0, M, M, kc,
                 nc, blk.mc, mode, jc, pc);
    }
  }
}

}  // namespace

// ----- public kernels -----

void mm(const float* a, const float* b, float* c, Index m, Index k,
        Index n) {
  gemm(a, k, false, b, n, false, nullptr, c, m, k, n);
}

void mm_nt(const float* a, const float* b, float* c, Index m, Index n,
           Index k) {
  // C[m,k] = A[m,n] * B[k,n]^T: contraction over n, B addressed transposed.
  gemm(a, n, false, b, n, true, nullptr, c, m, n, k);
}

void mm_tn(const float* a, const float* b, float* c, Index m, Index k,
           Index n) {
  // C[k,n] = A[m,k]^T * B[m,n]: contraction over m, A addressed transposed.
  gemm(a, k, true, b, n, false, nullptr, c, k, m, n);
}

std::size_t packed_b_floats(Index k, Index n) noexcept {
  return static_cast<std::size_t>(bstrips_of(n) * kNR * k);
}

void pack_b_panels(const float* b, bool trans, Index k, Index n, float* bp) {
  if (k > 0 && n > 0) pack_b(b, trans ? k : n, trans, k, n, bp);
}

void mm_packed(const float* a, const float* bp, float* c, Index m, Index k,
               Index n) {
  gemm(a, k, false, nullptr, 0, false, bp, c, m, k, n);
}

// ----- fused causal attention -----

namespace {

// Scratch slots of the attention kernels, next to the packing slots that
// gemm_causal uses: one [T, T] score / dS tile and one [T, D] head-gradient
// tile per thread.
constexpr int kScratchScores = 2;
constexpr int kScratchHead = 3;

void zero_rows(float* c, Index ld, Index rows, Index cols) {
  for (Index r = 0; r < rows; ++r) {
    std::fill(c + r * ld, c + r * ld + cols, 0.0f);
  }
}

/// Row t of P from row t of S, in place: scale, then max / exp / normalize
/// over positions 0..t, zeros after. The scale is its own pass so it is
/// never contracted into the exp argument.
void causal_softmax_row(float* row, Index t, Index seq, float scale) {
  const Index valid = t + 1;
  for (Index j = 0; j < valid; ++j) row[j] *= scale;
  float mx = row[0];
  for (Index j = 1; j < valid; ++j) mx = std::max(mx, row[j]);
  float z = 0.0f;
  for (Index j = 0; j < valid; ++j) {
    row[j] = util::fast_exp(row[j] - mx);
    z += row[j];
  }
  const float inv = 1.0f / z;
  for (Index j = 0; j < valid; ++j) row[j] *= inv;
  std::fill(row + valid, row + seq, 0.0f);
}

/// Row t of dS from row t of dP (in `g`, in place) and of P:
/// dS = P * (dP - <P, dP>) * scale over 0..t, zeros after. The row dot is
/// a madd chain, the same rounding in every build and in the reference.
void causal_softmax_grad_row(const float* y, float* g, Index t, Index seq,
                             float scale) {
  const Index valid = t + 1;
  float dot = 0.0f;
  for (Index j = 0; j < valid; ++j) dot = madd(dot, y[j], g[j]);
  for (Index j = 0; j < valid; ++j) g[j] = y[j] * (g[j] - dot) * scale;
  std::fill(g + valid, g + seq, 0.0f);
}

/// Where one head's operands live: offsets into q/ctx ([B, T, H*D]) and
/// k/v ([B, T, Hkv*D]), their leading dimensions, and the shared scale.
struct HeadLayout {
  Index seq, dim, ldq, ldkv;
  float scale;

  explicit HeadLayout(const AttentionShape& s)
      : seq(s.seq),
        dim(s.head_dim),
        ldq(s.heads * s.head_dim),
        ldkv(s.kv_heads * s.head_dim),
        scale(1.0f / std::sqrt(static_cast<float>(s.head_dim))) {}
  Index q_offset(Index b, Index h) const { return b * seq * ldq + h * dim; }
  Index kv_offset(Index b, Index kvh) const {
    return b * seq * ldkv + kvh * dim;
  }
};

/// Heads per parallel chunk: ~2^18 flops, as strip_grain.
Index head_grain(const AttentionShape& s, Index heads_per_task) {
  const Index flops = 2 * s.seq * s.seq * s.head_dim * heads_per_task;
  return std::max<Index>(1, (Index{1} << 18) / std::max<Index>(flops, 1));
}

}  // namespace

void causal_attention(const float* q, const float* k, const float* v,
                      float* ctx, float* p, const AttentionShape& s) {
  const HeadLayout L(s);
  const Index T = L.seq, D = L.dim;
  const Index group = s.heads / s.kv_heads;
  util::parallel_for(0, s.batch * s.heads, head_grain(s, 1),
                     [&](Index h0, Index h1) {
    float* scores =
        p != nullptr ? nullptr
                     : util::scratch_floats(kScratchScores,
                                            static_cast<std::size_t>(T * T));
    for (Index bh = h0; bh < h1; ++bh) {
      const Index b = bh / s.heads, h = bh % s.heads;
      const Index qo = L.q_offset(b, h), kvo = L.kv_offset(b, h / group);
      float* prob = p != nullptr ? p + bh * T * T : scores;
      std::fill(prob, prob + T * T, 0.0f);
      gemm_causal(q + qo, L.ldq, false, k + kvo, L.ldkv, true, prob, T, T, D,
                  T, Causal::kColumns);
      for (Index t = 0; t < T; ++t) {
        causal_softmax_row(prob + t * T, t, T, L.scale);
      }
      zero_rows(ctx + qo, L.ldq, T, D);
      gemm_causal(prob, T, false, v + kvo, L.ldkv, false, ctx + qo, L.ldq, T,
                  T, D, Causal::kPrefix);
    }
  });
}

namespace {

/// out[T, D] (+)= A^T B for A a lower-triangular [T, T] tile (dS or P) and
/// B one head's [T, D] rows: straight into `out` when the kv head serves
/// one query head, else through `head` scratch and then added, so a group
/// sums its heads in order as the repeat_heads backward did.
void add_transposed_product(const float* a, const float* b, Index ldb,
                            float* out, Index ldo, float* head, Index T,
                            Index D) {
  if (head == nullptr) {
    gemm_causal(a, T, true, b, ldb, false, out, ldo, T, T, D,
                Causal::kSuffix);
    return;
  }
  std::fill(head, head + T * D, 0.0f);
  gemm_causal(a, T, true, b, ldb, false, head, D, T, T, D, Causal::kSuffix);
  for (Index t = 0; t < T; ++t) {
    for (Index d = 0; d < D; ++d) out[t * ldo + d] += head[t * D + d];
  }
}

}  // namespace

void causal_attention_backward(const float* q, const float* k,
                               const float* v, const float* p,
                               const float* dctx, float* dq, float* dk,
                               float* dv, const AttentionShape& s) {
  const HeadLayout L(s);
  const Index T = L.seq, D = L.dim;
  const Index group = s.heads / s.kv_heads;
  const bool need_ds = dq != nullptr || dk != nullptr;
  const bool need_head = group > 1 && (dk != nullptr || dv != nullptr);
  // One task per kv-head group: it owns the group's dk/dv rows and each of
  // its query heads' dq rows, so every output element has one writer.
  util::parallel_for(0, s.batch * s.kv_heads, head_grain(s, 2 * group),
                     [&](Index g0, Index g1) {
    float* ds = need_ds ? util::scratch_floats(
                              kScratchScores, static_cast<std::size_t>(T * T))
                        : nullptr;
    float* head = need_head ? util::scratch_floats(
                                  kScratchHead, static_cast<std::size_t>(T * D))
                            : nullptr;
    for (Index bg = g0; bg < g1; ++bg) {
      const Index b = bg / s.kv_heads, kvh = bg % s.kv_heads;
      const Index kvo = L.kv_offset(b, kvh);
      if (dk != nullptr) zero_rows(dk + kvo, L.ldkv, T, D);
      if (dv != nullptr) zero_rows(dv + kvo, L.ldkv, T, D);
      for (Index h = kvh * group; h < (kvh + 1) * group; ++h) {
        const Index qo = L.q_offset(b, h);
        const float* prob = p + (b * s.heads + h) * T * T;
        if (need_ds) {
          // dP = dctx V^T on the causal columns, then the softmax backward.
          std::fill(ds, ds + T * T, 0.0f);
          gemm_causal(dctx + qo, L.ldq, false, v + kvo, L.ldkv, true, ds, T,
                      T, D, T, Causal::kColumns);
          for (Index t = 0; t < T; ++t) {
            causal_softmax_grad_row(prob + t * T, ds + t * T, t, T, L.scale);
          }
        }
        if (dq != nullptr) {
          zero_rows(dq + qo, L.ldq, T, D);
          gemm_causal(ds, T, false, k + kvo, L.ldkv, false, dq + qo, L.ldq,
                      T, T, D, Causal::kPrefix);
        }
        if (dk != nullptr) {
          add_transposed_product(ds, q + qo, L.ldq, dk + kvo, L.ldkv, head, T,
                                 D);
        }
        if (dv != nullptr) {
          add_transposed_product(prob, dctx + qo, L.ldq, dv + kvo, L.ldkv,
                                 head, T, D);
        }
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

MENOS_SCALAR_ONLY
void causal_attention_ref(const float* q, const float* k, const float* v,
                          float* ctx, float* p, const AttentionShape& s) {
  const HeadLayout L(s);
  const Index T = L.seq, D = L.dim;
  const Index group = s.heads / s.kv_heads;
  for (Index b = 0; b < s.batch; ++b) {
    for (Index h = 0; h < s.heads; ++h) {
      const float* qh = q + L.q_offset(b, h);
      const float* kh = k + L.kv_offset(b, h / group);
      const float* vh = v + L.kv_offset(b, h / group);
      float* ch = ctx + L.q_offset(b, h);
      float* ph = p + (b * s.heads + h) * T * T;
      for (Index t = 0; t < T; ++t) {
        float* row = ph + t * T;
        for (Index u = 0; u <= t; ++u) {
          float acc = 0.0f;
          for (Index d = 0; d < D; ++d) {
            acc = madd(acc, qh[t * L.ldq + d], kh[u * L.ldkv + d]);
          }
          row[u] = acc * L.scale;
        }
        float mx = row[0];
        for (Index u = 1; u <= t; ++u) mx = std::max(mx, row[u]);
        float z = 0.0f;
        for (Index u = 0; u <= t; ++u) {
          row[u] = util::fast_exp(row[u] - mx);
          z += row[u];
        }
        const float inv = 1.0f / z;
        for (Index u = 0; u <= t; ++u) row[u] *= inv;
        for (Index u = t + 1; u < T; ++u) row[u] = 0.0f;
        for (Index d = 0; d < D; ++d) {
          float acc = 0.0f;
          for (Index u = 0; u <= t; ++u) {
            acc = madd(acc, row[u], vh[u * L.ldkv + d]);
          }
          ch[t * L.ldq + d] = acc;
        }
      }
    }
  }
}

MENOS_SCALAR_ONLY
void causal_attention_backward_ref(const float* q, const float* k,
                                   const float* v, const float* p,
                                   const float* dctx, float* dq, float* dk,
                                   float* dv, const AttentionShape& s) {
  const HeadLayout L(s);
  const Index T = L.seq, D = L.dim;
  const Index group = s.heads / s.kv_heads;
  float* ds = util::scratch_floats(kScratchScores,
                                  static_cast<std::size_t>(T * T));
  // out[u, d] of one head's A^T B over t >= u, stored (one query head per
  // kv head) or added in head order (a group).
  const auto transposed_product = [&](const float* a, const float* bm,
                                      Index ldb, float* out) {
    for (Index u = 0; u < T; ++u) {
      for (Index d = 0; d < D; ++d) {
        float acc = 0.0f;
        for (Index t = u; t < T; ++t) {
          acc = madd(acc, a[t * T + u], bm[t * ldb + d]);
        }
        float& o = out[u * L.ldkv + d];
        o = group > 1 ? o + acc : acc;
      }
    }
  };
  for (Index b = 0; b < s.batch; ++b) {
    for (Index kvh = 0; kvh < s.kv_heads; ++kvh) {
      const float* kh = k + L.kv_offset(b, kvh);
      const float* vh = v + L.kv_offset(b, kvh);
      if (dk != nullptr) zero_rows(dk + L.kv_offset(b, kvh), L.ldkv, T, D);
      if (dv != nullptr) zero_rows(dv + L.kv_offset(b, kvh), L.ldkv, T, D);
      for (Index h = kvh * group; h < (kvh + 1) * group; ++h) {
        const float* qh = q + L.q_offset(b, h);
        const float* gh = dctx + L.q_offset(b, h);
        const float* ph = p + (b * s.heads + h) * T * T;
        for (Index t = 0; t < T; ++t) {
          const float* y = ph + t * T;
          float* g = ds + t * T;
          for (Index u = 0; u <= t; ++u) {
            float acc = 0.0f;
            for (Index d = 0; d < D; ++d) {
              acc = madd(acc, gh[t * L.ldq + d], vh[u * L.ldkv + d]);
            }
            g[u] = acc;
          }
          float dot = 0.0f;
          for (Index u = 0; u <= t; ++u) dot = madd(dot, y[u], g[u]);
          for (Index u = 0; u <= t; ++u) g[u] = y[u] * (g[u] - dot) * L.scale;
          for (Index u = t + 1; u < T; ++u) g[u] = 0.0f;
        }
        if (dq != nullptr) {
          float* dqh = dq + L.q_offset(b, h);
          for (Index t = 0; t < T; ++t) {
            for (Index d = 0; d < D; ++d) {
              float acc = 0.0f;
              for (Index u = 0; u <= t; ++u) {
                acc = madd(acc, ds[t * T + u], kh[u * L.ldkv + d]);
              }
              dqh[t * L.ldq + d] = acc;
            }
          }
        }
        if (dk != nullptr) {
          transposed_product(ds, qh, L.ldq, dk + L.kv_offset(b, kvh));
        }
        if (dv != nullptr) {
          transposed_product(ph, gh, L.ldq, dv + L.kv_offset(b, kvh));
        }
      }
    }
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
