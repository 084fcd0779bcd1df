// Raw row-major kernels behind the tensor ops: the matmul products behind
// tensor::matmul and its backward, and the axis-permutation copy behind
// tensor::permute (the attention head split / merge and transpose_last).
//
// The three products are cache-blocked packed-panel loops (GotoBLAS
// structure): operand panels are staged into contiguous aligned scratch
// (util/aligned.h), a register-tiled micro-kernel runs the innermost
// flops, and the output rows are spread over util::ThreadPool.
//
// All matmul kernels ACCUMULATE into C (callers zero-fill or reuse running
// sums).
//
// Determinism contract (docs/PERF.md): every output element is produced by
// exactly one thread, and its floating-point reduction order is fixed —
// one accumulator advancing in ascending contraction order — so results
// are bit-identical for ANY thread count and ANY block configuration. The
// *_ref kernels below are plain serial loops with that same per-element
// order, compiled in the same translation unit (hence with the same FP
// contraction); tests assert the blocked kernels match them byte-for-byte.
// The permute kernel does no arithmetic, so its output is the same bytes at
// any width by construction; permute_ref is its oracle all the same.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace menos::tensor::kernels {

/// C[m,n] += A[m,k] * B[k,n]
void mm(const float* a, const float* b, float* c, Index m, Index k, Index n);

/// C[m,k] += A[m,n] * B[k,n]^T   (i.e. C[i,p] += sum_j A[i,j] * B[p,j])
void mm_nt(const float* a, const float* b, float* c, Index m, Index n,
           Index k);

/// C[k,n] += A[m,k]^T * B[m,n]   (i.e. C[p,j] += sum_i A[i,p] * B[i,j])
void mm_tn(const float* a, const float* b, float* c, Index m, Index k,
           Index n);

// ----- batched forms -----
//
// One parallel region spans batch * rows output rows, so deep batches of
// small matrices (attention heads) saturate the pool as well as one large
// product. Per-element reduction order is identical to looping the 2-D
// kernels over the batch serially.

/// C[bi] += A[bi] * B  (shared_b) or A[bi] * B[bi]; A is [batch, m, k].
void mm_batched(const float* a, const float* b, float* c, Index batch,
                Index m, Index k, Index n, bool shared_b);

/// C[bi][m,k] += A[bi][m,n] * (B or B[bi])[k,n]^T.
void mm_nt_batched(const float* a, const float* b, float* c, Index batch,
                   Index m, Index n, Index k, bool shared_b);

/// C[bi][k,n] += A[bi][m,k]^T * B[bi][m,n]. (A shared-B gradient sums
/// over the batch: that is one mm_tn with contraction depth batch * m.)
void mm_tn_batched(const float* a, const float* b, float* c, Index batch,
                   Index m, Index k, Index n);

// ----- shape kernels -----

/// out = in with its axes permuted: output axis i is input axis dims[i].
/// `in_shape` is the input's shape (rank 0 allowed), `dims` a permutation
/// of [0, rank). Walks the output in row-major order; each innermost row is
/// one memcpy when it is contiguous in the input, a strided gather
/// otherwise. Rows are spread over util::ThreadPool.
void permute(const float* in, float* out, const Shape& in_shape,
             const std::vector<int>& dims);

// ----- serial reference kernels -----
//
// The bit-identity oracles: straight loops, no blocking, no threading,
// same fixed per-element reduction order as the kernels above.

void mm_ref(const float* a, const float* b, float* c, Index m, Index k,
            Index n);
void mm_nt_ref(const float* a, const float* b, float* c, Index m, Index n,
               Index k);
void mm_tn_ref(const float* a, const float* b, float* c, Index m, Index k,
               Index n);
/// Per element: decompose the flat input index by division, then scatter.
void permute_ref(const float* in, float* out, const Shape& in_shape,
                 const std::vector<int>& dims);

// ----- cache-blocking configuration -----

/// Panel sizes (output rows MC, output cols NC, contraction depth KC).
/// Zero fields mean "architecture default". Changing the blocking NEVER
/// changes results, only performance — tests sweep it to prove that.
struct BlockConfig {
  Index mc = 0;
  Index nc = 0;
  Index kc = 0;
};

/// Current blocking with defaults resolved.
BlockConfig block_config() noexcept;

/// Override the blocking (tests/tuning). Pass {} to restore defaults.
/// Not thread-safe against in-flight kernels; call between kernels only.
void set_block_config(const BlockConfig& cfg);

/// Micro-kernel register tile, fixed at compile time per architecture.
Index micro_tile_rows() noexcept;  ///< MR
Index micro_tile_cols() noexcept;  ///< NR

/// "avx512" / "avx2" / "sse2" — which vector width this build targets.
const char* vector_arch() noexcept;

}  // namespace menos::tensor::kernels
