// Raw row-major kernels behind the tensor ops: the matmul products behind
// tensor::matmul and its backward, and the fused causal attention behind
// tensor::causal_attention.
//
// The three products are cache-blocked loops (GotoBLAS structure): B
// panels are packed into contiguous aligned scratch (util/aligned.h), a
// transposed B through in-register block transposes; a register-tiled
// micro-kernel reads A in place (row-major or transposed, only a partial
// last row strip copied) and runs the innermost flops; and the output
// rows are spread over util::ThreadPool.
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
// The fused attention kernels run their per-head products on the same
// micro-kernel, one thread per head (or per kv-head group in the backward),
// and causal_attention_ref / causal_attention_backward_ref are their
// oracles.
#pragma once

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

// ----- fused causal attention -----
//
// q is [B, T, H*D] and k, v are [B, T, Hkv*D]: the projection outputs,
// each head addressed in place (leading dimension H*D or Hkv*D). Query
// head h reads kv head h / (H / Hkv), the grouped-query sharing. Per head:
// S = Q K^T, P = causal_softmax(S / sqrt(D)), ctx = P V. Products skip the
// terms the causal mask makes exact zeros, which leaves every sum's value
// unchanged (docs/PERF.md).

/// heads, kv_heads and head_dim are positive, heads a multiple of kv_heads.
struct AttentionShape {
  Index batch = 0;
  Index seq = 0;
  Index heads = 0;
  Index kv_heads = 0;
  Index head_dim = 0;
};

/// ctx [B, T, H*D] = the heads' P V, overwritten. `p`, when non-null,
/// receives P as [B, H, T, T] (zeros above the diagonal) for the backward;
/// when null P lives in thread scratch only.
void causal_attention(const float* q, const float* k, const float* v,
                      float* ctx, float* p, const AttentionShape& s);

/// Gradients from the saved P and the upstream dctx [B, T, H*D]. A null
/// dq/dk/dv is not computed; the others are overwritten. A kv head's dk/dv
/// sums its query heads' contributions in head order.
void causal_attention_backward(const float* q, const float* k,
                               const float* v, const float* p,
                               const float* dctx, float* dq, float* dk,
                               float* dv, const AttentionShape& s);

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
/// Per (batch, head, row): each product element is one madd chain over
/// the causal range, ascending; `p` is required.
void causal_attention_ref(const float* q, const float* k, const float* v,
                          float* ctx, float* p, const AttentionShape& s);
void causal_attention_backward_ref(const float* q, const float* k,
                                   const float* v, const float* p,
                                   const float* dctx, float* dq, float* dk,
                                   float* dv, const AttentionShape& s);

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
