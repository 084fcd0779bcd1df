// Differentiable tensor operations.
//
// Broadcasting is deliberately narrow (same-shape elementwise, bias over
// the last dimension, scalar scaling): this is everything a transformer
// needs, and narrow contracts keep the backward rules exactly checkable.
// All ops allocate their outputs on the device of their first input.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace menos::tensor {

// ----- elementwise -----

/// c = a + b; shapes must match exactly.
Tensor add(const Tensor& a, const Tensor& b);

/// c = a - b; shapes must match exactly.
Tensor sub(const Tensor& a, const Tensor& b);

/// c = a * b (Hadamard); shapes must match exactly.
Tensor mul(const Tensor& a, const Tensor& b);

/// c = a * s for a compile-time-known scalar s.
Tensor scale(const Tensor& a, float s);

/// c[..., j] = x[..., j] + bias[j]; bias is 1-D of size x.last_dim.
Tensor add_bias(const Tensor& x, const Tensor& bias);

Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);  ///< tanh approximation (GPT/OPT family)
Tensor silu(const Tensor& a);  ///< x * sigmoid(x) (Llama family)

/// Inverted dropout: each element survives with probability 1-p and is
/// scaled by 1/(1-p), so the expectation is preserved; the mask comes from
/// `rng` (all randomness in Menos is seeded — split and local runs drawing
/// from equal streams stay identical). p == 0 is the identity. The
/// backward pass reuses the forward mask.
Tensor dropout(const Tensor& a, float p, util::Rng& rng);

// ----- shape manipulation -----

/// Reinterpret the (contiguous) data with a new shape; shares storage.
Tensor reshape(const Tensor& a, Shape new_shape);

/// Concatenate two 3-D tensors along axis 1 (the sequence axis).
Tensor concat_dim1(const Tensor& a, const Tensor& b);

/// Slice a 3-D tensor along axis 1: rows [start, start+len).
Tensor slice_dim1(const Tensor& a, Index start, Index len);

/// Broadcast a 2-D tensor [P, C] to [batch, P, C] by copying it per batch
/// row; backward sums the per-row gradients back into [P, C]. Used by the
/// prefix adapter to prepend one learned prefix to every sequence in a
/// batch.
Tensor tile_batch(const Tensor& prefix, Index batch);

// ----- contractions -----

/// Matrix product against a 2-D right operand (a weight):
///   [m,k] x [k,n]                  -> [m,n]
///   [B...,m,k] x [k,n]             -> [B...,m,n]
Tensor matmul(const Tensor& a, const Tensor& b);

// ----- reductions / normalization -----

/// Sum of all elements -> shape {1}.
Tensor sum(const Tensor& a);

/// Mean of all elements -> shape {1}.
Tensor mean(const Tensor& a);

/// Softmax over the last dimension.
Tensor softmax_lastdim(const Tensor& a);

/// Multi-head causal self-attention core, one autograd node: q [B, T, H*D]
/// and k, v [B, T, Hkv*D] (the projection outputs) -> ctx [B, T, H*D],
/// per head softmax(Q K^T / sqrt(D), causal) V. Query head h attends with
/// kv head h / (H / Hkv) (grouped-query attention; Hkv == H is MHA). With
/// grad recording on, saves only P [B, H, T, T]; the backward allocates a
/// gradient only for the operands on the tape (kernels.h has the layout).
Tensor causal_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                        int n_heads, int n_kv_heads);

/// LayerNorm over the last dimension: gamma/beta are 1-D of that size.
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

/// RMSNorm over the last dimension (no recentering), gamma 1-D.
Tensor rms_norm(const Tensor& x, const Tensor& gamma, float eps = 1e-5f);

// ----- token ops -----

/// Row-gather: out[b,t,:] = weight[ids[b*T+t], :]. `ids` values must lie in
/// [0, vocab). Output shape [batch, seq, dim].
Tensor embedding(const Tensor& weight, const std::vector<std::int32_t>& ids,
                 Index batch, Index seq);

/// Mean cross-entropy between logits [N, V] and target ids (size N).
/// Targets equal to `ignore_index` contribute nothing.
Tensor cross_entropy(const Tensor& logits,
                     const std::vector<std::int32_t>& targets,
                     std::int32_t ignore_index = -1);

/// Index of the maximum along the last dimension (ties -> lowest index).
/// Not differentiable; used by greedy decoding.
std::vector<std::int32_t> argmax_lastdim(const Tensor& a);

/// Differentiable device transfer: the forward pass copies onto `device`,
/// the backward pass copies the gradient back. The cross-GPU activation
/// hop of multi-GPU layer splitting.
Tensor to_device(const Tensor& a, gpusim::Device& device);

}  // namespace menos::tensor
