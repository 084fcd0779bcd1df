#include "nn/attention.h"

#include <cmath>

namespace menos::nn {

CausalSelfAttention::CausalSelfAttention(const std::string& name,
                                         tensor::Index dim, int n_heads,
                                         bool use_bias,
                                         const AdapterSpec& adapter,
                                         ParameterSource& source,
                                         gpusim::Device& device,
                                         util::Rng& adapter_rng,
                                         int n_kv_heads)
    : dim_(dim),
      n_heads_(n_heads),
      n_kv_heads_(n_kv_heads == 0 ? n_heads : n_kv_heads) {
  MENOS_CHECK_MSG(n_heads > 0 && dim % n_heads == 0,
                  "attention dim " << dim << " not divisible by heads "
                                   << n_heads);
  MENOS_CHECK_MSG(n_kv_heads_ > 0 && n_heads % n_kv_heads_ == 0,
                  "query heads " << n_heads
                                 << " not divisible by kv heads "
                                 << n_kv_heads_);
  head_dim_ = dim / n_heads;
  const tensor::Index kv_dim = head_dim_ * n_kv_heads_;
  const bool lora = adapter.type == AdapterType::Lora;
  q_ = make_projection(name + ".q", dim, dim, use_bias,
                       lora && adapter.target_q, adapter, source, device,
                       adapter_rng);
  k_ = make_projection(name + ".k", dim, kv_dim, use_bias, false, adapter,
                       source, device, adapter_rng);
  v_ = make_projection(name + ".v", dim, kv_dim, use_bias,
                       lora && adapter.target_v, adapter, source, device,
                       adapter_rng);
  o_ = make_projection(name + ".o", dim, dim, use_bias, false, adapter,
                       source, device, adapter_rng);
  register_child("q", q_.get());
  register_child("k", k_.get());
  register_child("v", v_.get());
  register_child("o", o_.get());
}

std::unique_ptr<Linear> CausalSelfAttention::make_projection(
    const std::string& name, tensor::Index in, tensor::Index out,
    bool use_bias, bool lora_target, const AdapterSpec& adapter,
    ParameterSource& source, gpusim::Device& device, util::Rng& adapter_rng) {
  if (lora_target) {
    return std::make_unique<LoraLinear>(name, in, out, use_bias,
                                        adapter.rank, adapter.alpha, source,
                                        device, adapter_rng);
  }
  const bool bitfit = adapter.type == AdapterType::BitFit && use_bias;
  return std::make_unique<Linear>(name, in, out, use_bias, source, device,
                                  /*trainable_bias=*/bitfit);
}

tensor::Tensor CausalSelfAttention::forward(const tensor::Tensor& x) {
  using namespace menos::tensor;
  MENOS_CHECK_MSG(x.ndim() == 3 && x.dim(2) == dim_,
                  "attention input must be [B, T, " << dim_ << "], got "
                                                    << shape_to_string(x.shape()));
  const Index b = x.dim(0);
  const Index t = x.dim(1);

  Tensor q = q_->forward(x);
  Tensor k = k_->forward(x);
  Tensor v = v_->forward(x);

  // [B, T, H*D] -> [B, H, T, D]
  const auto split_heads = [&](const Tensor& m, int heads) {
    return permute(reshape(m, {b, t, heads, head_dim_}), {0, 2, 1, 3});
  };
  q = split_heads(q, n_heads_);
  k = split_heads(k, n_kv_heads_);
  v = split_heads(v, n_kv_heads_);
  if (n_kv_heads_ != n_heads_) {
    // Grouped-query expansion: each kv head serves repeat consecutive
    // query heads.
    const int repeat = n_heads_ / n_kv_heads_;
    k = repeat_heads(k, repeat);
    v = repeat_heads(v, repeat);
  }

  Tensor scores = matmul(q, transpose_last(k));  // [B, H, T, T]
  scores = scale(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  Tensor attn = causal_masked_softmax(scores);
  Tensor ctx = matmul(attn, v);  // [B, H, T, D]

  // [B, H, T, D] -> [B, T, C]
  ctx = reshape(permute(ctx, {0, 2, 1, 3}), {b, t, dim_});
  return o_->forward(ctx);
}

}  // namespace menos::nn
