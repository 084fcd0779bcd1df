#include "nn/attention.h"

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
  const tensor::Index kv_dim = dim / n_heads * n_kv_heads_;
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
  const Tensor q = q_->forward(x);
  const Tensor k = k_->forward(x);
  const Tensor v = v_->forward(x);
  return o_->forward(causal_attention(q, k, v, n_heads_, n_kv_heads_));
}

}  // namespace menos::nn
