// Multi-head causal self-attention with optional LoRA on q/v (the paper's
// fine-tuning target, following the PEFT default it cites).
#pragma once

#include <memory>

#include "nn/adapters.h"

namespace menos::nn {

class CausalSelfAttention final : public Module {
 public:
  /// `use_bias` distinguishes the OPT family (biased projections) from the
  /// Llama family (bias-free). `n_kv_heads` < n_heads enables grouped-query
  /// attention (Llama-2-70B-style): keys/values are projected to fewer
  /// heads and shared by query groups, shrinking the k/v projections.
  /// n_kv_heads == n_heads (the default when 0) is standard MHA.
  CausalSelfAttention(const std::string& name, tensor::Index dim,
                      int n_heads, bool use_bias, const AdapterSpec& adapter,
                      ParameterSource& source, gpusim::Device& device,
                      util::Rng& adapter_rng, int n_kv_heads = 0);

  /// x: [B, T, C] -> [B, T, C] with causal masking.
  tensor::Tensor forward(const tensor::Tensor& x);

  int kv_heads() const noexcept { return n_kv_heads_; }

 private:
  std::unique_ptr<Linear> make_projection(const std::string& name,
                                          tensor::Index in, tensor::Index out,
                                          bool use_bias, bool lora_target,
                                          const AdapterSpec& adapter,
                                          ParameterSource& source,
                                          gpusim::Device& device,
                                          util::Rng& adapter_rng);

  tensor::Index dim_;
  int n_heads_;
  int n_kv_heads_;
  std::unique_ptr<Linear> q_;
  std::unique_ptr<Linear> k_;
  std::unique_ptr<Linear> v_;
  std::unique_ptr<Linear> o_;
};

}  // namespace menos::nn
