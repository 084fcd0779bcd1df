// Parameter-efficient fine-tuning adapters (§2.1 of the paper).
//
// Three families are implemented:
//  * LoRA  — low-rank matrices injected into target projections (q/v by
//            default, matching the paper's PEFT-derived configuration).
//  * BitFit — bias-only tuning (handled inside Linear via trainable_bias).
//  * Prefix — learnable prefix tokens prepended to the sequence on the
//            client's input section.
//
// Adapters are the ONLY trainable parameters; base weights obtained from a
// ParameterSource are always frozen. That invariant is what makes the
// base-model sharing of §3.1 safe, and tests/nn_test.cc asserts it.
#pragma once

#include <string>

#include "nn/layers.h"

namespace menos::nn {

enum class AdapterType { None, Lora, BitFit, Prefix };

const char* adapter_type_name(AdapterType type) noexcept;

/// Client-chosen fine-tuning configuration. Clients may differ (§3.1:
/// "clients may choose different fine-tuning methods like LoRA or prefix
/// tuning based on their needs").
struct AdapterSpec {
  AdapterType type = AdapterType::Lora;
  int rank = 8;          ///< LoRA rank r
  float alpha = 16.0f;   ///< LoRA scaling numerator
  bool target_q = true;  ///< inject into query projection
  bool target_v = true;  ///< inject into value projection
  /// Also inject LoRA into the client-side LM head. PEFT configurations
  /// commonly extend the target modules beyond q/v; the head lives on the
  /// client, so this costs the server nothing.
  bool target_lm_head = false;
  int prefix_len = 8;    ///< Prefix: number of virtual tokens
};

/// A Linear with a parallel low-rank path: y = xW + s * (xA)B.
/// A ~ N(0, 0.02), B = 0, so fine-tuning starts from the base model's
/// function exactly (the LoRA paper's initialization).
class LoraLinear final : public Linear {
 public:
  LoraLinear(const std::string& name, tensor::Index in, tensor::Index out,
             bool bias, int rank, float alpha, ParameterSource& base_source,
             gpusim::Device& device, util::Rng& adapter_rng);

  tensor::Tensor forward(const tensor::Tensor& x) override;

  /// Fold s*AB into a dense [in, out] delta (for merge-equivalence tests
  /// and for exporting a merged model).
  tensor::Tensor merged_delta() const;

  const tensor::Tensor& lora_a() const noexcept { return a_; }
  const tensor::Tensor& lora_b() const noexcept { return b_; }

 private:
  tensor::Tensor a_;  // [in, r], trainable
  tensor::Tensor b_;  // [r, out], trainable
  float scale_;
};

/// Learnable prefix tokens. forward() prepends `prefix_len` learned
/// embeddings to a [B, T, C] activation, yielding [B, P+T, C]; the output
/// section strips them again before the LM head.
class PrefixAdapter final : public Module {
 public:
  PrefixAdapter(const std::string& name, int prefix_len, tensor::Index dim,
                gpusim::Device& device, util::Rng& adapter_rng);

  tensor::Tensor forward(const tensor::Tensor& x);

  int prefix_len() const noexcept { return prefix_len_; }

 private:
  int prefix_len_;
  tensor::Tensor prefix_;  // [P, C], trainable
};

}  // namespace menos::nn
