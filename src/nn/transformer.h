// Decoder-only transformer families and their topological split into the
// three sections of Fig 1: the client-side input section f_i, the
// server-side main body f_s, and the client-side output section f_o.
//
// Two architecture families mirror the paper's evaluation models:
//  * Opt   — pre-LayerNorm blocks, biased projections, GELU MLP, learned
//            positional embeddings (the OPT-1.3B family).
//  * Llama — RMSNorm blocks, bias-free projections, SiLU-gated MLP (the
//            Llama-2-7B family). Rotary embeddings are substituted with
//            learned positional embeddings — a documented simplification
//            (DESIGN.md §1) that does not affect any memory/scheduling
//            behaviour Menos measures.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/attention.h"

namespace menos::nn {

enum class ModelFamily { Opt, Llama };

const char* model_family_name(ModelFamily family) noexcept;

struct TransformerConfig {
  ModelFamily family = ModelFamily::Opt;
  tensor::Index vocab_size = 96;
  tensor::Index dim = 64;
  int n_layers = 4;
  int n_heads = 4;
  /// Grouped-query attention: number of key/value heads; 0 means
  /// n_kv_heads == n_heads (standard multi-head attention).
  int n_kv_heads = 0;
  tensor::Index ffn_hidden = 256;
  tensor::Index max_seq = 128;

  /// Laptop-scale stand-ins for the paper's models (same family traits,
  /// tiny dimensions) used by the numeric experiments and tests.
  static TransformerConfig tiny_opt();
  static TransformerConfig tiny_llama();

  /// Total parameter count implied by this config (used to cross-check the
  /// analytic ModelSpecs in src/sim against real construction).
  std::int64_t parameter_count() const;

  void validate() const;
};

/// How the model is cut (§3.1: clients choose the cut point on their own
/// privacy/efficiency trade-off). The server hosts blocks
/// [front_blocks, n_layers - back_blocks); the paper's setup is
/// front_blocks = 1, back_blocks = 0 (embedding + first block + head on the
/// client).
struct SplitSpec {
  int front_blocks = 1;
  int back_blocks = 0;

  void validate(const TransformerConfig& config) const;
};

/// One decoder block, family-dispatched.
class TransformerBlock final : public Module {
 public:
  TransformerBlock(const std::string& name, const TransformerConfig& config,
                   const AdapterSpec& adapter, ParameterSource& source,
                   gpusim::Device& device, util::Rng& adapter_rng);

  tensor::Tensor forward(const tensor::Tensor& x);

 private:
  ModelFamily family_;
  // OPT family
  std::unique_ptr<LayerNormLayer> ln1_;
  std::unique_ptr<LayerNormLayer> ln2_;
  std::unique_ptr<Linear> fc1_;
  std::unique_ptr<Linear> fc2_;
  // Llama family
  std::unique_ptr<RMSNormLayer> rn1_;
  std::unique_ptr<RMSNormLayer> rn2_;
  std::unique_ptr<Linear> gate_;
  std::unique_ptr<Linear> up_;
  std::unique_ptr<Linear> down_;
  // Shared
  std::unique_ptr<CausalSelfAttention> attn_;
};

/// Client-side f_i: token + positional embeddings, optional prefix adapter,
/// and the first `front_blocks` decoder blocks.
class InputSection final : public Module {
 public:
  InputSection(const TransformerConfig& config, const SplitSpec& split,
               const AdapterSpec& adapter, ParameterSource& source,
               gpusim::Device& device, util::Rng& adapter_rng);

  /// ids: batch*seq token ids -> activations x_c of shape [B, P+T, C].
  tensor::Tensor forward(const std::vector<std::int32_t>& ids,
                         tensor::Index batch, tensor::Index seq);

  int prefix_len() const noexcept;
  const TransformerConfig& config() const noexcept { return config_; }

 private:
  TransformerConfig config_;
  std::unique_ptr<Embedding> tok_emb_;
  std::unique_ptr<Embedding> pos_emb_;
  std::unique_ptr<PrefixAdapter> prefix_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

/// Server-side f_s: the main body of decoder blocks. Blocks may live on
/// different GPUs (the multi-GPU layer assignment of §3.1: "we can
/// manually assign different layers across multiple GPUs while loading the
/// model"); forward() moves activations across device boundaries.
class ServerSection final : public Module {
 public:
  /// Single-device form.
  ServerSection(const TransformerConfig& config, const SplitSpec& split,
                const AdapterSpec& adapter, ParameterSource& source,
                gpusim::Device& device, util::Rng& adapter_rng);

  /// Multi-device form: `device_for(i)` names the device hosting global
  /// block index i (must match where the shared store placed its
  /// parameters).
  ServerSection(const TransformerConfig& config, const SplitSpec& split,
                const AdapterSpec& adapter, ParameterSource& source,
                const std::function<gpusim::Device&(int)>& device_for,
                util::Rng& adapter_rng);

  tensor::Tensor forward(const tensor::Tensor& x_c);

  int block_count() const noexcept { return static_cast<int>(blocks_.size()); }

  /// Device hosting the first server block (where inbound activations are
  /// materialized).
  gpusim::Device& entry_device() const;

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::vector<gpusim::Device*> devices_;  // parallel to blocks_
};

/// Client-side f_o: trailing blocks (if any), final norm, LM head, loss.
class OutputSection final : public Module {
 public:
  OutputSection(const TransformerConfig& config, const SplitSpec& split,
                const AdapterSpec& adapter, ParameterSource& source,
                gpusim::Device& device, util::Rng& adapter_rng);

  /// x_s: [B, P+T, C] server activations; strips `prefix_len` leading
  /// positions and returns logits [B*T, V].
  tensor::Tensor logits(const tensor::Tensor& x_s, int prefix_len);

  /// Mean next-token cross-entropy against `targets` (size B*T).
  tensor::Tensor loss(const tensor::Tensor& x_s, int prefix_len,
                      const std::vector<std::int32_t>& targets);

 private:
  TransformerConfig config_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNormLayer> final_ln_;
  std::unique_ptr<RMSNormLayer> final_rn_;
  std::unique_ptr<Linear> lm_head_;
};

/// Greedy (argmax) next-token generation through the three sections on one
/// device. The last `max_seq` tokens form the context window; returns the
/// prompt extended by `n_new` generated ids. Runs in no-grad mode.
std::vector<std::int32_t> greedy_generate(InputSection& f_i,
                                          ServerSection& f_s,
                                          OutputSection& f_o,
                                          std::vector<std::int32_t> prompt,
                                          int n_new);

/// Stochastic generation: temperature-scaled softmax restricted to the
/// `top_k` most likely tokens, sampled from `rng`. temperature -> 0 or
/// top_k == 1 reduces to greedy decoding.
std::vector<std::int32_t> sample_generate(InputSection& f_i,
                                          ServerSection& f_s,
                                          OutputSection& f_o,
                                          std::vector<std::int32_t> prompt,
                                          int n_new, float temperature,
                                          int top_k, util::Rng& rng);

/// The three sections wired together on one device — the "local
/// fine-tuning" reference of Figs 8/9 and the equivalence tests.
class LocalModel final : public Module {
 public:
  LocalModel(const TransformerConfig& config, const SplitSpec& split,
             const AdapterSpec& adapter, ParameterSource& source,
             gpusim::Device& device, std::uint64_t adapter_seed);

  tensor::Tensor loss(const std::vector<std::int32_t>& ids,
                      const std::vector<std::int32_t>& targets,
                      tensor::Index batch, tensor::Index seq);

  InputSection& input() noexcept { return *input_; }
  ServerSection& server() noexcept { return *server_; }
  OutputSection& output() noexcept { return *output_; }

 private:
  std::unique_ptr<InputSection> input_;
  std::unique_ptr<ServerSection> server_;
  std::unique_ptr<OutputSection> output_;
};

}  // namespace menos::nn
