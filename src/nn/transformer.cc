#include "nn/transformer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace menos::nn {

const char* model_family_name(ModelFamily family) noexcept {
  switch (family) {
    case ModelFamily::Opt:   return "opt";
    case ModelFamily::Llama: return "llama";
  }
  return "?";
}

TransformerConfig TransformerConfig::tiny_opt() {
  TransformerConfig c;
  c.family = ModelFamily::Opt;
  c.vocab_size = 96;
  c.dim = 64;
  c.n_layers = 4;
  c.n_heads = 4;
  c.ffn_hidden = 256;
  c.max_seq = 128;
  return c;
}

TransformerConfig TransformerConfig::tiny_llama() {
  TransformerConfig c;
  c.family = ModelFamily::Llama;
  c.vocab_size = 96;
  c.dim = 64;
  c.n_layers = 4;
  c.n_heads = 4;
  c.ffn_hidden = 172;  // ~2/3 * 4 * dim, rounded like Llama does
  c.max_seq = 128;
  return c;
}

std::int64_t TransformerConfig::parameter_count() const {
  const std::int64_t d = dim;
  const std::int64_t f = ffn_hidden;
  const bool bias = family == ModelFamily::Opt;
  const int kv = n_kv_heads == 0 ? n_heads : n_kv_heads;
  const std::int64_t kv_dim = d / n_heads * kv;
  std::int64_t per_block = 0;
  // Attention projections: q/o are d x d, k/v shrink under GQA.
  per_block += 2 * d * d + 2 * d * kv_dim;
  if (bias) per_block += 2 * d + 2 * kv_dim;
  if (family == ModelFamily::Opt) {
    per_block += d * f + f + f * d + d;  // fc1 + fc2 with biases
    per_block += 2 * (2 * d);            // two LayerNorms (gamma + beta)
  } else {
    per_block += 3 * d * f;  // gate, up, down (down is f x d; same count)
    per_block += 2 * d;      // two RMSNorms (gamma)
  }
  std::int64_t total = per_block * n_layers;
  total += vocab_size * d;  // token embedding
  total += max_seq * d;     // positional embedding
  total += vocab_size * d;  // lm head
  total += family == ModelFamily::Opt ? 2 * d : d;  // final norm
  return total;
}

void TransformerConfig::validate() const {
  MENOS_CHECK_MSG(vocab_size > 0 && dim > 0 && n_layers > 0 && n_heads > 0 &&
                      ffn_hidden > 0 && max_seq > 0,
                  "transformer config fields must be positive");
  MENOS_CHECK_MSG(dim % n_heads == 0,
                  "dim " << dim << " not divisible by heads " << n_heads);
  MENOS_CHECK_MSG(n_kv_heads >= 0 &&
                      (n_kv_heads == 0 || n_heads % n_kv_heads == 0),
                  "query heads " << n_heads << " not divisible by kv heads "
                                 << n_kv_heads);
}

void SplitSpec::validate(const TransformerConfig& config) const {
  MENOS_CHECK_MSG(front_blocks >= 1,
                  "the input section must hold at least one block (Fig 1)");
  MENOS_CHECK_MSG(back_blocks >= 0, "back_blocks must be non-negative");
  MENOS_CHECK_MSG(front_blocks + back_blocks < config.n_layers,
                  "split leaves no blocks for the server: front "
                      << front_blocks << " + back " << back_blocks
                      << " >= layers " << config.n_layers);
}

TransformerBlock::TransformerBlock(const std::string& name,
                                   const TransformerConfig& config,
                                   const AdapterSpec& adapter,
                                   ParameterSource& source,
                                   gpusim::Device& device,
                                   util::Rng& adapter_rng)
    : family_(config.family) {
  const bool bias = config.family == ModelFamily::Opt;
  attn_ = std::make_unique<CausalSelfAttention>(
      name + ".attn", config.dim, config.n_heads, bias, adapter, source,
      device, adapter_rng, config.n_kv_heads);
  register_child("attn", attn_.get());
  const bool bitfit = adapter.type == AdapterType::BitFit && bias;
  if (config.family == ModelFamily::Opt) {
    ln1_ = std::make_unique<LayerNormLayer>(name + ".ln1", config.dim, source,
                                            device);
    ln2_ = std::make_unique<LayerNormLayer>(name + ".ln2", config.dim, source,
                                            device);
    fc1_ = std::make_unique<Linear>(name + ".fc1", config.dim,
                                    config.ffn_hidden, true, source, device,
                                    bitfit);
    fc2_ = std::make_unique<Linear>(name + ".fc2", config.ffn_hidden,
                                    config.dim, true, source, device, bitfit);
    register_child("ln1", ln1_.get());
    register_child("ln2", ln2_.get());
    register_child("fc1", fc1_.get());
    register_child("fc2", fc2_.get());
  } else {
    rn1_ = std::make_unique<RMSNormLayer>(name + ".rn1", config.dim, source,
                                          device);
    rn2_ = std::make_unique<RMSNormLayer>(name + ".rn2", config.dim, source,
                                          device);
    gate_ = std::make_unique<Linear>(name + ".gate", config.dim,
                                     config.ffn_hidden, false, source, device);
    up_ = std::make_unique<Linear>(name + ".up", config.dim,
                                   config.ffn_hidden, false, source, device);
    down_ = std::make_unique<Linear>(name + ".down", config.ffn_hidden,
                                     config.dim, false, source, device);
    register_child("rn1", rn1_.get());
    register_child("rn2", rn2_.get());
    register_child("gate", gate_.get());
    register_child("up", up_.get());
    register_child("down", down_.get());
  }
}

tensor::Tensor TransformerBlock::forward(const tensor::Tensor& x) {
  using namespace menos::tensor;
  if (family_ == ModelFamily::Opt) {
    Tensor h = add(x, attn_->forward(ln1_->forward(x)));
    Tensor m = fc2_->forward(gelu(fc1_->forward(ln2_->forward(h))));
    return add(h, m);
  }
  Tensor h = add(x, attn_->forward(rn1_->forward(x)));
  Tensor n = rn2_->forward(h);
  Tensor m = down_->forward(mul(silu(gate_->forward(n)), up_->forward(n)));
  return add(h, m);
}

namespace {

std::string block_name(int index) { return "block" + std::to_string(index); }

}  // namespace

InputSection::InputSection(const TransformerConfig& config,
                           const SplitSpec& split, const AdapterSpec& adapter,
                           ParameterSource& source, gpusim::Device& device,
                           util::Rng& adapter_rng)
    : config_(config) {
  config.validate();
  split.validate(config);
  tok_emb_ = std::make_unique<Embedding>("tok_emb", config.vocab_size,
                                         config.dim, source, device);
  pos_emb_ = std::make_unique<Embedding>("pos_emb", config.max_seq, config.dim,
                                         source, device);
  register_child("tok_emb", tok_emb_.get());
  register_child("pos_emb", pos_emb_.get());
  if (adapter.type == AdapterType::Prefix) {
    prefix_ = std::make_unique<PrefixAdapter>("prefix", adapter.prefix_len,
                                              config.dim, device, adapter_rng);
    register_child("prefix", prefix_.get());
  }
  for (int i = 0; i < split.front_blocks; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        block_name(i), config, adapter, source, device, adapter_rng));
    register_child(block_name(i), blocks_.back().get());
  }
}

int InputSection::prefix_len() const noexcept {
  return prefix_ != nullptr ? prefix_->prefix_len() : 0;
}

tensor::Tensor InputSection::forward(const std::vector<std::int32_t>& ids,
                                     tensor::Index batch, tensor::Index seq) {
  using namespace menos::tensor;
  MENOS_CHECK_MSG(seq <= config_.max_seq,
                  "sequence length " << seq << " exceeds max_seq "
                                     << config_.max_seq);
  std::vector<std::int32_t> pos_ids(static_cast<std::size_t>(batch * seq));
  for (Index b = 0; b < batch; ++b) {
    for (Index t = 0; t < seq; ++t) {
      pos_ids[static_cast<std::size_t>(b * seq + t)] =
          static_cast<std::int32_t>(t);
    }
  }
  Tensor x = add(tok_emb_->forward(ids, batch, seq),
                 pos_emb_->forward(pos_ids, batch, seq));
  if (prefix_ != nullptr) x = prefix_->forward(x);
  for (auto& block : blocks_) x = block->forward(x);
  return x;
}

ServerSection::ServerSection(const TransformerConfig& config,
                             const SplitSpec& split,
                             const AdapterSpec& adapter,
                             ParameterSource& source, gpusim::Device& device,
                             util::Rng& adapter_rng)
    : ServerSection(config, split, adapter, source,
                    [&device](int) -> gpusim::Device& { return device; },
                    adapter_rng) {}

ServerSection::ServerSection(
    const TransformerConfig& config, const SplitSpec& split,
    const AdapterSpec& adapter, ParameterSource& source,
    const std::function<gpusim::Device&(int)>& device_for,
    util::Rng& adapter_rng) {
  config.validate();
  split.validate(config);
  for (int i = split.front_blocks; i < config.n_layers - split.back_blocks;
       ++i) {
    gpusim::Device& device = device_for(i);
    blocks_.push_back(std::make_unique<TransformerBlock>(
        block_name(i), config, adapter, source, device, adapter_rng));
    devices_.push_back(&device);
    register_child(block_name(i), blocks_.back().get());
  }
}

gpusim::Device& ServerSection::entry_device() const {
  MENOS_CHECK_MSG(!devices_.empty(), "empty server section");
  return *devices_.front();
}

tensor::Tensor ServerSection::forward(const tensor::Tensor& x_c) {
  tensor::Tensor x = x_c;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    // Cross-GPU boundary: ship the activation to the next block's device
    // (the inter-GPU transfer of pipeline/model parallelism). The copy is
    // differentiable-transparent — it happens outside an op, so the graph
    // records ops on whichever device executed them.
    if (&x.device() != devices_[i]) {
      x = tensor::to_device(x, *devices_[i]);
    }
    x = blocks_[i]->forward(x);
  }
  return x;
}

OutputSection::OutputSection(const TransformerConfig& config,
                             const SplitSpec& split,
                             const AdapterSpec& adapter,
                             ParameterSource& source, gpusim::Device& device,
                             util::Rng& adapter_rng)
    : config_(config) {
  config.validate();
  split.validate(config);
  for (int i = config.n_layers - split.back_blocks; i < config.n_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        block_name(i), config, adapter, source, device, adapter_rng));
    register_child(block_name(i), blocks_.back().get());
  }
  if (config.family == ModelFamily::Opt) {
    final_ln_ = std::make_unique<LayerNormLayer>("final_norm", config.dim,
                                                 source, device);
    register_child("final_norm", final_ln_.get());
  } else {
    final_rn_ = std::make_unique<RMSNormLayer>("final_norm", config.dim,
                                               source, device);
    register_child("final_norm", final_rn_.get());
  }
  if (adapter.type == AdapterType::Lora && adapter.target_lm_head) {
    lm_head_ = std::make_unique<LoraLinear>("lm_head", config.dim,
                                            config.vocab_size, false,
                                            adapter.rank, adapter.alpha,
                                            source, device, adapter_rng);
  } else {
    lm_head_ = std::make_unique<Linear>("lm_head", config.dim,
                                        config.vocab_size, false, source,
                                        device);
  }
  register_child("lm_head", lm_head_.get());
}

tensor::Tensor OutputSection::logits(const tensor::Tensor& x_s,
                                     int prefix_len) {
  using namespace menos::tensor;
  MENOS_CHECK_MSG(x_s.ndim() == 3, "output section expects [B, P+T, C]");
  Tensor x = x_s;
  for (auto& block : blocks_) x = block->forward(x);
  if (prefix_len > 0) {
    x = slice_dim1(x, prefix_len, x.dim(1) - prefix_len);
  }
  x = final_ln_ != nullptr ? final_ln_->forward(x) : final_rn_->forward(x);
  Tensor flat = reshape(x, {x.dim(0) * x.dim(1), config_.dim});
  return lm_head_->forward(flat);
}

tensor::Tensor OutputSection::loss(const tensor::Tensor& x_s, int prefix_len,
                                   const std::vector<std::int32_t>& targets) {
  return tensor::cross_entropy(logits(x_s, prefix_len), targets);
}

std::vector<std::int32_t> greedy_generate(InputSection& f_i,
                                          ServerSection& f_s,
                                          OutputSection& f_o,
                                          std::vector<std::int32_t> prompt,
                                          int n_new) {
  MENOS_CHECK_MSG(!prompt.empty(), "generation needs a non-empty prompt");
  MENOS_CHECK_MSG(n_new >= 0, "negative token count");
  tensor::NoGradGuard no_grad;
  const tensor::Index max_seq = f_i.config().max_seq;
  for (int step = 0; step < n_new; ++step) {
    const std::size_t window =
        std::min<std::size_t>(prompt.size(), static_cast<std::size_t>(max_seq));
    const std::vector<std::int32_t> context(prompt.end() - window,
                                            prompt.end());
    tensor::Tensor x_c =
        f_i.forward(context, 1, static_cast<tensor::Index>(window));
    tensor::Tensor logits = f_o.logits(f_s.forward(x_c), f_i.prefix_len());
    // logits: [window, vocab]; take the prediction at the last position.
    const std::vector<std::int32_t> next = tensor::argmax_lastdim(logits);
    prompt.push_back(next.back());
  }
  return prompt;
}

std::vector<std::int32_t> sample_generate(InputSection& f_i,
                                          ServerSection& f_s,
                                          OutputSection& f_o,
                                          std::vector<std::int32_t> prompt,
                                          int n_new, float temperature,
                                          int top_k, util::Rng& rng) {
  MENOS_CHECK_MSG(!prompt.empty(), "generation needs a non-empty prompt");
  MENOS_CHECK_MSG(temperature >= 0.0f, "negative temperature");
  MENOS_CHECK_MSG(top_k >= 1, "top_k must be at least 1");
  tensor::NoGradGuard no_grad;
  const tensor::Index max_seq = f_i.config().max_seq;
  const tensor::Index vocab = f_i.config().vocab_size;
  const int k = static_cast<int>(
      std::min<tensor::Index>(top_k, vocab));
  for (int step = 0; step < n_new; ++step) {
    const std::size_t window =
        std::min<std::size_t>(prompt.size(), static_cast<std::size_t>(max_seq));
    const std::vector<std::int32_t> context(prompt.end() - window,
                                            prompt.end());
    tensor::Tensor x_c =
        f_i.forward(context, 1, static_cast<tensor::Index>(window));
    tensor::Tensor logits = f_o.logits(f_s.forward(x_c), f_i.prefix_len());
    const float* row =
        logits.data() + (static_cast<tensor::Index>(window) - 1) * vocab;

    // Rank the top-k candidate ids by logit.
    std::vector<std::int32_t> candidates(static_cast<std::size_t>(vocab));
    for (tensor::Index i = 0; i < vocab; ++i) {
      candidates[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
    }
    std::partial_sort(candidates.begin(), candidates.begin() + k,
                      candidates.end(),
                      [row](std::int32_t a, std::int32_t b) {
                        return row[a] > row[b];
                      });
    if (k == 1 || temperature <= 1e-6f) {
      prompt.push_back(candidates[0]);
      continue;
    }
    // Temperature softmax over the k survivors, then sample.
    std::vector<double> probs(static_cast<std::size_t>(k));
    const double max_logit = row[candidates[0]];
    double z = 0.0;
    for (int i = 0; i < k; ++i) {
      probs[static_cast<std::size_t>(i)] = std::exp(
          (static_cast<double>(row[candidates[static_cast<std::size_t>(i)]]) -
           max_logit) /
          temperature);
      z += probs[static_cast<std::size_t>(i)];
    }
    double draw = rng.next_double() * z;
    std::int32_t chosen = candidates[static_cast<std::size_t>(k - 1)];
    for (int i = 0; i < k; ++i) {
      draw -= probs[static_cast<std::size_t>(i)];
      if (draw <= 0.0) {
        chosen = candidates[static_cast<std::size_t>(i)];
        break;
      }
    }
    prompt.push_back(chosen);
  }
  return prompt;
}

LocalModel::LocalModel(const TransformerConfig& config, const SplitSpec& split,
                       const AdapterSpec& adapter, ParameterSource& source,
                       gpusim::Device& device, std::uint64_t adapter_seed) {
  // The three sections consume independent adapter streams derived from one
  // seed, in the same order the split runtime derives them, so a LocalModel
  // and a (client f_i/f_o, server f_s) pair start from identical weights.
  util::Rng root(adapter_seed);
  util::Rng rng_in = root.fork();
  util::Rng rng_srv = root.fork();
  util::Rng rng_out = root.fork();
  input_ = std::make_unique<InputSection>(config, split, adapter, source,
                                          device, rng_in);
  server_ = std::make_unique<ServerSection>(config, split, adapter, source,
                                            device, rng_srv);
  output_ = std::make_unique<OutputSection>(config, split, adapter, source,
                                            device, rng_out);
  register_child("input", input_.get());
  register_child("server", server_.get());
  register_child("output", output_.get());
}

tensor::Tensor LocalModel::loss(const std::vector<std::int32_t>& ids,
                                const std::vector<std::int32_t>& targets,
                                tensor::Index batch, tensor::Index seq) {
  tensor::Tensor x_c = input_->forward(ids, batch, seq);
  tensor::Tensor x_s = server_->forward(x_c);
  return output_->loss(x_s, input_->prefix_len(), targets);
}

}  // namespace menos::nn
