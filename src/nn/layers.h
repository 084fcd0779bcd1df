// Elementary layers: Linear, Embedding, LayerNorm, RMSNorm.
#pragma once

#include <string>

#include "nn/module.h"
#include "tensor/ops.h"

namespace menos::nn {

/// y = x @ W (+ b). Weight is stored [in, out] so the forward pass is a
/// plain right-multiplication on [*, in] activations.
class Linear : public Module {
 public:
  /// `name` is the parameter prefix ("block3.attn.q"). Base parameters come
  /// from `source` and are frozen; set `trainable_bias` (BitFit) to clone
  /// the bias into a fresh trainable per-client tensor instead.
  Linear(const std::string& name, tensor::Index in, tensor::Index out,
         bool bias, ParameterSource& source, gpusim::Device& device,
         bool trainable_bias = false);

  virtual tensor::Tensor forward(const tensor::Tensor& x);

  const tensor::Tensor& weight() const noexcept { return weight_; }

 protected:
  tensor::Tensor weight_;  // [in, out], frozen
  tensor::Tensor bias_;    // [out] or undefined
};

/// Token or position embedding table.
class Embedding : public Module {
 public:
  Embedding(const std::string& name, tensor::Index vocab, tensor::Index dim,
            ParameterSource& source, gpusim::Device& device);

  /// ids.size() must equal batch*seq; returns [batch, seq, dim].
  tensor::Tensor forward(const std::vector<std::int32_t>& ids,
                         tensor::Index batch, tensor::Index seq);

  const tensor::Tensor& weight() const noexcept { return weight_; }
  tensor::Index vocab() const noexcept { return vocab_; }
  tensor::Index dim() const noexcept { return dim_; }

 private:
  tensor::Index vocab_;
  tensor::Index dim_;
  tensor::Tensor weight_;  // [vocab, dim]
};

class LayerNormLayer : public Module {
 public:
  LayerNormLayer(const std::string& name, tensor::Index dim,
                 ParameterSource& source, gpusim::Device& device,
                 float eps = 1e-5f);

  tensor::Tensor forward(const tensor::Tensor& x);

 private:
  tensor::Tensor gamma_;
  tensor::Tensor beta_;
  float eps_;
};

class RMSNormLayer : public Module {
 public:
  RMSNormLayer(const std::string& name, tensor::Index dim,
               ParameterSource& source, gpusim::Device& device,
               float eps = 1e-5f);

  tensor::Tensor forward(const tensor::Tensor& x);

 private:
  tensor::Tensor gamma_;
  float eps_;
};

}  // namespace menos::nn
