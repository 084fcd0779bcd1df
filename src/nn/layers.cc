#include "nn/layers.h"

namespace menos::nn {

namespace {
constexpr float kWeightStd = 0.02f;
}

Linear::Linear(const std::string& name, tensor::Index in, tensor::Index out,
               bool bias, ParameterSource& source, gpusim::Device& device,
               bool trainable_bias) {
  MENOS_CHECK_MSG(in > 0 && out > 0, "Linear dims must be positive");
  weight_ = source.get(name + ".weight", {in, out}, device, kWeightStd);
  register_parameter(name + ".weight", weight_);
  if (bias) {
    bias_ = source.get(name + ".bias", {out}, device, 0.0f);
    if (trainable_bias) {
      // BitFit: the shared bias stays untouched; this client trains a copy.
      bias_ = bias_.clone();
      bias_.set_requires_grad(true);
    }
    register_parameter(name + ".bias", bias_);
  }
}

tensor::Tensor Linear::forward(const tensor::Tensor& x) {
  tensor::Tensor y = tensor::matmul(x, weight_);
  if (bias_.defined()) y = tensor::add_bias(y, bias_);
  return y;
}

Embedding::Embedding(const std::string& name, tensor::Index vocab,
                     tensor::Index dim, ParameterSource& source,
                     gpusim::Device& device)
    : vocab_(vocab), dim_(dim) {
  MENOS_CHECK_MSG(vocab > 0 && dim > 0, "Embedding dims must be positive");
  weight_ = source.get(name + ".weight", {vocab, dim}, device, kWeightStd);
  register_parameter(name + ".weight", weight_);
}

tensor::Tensor Embedding::forward(const std::vector<std::int32_t>& ids,
                                  tensor::Index batch, tensor::Index seq) {
  return tensor::embedding(weight_, ids, batch, seq);
}

LayerNormLayer::LayerNormLayer(const std::string& name, tensor::Index dim,
                               ParameterSource& source, gpusim::Device& device,
                               float eps)
    : eps_(eps) {
  gamma_ = source.get(name + ".gamma", {dim}, device, -1.0f);
  beta_ = source.get(name + ".beta", {dim}, device, 0.0f);
  register_parameter(name + ".gamma", gamma_);
  register_parameter(name + ".beta", beta_);
}

tensor::Tensor LayerNormLayer::forward(const tensor::Tensor& x) {
  return tensor::layer_norm(x, gamma_, beta_, eps_);
}

RMSNormLayer::RMSNormLayer(const std::string& name, tensor::Index dim,
                           ParameterSource& source, gpusim::Device& device,
                           float eps)
    : eps_(eps) {
  gamma_ = source.get(name + ".gamma", {dim}, device, -1.0f);
  register_parameter(name + ".gamma", gamma_);
}

tensor::Tensor RMSNormLayer::forward(const tensor::Tensor& x) {
  return tensor::rms_norm(x, gamma_, eps_);
}

}  // namespace menos::nn
