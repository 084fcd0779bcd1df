#include "nn/adapters.h"

namespace menos::nn {

const char* adapter_type_name(AdapterType type) noexcept {
  switch (type) {
    case AdapterType::None:   return "none";
    case AdapterType::Lora:   return "lora";
    case AdapterType::BitFit: return "bitfit";
    case AdapterType::Prefix: return "prefix";
  }
  return "?";
}

LoraLinear::LoraLinear(const std::string& name, tensor::Index in,
                       tensor::Index out, bool bias, int rank, float alpha,
                       ParameterSource& base_source, gpusim::Device& device,
                       util::Rng& adapter_rng)
    : Linear(name, in, out, bias, base_source, device),
      scale_(alpha / static_cast<float>(rank)) {
  MENOS_CHECK_MSG(rank > 0, "LoRA rank must be positive");
  a_ = tensor::Tensor::empty({in, rank}, device);
  adapter_rng.fill_normal(a_.data(), static_cast<std::size_t>(a_.numel()),
                          0.02f);
  a_.set_requires_grad(true);
  b_ = tensor::Tensor::zeros({rank, out}, device);
  b_.set_requires_grad(true);
  register_parameter(name + ".lora_a", a_);
  register_parameter(name + ".lora_b", b_);
}

tensor::Tensor LoraLinear::forward(const tensor::Tensor& x) {
  tensor::Tensor base = Linear::forward(x);
  tensor::Tensor low = tensor::matmul(x, a_);
  tensor::Tensor delta = tensor::matmul(low, b_);
  return tensor::add(base, tensor::scale(delta, scale_));
}

tensor::Tensor LoraLinear::merged_delta() const {
  tensor::NoGradGuard no_grad;
  return tensor::scale(tensor::matmul(a_, b_), scale_);
}

PrefixAdapter::PrefixAdapter(const std::string& name, int prefix_len,
                             tensor::Index dim, gpusim::Device& device,
                             util::Rng& adapter_rng)
    : prefix_len_(prefix_len) {
  MENOS_CHECK_MSG(prefix_len > 0, "prefix length must be positive");
  prefix_ = tensor::Tensor::empty({prefix_len, dim}, device);
  adapter_rng.fill_normal(prefix_.data(),
                          static_cast<std::size_t>(prefix_.numel()), 0.02f);
  prefix_.set_requires_grad(true);
  register_parameter(name + ".prefix", prefix_);
}

tensor::Tensor PrefixAdapter::forward(const tensor::Tensor& x) {
  MENOS_CHECK_MSG(x.ndim() == 3, "PrefixAdapter expects [B, T, C] input");
  tensor::Tensor tiled = tensor::tile_batch(prefix_, x.dim(0));
  return tensor::concat_dim1(tiled, x);
}

}  // namespace menos::nn
