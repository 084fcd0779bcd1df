#include "core/parameter_store.h"

#include <algorithm>

namespace menos::core {

int block_gpu_index(int block, int n_layers, int gpu_count) {
  MENOS_CHECK_MSG(block >= 0 && block < n_layers, "block index out of range");
  MENOS_CHECK_MSG(gpu_count >= 1, "need at least one GPU");
  return static_cast<int>(static_cast<std::int64_t>(block) * gpu_count /
                          n_layers);
}

namespace {

std::vector<gpusim::Device*> uniform_placement(
    const nn::TransformerConfig& config, gpusim::Device& device) {
  return std::vector<gpusim::Device*>(
      static_cast<std::size_t>(config.n_layers), &device);
}

std::vector<gpusim::Device*> split_placement(
    const nn::TransformerConfig& config, gpusim::DeviceManager& devices) {
  std::vector<gpusim::Device*> placement;
  placement.reserve(static_cast<std::size_t>(config.n_layers));
  for (int i = 0; i < config.n_layers; ++i) {
    placement.push_back(
        &devices.gpu(block_gpu_index(i, config.n_layers, devices.gpu_count())));
  }
  return placement;
}

}  // namespace

ParameterStore::ParameterStore(const nn::TransformerConfig& config,
                               gpusim::Device& device, std::uint64_t base_seed)
    : ParameterStore(config, uniform_placement(config, device), base_seed) {}

ParameterStore::ParameterStore(const nn::TransformerConfig& config,
                               gpusim::DeviceManager& devices,
                               std::uint64_t base_seed)
    : ParameterStore(config, split_placement(config, devices), base_seed) {}

gpusim::Device& ParameterStore::device_for_block(int block) const {
  MENOS_CHECK_MSG(block >= 0 &&
                      block < static_cast<int>(placement_.size()),
                  "block index out of range");
  return *placement_[static_cast<std::size_t>(block)];
}

ParameterStore::ParameterStore(const nn::TransformerConfig& config,
                               std::vector<gpusim::Device*> placement,
                               std::uint64_t base_seed)
    : config_(config), placement_(std::move(placement)) {
  config.validate();
  nn::FreshInit init(base_seed);
  nn::AdapterSpec no_adapter;
  no_adapter.type = nn::AdapterType::None;
  util::Rng unused_rng(0);
  // Build each block once to enumerate and initialize its parameters, then
  // keep only the tensors. Structures are throwaway; storage is shared.
  for (int i = 0; i < config.n_layers; ++i) {
    nn::TransformerBlock block("block" + std::to_string(i), config,
                               no_adapter, init,
                               *placement_[static_cast<std::size_t>(i)],
                               unused_rng);
    for (const nn::Parameter& p : block.parameters()) {
      MENOS_CHECK_MSG(!p.trainable(),
                      "base parameter '" << p.name << "' must be frozen");
      table_.emplace(p.name, p.value);
      bytes_ += p.value.bytes();
    }
  }
  // Fixed from here on (a checkpoint load drops what they cached): every
  // client's GEMMs read the same weights, packed once.
  for (auto& [name, value] : table_) value.seal();
}

std::vector<nn::Parameter> ParameterStore::parameters() const {
  std::vector<nn::Parameter> out;
  out.reserve(table_.size());
  for (const auto& [name, value] : table_) {
    out.push_back(nn::Parameter{name, value});
  }
  std::sort(out.begin(), out.end(),
            [](const nn::Parameter& a, const nn::Parameter& b) {
              return a.name < b.name;
            });
  return out;
}

bool same_model(const nn::TransformerConfig& a,
                const nn::TransformerConfig& b) {
  return a.family == b.family && a.vocab_size == b.vocab_size &&
         a.dim == b.dim && a.n_layers == b.n_layers &&
         a.n_heads == b.n_heads && a.n_kv_heads == b.n_kv_heads &&
         a.ffn_hidden == b.ffn_hidden && a.max_seq == b.max_seq;
}

}  // namespace menos::core
