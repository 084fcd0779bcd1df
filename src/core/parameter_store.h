// The shared base-model parameter store (§3.1, Fig 2).
//
// One copy of every transformer block's frozen parameters is loaded onto
// the GPU up front. Per-client serving sessions build their own
// ServerSection *structures* over a SharedSource view of this table, so N
// clients share a single M instead of N copies — the base-model sharing
// mechanism that turns Eq. (2) into Eq. (3). The store seals its tensors
// (tensor::Storage::seal), so each weight's GEMM panels are packed once and
// shared by every client's kernels too.
//
// The store deliberately loads ALL blocks (0..n_layers-1) even though the
// paper's default split leaves block 0 on the client: clients choose their
// own cut points (§3.1's privacy-efficiency trade-off), and any block a
// client leaves to the server must already be resident.
#pragma once

#include <unordered_map>

#include "gpusim/device.h"
#include "nn/transformer.h"

namespace menos::core {

/// Contiguous block-to-GPU assignment for multi-GPU layer splitting:
/// block i of L layers on g GPUs lands on GPU floor(i*g/L).
int block_gpu_index(int block, int n_layers, int gpu_count);

class ParameterStore {
 public:
  /// Load one shared copy of the blocks onto `device`, initialized from
  /// `base_seed` (the stand-in for reading a checkpoint from disk).
  ParameterStore(const nn::TransformerConfig& config, gpusim::Device& device,
                 std::uint64_t base_seed);

  /// Multi-GPU form: blocks are split contiguously across all GPUs of
  /// `devices` ("we can manually assign different layers across multiple
  /// GPUs while loading the model" — §3.1).
  ParameterStore(const nn::TransformerConfig& config,
                 gpusim::DeviceManager& devices, std::uint64_t base_seed);

  /// The device hosting a given global block index.
  gpusim::Device& device_for_block(int block) const;

  const std::unordered_map<std::string, tensor::Tensor>& table() const noexcept {
    return table_;
  }

  /// A ParameterSource view for building per-client structures.
  nn::SharedSource source() const { return nn::SharedSource(&table_); }

  /// Bytes of the shared base model (the M term of §2.3).
  std::size_t bytes() const noexcept { return bytes_; }

  /// All base parameters as a (frozen) parameter list, sorted by name —
  /// the checkpointing surface.
  std::vector<nn::Parameter> parameters() const;

  const nn::TransformerConfig& config() const noexcept { return config_; }

 private:
  ParameterStore(const nn::TransformerConfig& config,
                 std::vector<gpusim::Device*> placement,
                 std::uint64_t base_seed);

  nn::TransformerConfig config_;
  std::vector<gpusim::Device*> placement_;  // one entry per block
  std::unordered_map<std::string, tensor::Tensor> table_;
  std::size_t bytes_ = 0;
};

/// Structural equality of model configs — a client must request exactly the
/// model the server hosts.
bool same_model(const nn::TransformerConfig& a, const nn::TransformerConfig& b);

}  // namespace menos::core
