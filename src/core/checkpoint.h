// Adapter checkpointing.
//
// The whole point of split fine-tuning is that the client walks away with
// ONLY its adapter (the base model never leaves the owner). These helpers
// serialize exactly the trainable parameters of a module tree — LoRA
// matrices, prefix tokens, BitFit biases — in a CRC-protected binary
// format, and load them back into a structurally matching module by
// parameter name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace menos::core {

/// Serialize trainable parameters (names, shapes, data).
std::vector<std::uint8_t> serialize_adapter(
    const std::vector<nn::Parameter>& params);
std::vector<std::uint8_t> serialize_adapter(const nn::Module& module);

/// As deserialize_adapter(…, module) but with an explicit target set.
std::size_t deserialize_adapter(const std::uint8_t* data, std::size_t size,
                                const std::vector<nn::Parameter>& targets);

/// Load serialized adapter tensors into `module` by name. Every tensor in
/// the blob must match an existing trainable parameter (same name, same
/// shape) — extra blob entries or shape mismatches throw; trainable
/// parameters absent from the blob are left untouched. Returns the number
/// of tensors loaded. Throws ProtocolError on corruption.
std::size_t deserialize_adapter(const std::uint8_t* data, std::size_t size,
                                nn::Module& module);

/// File variants.
void save_adapter(const std::string& path, const nn::Module& module);
std::size_t load_adapter(const std::string& path, nn::Module& module);

// ----- base-model checkpoints (the model owner's artifact) -----
//
// In production the server's frozen base comes from a checkpoint file the
// model owner controls, not from an init seed. These serialize the shared
// ParameterStore in the same CRC-protected format (frozen tensors allowed)
// so a server can persist and re-load its base.

class ParameterStore;

void save_base_checkpoint(const std::string& path, const ParameterStore& store);

/// Overwrite the store's tensors in place from a checkpoint written by
/// save_base_checkpoint. Every live structure sharing the store sees the
/// new values, and the GEMM panels packed from the old ones are dropped.
/// Must not run while a kernel reads the store. Returns the number of
/// tensors loaded.
std::size_t load_base_checkpoint(const std::string& path,
                                 ParameterStore& store);

}  // namespace menos::core
