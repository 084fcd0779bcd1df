#include "core/checkpoint.h"

#include <cstring>
#include <fstream>
#include <unordered_map>

#include "core/parameter_store.h"
#include "net/wire.h"
#include "util/check.h"
#include "util/crc32.h"

namespace menos::core {
namespace {

constexpr std::uint32_t kAdapterMagic = 0x4d41'4450u;  // "MADP"
constexpr std::uint32_t kAdapterVersion = 1;

}  // namespace

namespace {

std::vector<std::uint8_t> serialize_params(
    const std::vector<nn::Parameter>& params) {
  net::Writer w;
  w.put_u32(kAdapterMagic);
  w.put_u32(kAdapterVersion);
  w.put_u64(params.size());
  for (const nn::Parameter& p : params) {
    w.put_string(p.name);
    const tensor::Shape& shape = p.value.shape();
    w.put_u64(shape.size());
    for (tensor::Index d : shape) w.put_i64(d);
    w.put_f32_array(p.value.data(), static_cast<std::size_t>(p.value.numel()));
  }
  std::vector<std::uint8_t> blob = w.take();
  const std::uint32_t crc = util::crc32(blob.data(), blob.size());
  blob.push_back(static_cast<std::uint8_t>(crc));
  blob.push_back(static_cast<std::uint8_t>(crc >> 8));
  blob.push_back(static_cast<std::uint8_t>(crc >> 16));
  blob.push_back(static_cast<std::uint8_t>(crc >> 24));
  return blob;
}

void write_blob(const std::string& path,
                const std::vector<std::uint8_t>& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MENOS_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  MENOS_CHECK_MSG(out.good(), "short write to '" << path << "'");
}

std::vector<std::uint8_t> read_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MENOS_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

std::vector<std::uint8_t> serialize_adapter(
    const std::vector<nn::Parameter>& params) {
  for (const nn::Parameter& p : params) {
    MENOS_CHECK_MSG(p.trainable(),
                    "refusing to export frozen parameter '" << p.name << "'");
  }
  return serialize_params(params);
}

std::vector<std::uint8_t> serialize_adapter(const nn::Module& module) {
  return serialize_adapter(module.trainable_parameters());
}

std::size_t deserialize_adapter(const std::uint8_t* data, std::size_t size,
                                nn::Module& module) {
  return deserialize_adapter(data, size, module.trainable_parameters());
}

std::size_t deserialize_adapter(const std::uint8_t* data, std::size_t size,
                                const std::vector<nn::Parameter>& params) {
  if (size < 4) throw ProtocolError("adapter blob truncated");
  const std::size_t body = size - 4;
  const std::uint32_t expected =
      static_cast<std::uint32_t>(data[body]) |
      static_cast<std::uint32_t>(data[body + 1]) << 8 |
      static_cast<std::uint32_t>(data[body + 2]) << 16 |
      static_cast<std::uint32_t>(data[body + 3]) << 24;
  if (util::crc32(data, body) != expected) {
    throw ProtocolError("adapter checkpoint CRC mismatch");
  }

  net::Reader r(data, body);
  if (r.get_u32() != kAdapterMagic) {
    throw ProtocolError("not an adapter checkpoint");
  }
  const std::uint32_t version = r.get_u32();
  if (version != kAdapterVersion) {
    throw ProtocolError("unsupported adapter checkpoint version " +
                        std::to_string(version));
  }

  std::unordered_map<std::string, tensor::Tensor> targets;
  for (const nn::Parameter& p : params) {
    targets.emplace(p.name, p.value);
  }

  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = r.get_string();
    const std::uint64_t ndim = r.get_u64();
    if (ndim > 8) throw ProtocolError("adapter tensor rank too large");
    tensor::Shape shape(ndim);
    for (auto& d : shape) d = r.get_i64();
    const std::vector<float> values = r.get_f32_array();

    auto it = targets.find(name);
    MENOS_CHECK_MSG(it != targets.end(),
                    "checkpoint tensor '"
                        << name
                        << "' has no matching trainable parameter — was the "
                           "module built with the same adapter spec?");
    MENOS_CHECK_MSG(it->second.shape() == shape,
                    "checkpoint tensor '" << name << "' shape "
                                          << tensor::shape_to_string(shape)
                                          << " != parameter shape "
                                          << tensor::shape_to_string(
                                                 it->second.shape()));
    if (static_cast<tensor::Index>(values.size()) != it->second.numel()) {
      throw ProtocolError("adapter tensor payload size mismatch");
    }
    std::memcpy(it->second.data(), values.data(),
                values.size() * sizeof(float));
  }
  if (!r.exhausted()) throw ProtocolError("trailing bytes in adapter blob");
  return count;
}

void save_adapter(const std::string& path, const nn::Module& module) {
  write_blob(path, serialize_adapter(module));
}

std::size_t load_adapter(const std::string& path, nn::Module& module) {
  const std::vector<std::uint8_t> blob = read_blob(path);
  return deserialize_adapter(blob.data(), blob.size(), module);
}

void save_base_checkpoint(const std::string& path,
                          const ParameterStore& store) {
  write_blob(path, serialize_params(store.parameters()));
}

std::size_t load_base_checkpoint(const std::string& path,
                                 ParameterStore& store) {
  const std::vector<std::uint8_t> blob = read_blob(path);
  // Each write goes through the sealed weight's mutable Storage::data(),
  // which drops the GEMM panels packed from the old values; the next use
  // packs the new ones.
  return deserialize_adapter(blob.data(), blob.size(), store.parameters());
}

}  // namespace menos::core
