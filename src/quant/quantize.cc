#include "quant/quantize.h"

#include <array>
#include <cmath>
#include <cstring>
#include <vector>


namespace menos::quant {
namespace {

/// The QLoRA NF4 codebook: quantiles of a standard normal, normalized to
/// [-1, 1] (Dettmers et al. 2023, "QLoRA: Efficient Finetuning of
/// Quantized LLMs").
constexpr std::array<float, 16> kNf4Codebook = {
    -1.0f,        -0.69619280f, -0.52507305f, -0.39491749f,
    -0.28444138f, -0.18477343f, -0.09105004f, 0.0f,
    0.07958030f,  0.16093020f,  0.24611230f,  0.33791524f,
    0.44070983f,  0.56261700f,  0.72295684f,  1.0f};

constexpr int kNf4Block = 64;

std::uint8_t nearest_nf4(float normalized) noexcept {
  // 16 entries: linear scan is branch-predictable and plenty fast for
  // one-time weight quantization.
  int best = 0;
  float best_err = std::fabs(normalized - kNf4Codebook[0]);
  for (int i = 1; i < 16; ++i) {
    const float err = std::fabs(normalized - kNf4Codebook[static_cast<std::size_t>(i)]);
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return static_cast<std::uint8_t>(best);
}

/// Metered raw device buffer.
class RawBuffer {
 public:
  RawBuffer(gpusim::Device& device, std::size_t bytes)
      : device_(&device),
        bytes_(bytes),
        data_(static_cast<std::uint8_t*>(device.allocate(bytes))) {}
  ~RawBuffer() { device_->deallocate(data_, bytes_); }
  RawBuffer(const RawBuffer&) = delete;
  RawBuffer& operator=(const RawBuffer&) = delete;

  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  gpusim::Device* device_;
  std::size_t bytes_;
  std::uint8_t* data_;
};

}  // namespace

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::Int8Rowwise: return "int8-rowwise";
    case Scheme::Nf4Block:    return "nf4-block";
  }
  return "?";
}

int scheme_bits(Scheme scheme) noexcept {
  return scheme == Scheme::Int8Rowwise ? 8 : 4;
}

struct QuantizedTensor::Impl {
  tensor::Shape shape;
  tensor::Index rows = 0;
  tensor::Index cols = 0;
  Scheme scheme = Scheme::Int8Rowwise;
  std::unique_ptr<RawBuffer> codes;
  std::unique_ptr<RawBuffer> scales;  // float-typed

  const float* scale_data() const {
    return reinterpret_cast<const float*>(scales->data());
  }
  float* scale_data() {
    return reinterpret_cast<float*>(scales->data());
  }
  tensor::Index blocks_per_row() const {
    return (cols + kNf4Block - 1) / kNf4Block;
  }
};

QuantizedTensor QuantizedTensor::quantize(const tensor::Tensor& src,
                                          Scheme scheme,
                                          gpusim::Device& device) {
  MENOS_CHECK_MSG(src.defined() && src.ndim() == 2,
                  "quantize expects a 2-D weight matrix");
  auto impl = std::make_shared<Impl>();
  impl->shape = src.shape();
  impl->rows = src.dim(0);
  impl->cols = src.dim(1);
  impl->scheme = scheme;
  const float* w = src.data();
  const tensor::Index rows = impl->rows;
  const tensor::Index cols = impl->cols;

  if (scheme == Scheme::Int8Rowwise) {
    impl->codes = std::make_unique<RawBuffer>(
        device, static_cast<std::size_t>(rows * cols));
    impl->scales = std::make_unique<RawBuffer>(
        device, static_cast<std::size_t>(rows) * sizeof(float));
    auto* codes = reinterpret_cast<std::int8_t*>(impl->codes->data());
    float* scales = impl->scale_data();
    for (tensor::Index r = 0; r < rows; ++r) {
      const float* row = w + r * cols;
      float absmax = 0.0f;
      for (tensor::Index c = 0; c < cols; ++c) {
        absmax = std::max(absmax, std::fabs(row[c]));
      }
      const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
      scales[r] = scale;
      for (tensor::Index c = 0; c < cols; ++c) {
        const float q = std::round(row[c] / scale);
        codes[r * cols + c] =
            static_cast<std::int8_t>(std::max(-127.0f, std::min(127.0f, q)));
      }
    }
  } else {
    const tensor::Index bpr = (cols + kNf4Block - 1) / kNf4Block;
    const std::size_t packed =
        static_cast<std::size_t>(rows) *
        static_cast<std::size_t>((cols + 1) / 2);
    impl->codes = std::make_unique<RawBuffer>(device, packed);
    impl->scales = std::make_unique<RawBuffer>(
        device, static_cast<std::size_t>(rows * bpr) * sizeof(float));
    std::uint8_t* codes = impl->codes->data();
    std::memset(codes, 0, packed);
    float* scales = impl->scale_data();
    for (tensor::Index r = 0; r < rows; ++r) {
      const float* row = w + r * cols;
      for (tensor::Index b = 0; b < bpr; ++b) {
        const tensor::Index begin = b * kNf4Block;
        const tensor::Index end = std::min(cols, begin + kNf4Block);
        float absmax = 0.0f;
        for (tensor::Index c = begin; c < end; ++c) {
          absmax = std::max(absmax, std::fabs(row[c]));
        }
        const float scale = absmax > 0.0f ? absmax : 1.0f;
        scales[r * bpr + b] = scale;
        for (tensor::Index c = begin; c < end; ++c) {
          const std::uint8_t code = nearest_nf4(row[c] / scale);
          const tensor::Index flat = r * ((cols + 1) / 2) + c / 2;
          if (c % 2 == 0) {
            codes[flat] = static_cast<std::uint8_t>(
                (codes[flat] & 0xf0u) | code);
          } else {
            codes[flat] = static_cast<std::uint8_t>(
                (codes[flat] & 0x0fu) | (code << 4));
          }
        }
      }
    }
  }

  QuantizedTensor q;
  q.impl_ = std::move(impl);
  return q;
}

const tensor::Shape& QuantizedTensor::shape() const {
  MENOS_CHECK_MSG(defined(), "shape() on undefined QuantizedTensor");
  return impl_->shape;
}

tensor::Index QuantizedTensor::rows() const { return shape()[0]; }
tensor::Index QuantizedTensor::cols() const { return shape()[1]; }

Scheme QuantizedTensor::scheme() const {
  MENOS_CHECK_MSG(defined(), "scheme() on undefined QuantizedTensor");
  return impl_->scheme;
}

std::size_t QuantizedTensor::bytes() const {
  MENOS_CHECK_MSG(defined(), "bytes() on undefined QuantizedTensor");
  return impl_->codes->bytes() + impl_->scales->bytes();
}

void QuantizedTensor::dequantize_row(tensor::Index row, float* out) const {
  MENOS_CHECK_MSG(defined(), "dequantize_row on undefined QuantizedTensor");
  const Impl& im = *impl_;
  MENOS_CHECK_MSG(row >= 0 && row < im.rows, "row out of range");
  const tensor::Index cols = im.cols;
  if (im.scheme == Scheme::Int8Rowwise) {
    const auto* codes = reinterpret_cast<const std::int8_t*>(im.codes->data());
    const float scale = im.scale_data()[row];
    const std::int8_t* r = codes + row * cols;
    for (tensor::Index c = 0; c < cols; ++c) {
      out[c] = static_cast<float>(r[c]) * scale;
    }
    return;
  }
  const std::uint8_t* codes = im.codes->data();
  const float* scales = im.scale_data();
  const tensor::Index bpr = im.blocks_per_row();
  const tensor::Index row_bytes = (cols + 1) / 2;
  for (tensor::Index c = 0; c < cols; ++c) {
    const std::uint8_t byte = codes[row * row_bytes + c / 2];
    const std::uint8_t code = c % 2 == 0 ? (byte & 0x0fu) : (byte >> 4);
    out[c] = kNf4Codebook[code] * scales[row * bpr + c / kNf4Block];
  }
}

tensor::Tensor QuantizedTensor::dequantize(gpusim::Device& device) const {
  tensor::Tensor out = tensor::Tensor::empty(shape(), device);
  for (tensor::Index r = 0; r < rows(); ++r) {
    dequantize_row(r, out.data() + r * cols());
  }
  return out;
}

tensor::Tensor quantized_matmul(const tensor::Tensor& x,
                                const QuantizedTensor& w) {
  using namespace menos::tensor;
  MENOS_CHECK_MSG(x.defined() && w.defined(), "quantized_matmul operands");
  MENOS_CHECK_MSG(x.ndim() >= 2, "quantized_matmul needs ndim >= 2 input");
  const Index in = w.rows();
  const Index out_dim = w.cols();
  MENOS_CHECK_MSG(x.shape().back() == in,
                  "quantized_matmul: inner dims " << x.shape().back()
                                                  << " vs " << in);
  const Index m = x.numel() / in;
  Shape out_shape = x.shape();
  out_shape.back() = out_dim;
  Tensor y = Tensor::zeros(out_shape, x.device());

  // Streaming: dequantize one weight row (out_dim floats) at a time.
  std::vector<float> wrow(static_cast<std::size_t>(out_dim));
  const float* px = x.data();
  float* py = y.data();
  for (Index k = 0; k < in; ++k) {
    w.dequantize_row(k, wrow.data());
    for (Index i = 0; i < m; ++i) {
      const float xv = px[i * in + k];
      if (xv == 0.0f) continue;
      float* yrow = py + i * out_dim;
      for (Index j = 0; j < out_dim; ++j) yrow[j] += xv * wrow[j];
    }
  }

  if (tensor::detail::should_record({x})) {
    Tensor saved_x = x.detach();
    tensor::detail::attach_node(
        y, "quantized_matmul", {x},
        [w, in, out_dim, m](const Tensor& g) {
          // dx = g @ W^T, streaming the same way; W is frozen so there is
          // no weight gradient (the adapter-based fine-tuning premise).
          Tensor dx = Tensor::zeros({m, in}, g.device());
          std::vector<float> wrow2(static_cast<std::size_t>(out_dim));
          const float* pg = g.data();
          float* pdx = dx.data();
          for (Index k = 0; k < in; ++k) {
            w.dequantize_row(k, wrow2.data());
            for (Index i = 0; i < m; ++i) {
              const float* grow = pg + i * out_dim;
              float acc = 0.0f;
              for (Index j = 0; j < out_dim; ++j) acc += grow[j] * wrow2[j];
              pdx[i * in + k] = acc;
            }
          }
          return std::vector<Tensor>{dx};
        });
  }
  return y;
}

double reconstruction_rmse(const tensor::Tensor& original,
                           const QuantizedTensor& quantized) {
  MENOS_CHECK_MSG(original.shape() == quantized.shape(),
                  "rmse: shape mismatch");
  std::vector<float> row(static_cast<std::size_t>(quantized.cols()));
  const float* p = original.data();
  double acc = 0.0;
  for (tensor::Index r = 0; r < quantized.rows(); ++r) {
    quantized.dequantize_row(r, row.data());
    for (tensor::Index c = 0; c < quantized.cols(); ++c) {
      const double d = static_cast<double>(p[r * quantized.cols() + c]) -
                       static_cast<double>(row[static_cast<std::size_t>(c)]);
      acc += d * d;
    }
  }
  return std::sqrt(acc / static_cast<double>(original.numel()));
}

}  // namespace menos::quant
