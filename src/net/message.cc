#include "net/message.h"

#include <cmath>

#include "net/wire.h"
#include "quant/act_codec.h"
#include "util/crc32.h"

namespace menos::net {

const char* message_type_name(MessageType type) noexcept {
  switch (type) {
    case MessageType::Hello:          return "Hello";
    case MessageType::HelloAck:       return "HelloAck";
    case MessageType::Forward:        return "Forward";
    case MessageType::ForwardResult:  return "ForwardResult";
    case MessageType::Backward:       return "Backward";
    case MessageType::BackwardResult: return "BackwardResult";
    case MessageType::Bye:            return "Bye";
    case MessageType::Error:          return "Error";
    case MessageType::FetchAdapter:   return "FetchAdapter";
    case MessageType::AdapterBlob:    return "AdapterBlob";
    case MessageType::PushAdapter:    return "PushAdapter";
    case MessageType::PushAck:        return "PushAck";
    case MessageType::Heartbeat:      return "Heartbeat";
    case MessageType::HeartbeatAck:   return "HeartbeatAck";
    case MessageType::ResumeSession:  return "ResumeSession";
    case MessageType::ResumeAck:      return "ResumeAck";
  }
  return "?";
}

const char* activation_codec_name(ActivationCodec codec) noexcept {
  switch (codec) {
    case ActivationCodec::None: return "none";
    case ActivationCodec::Int8: return "int8";
  }
  return "?";
}

Message Message::hello(FinetuneConfig config) {
  Message m;
  m.type = MessageType::Hello;
  m.config = std::move(config);
  return m;
}

Message Message::hello_ack(std::uint64_t forward_bytes,
                           std::uint64_t backward_bytes,
                           std::uint64_t session_token,
                           double lease_seconds) {
  Message m;
  m.type = MessageType::HelloAck;
  m.forward_bytes = forward_bytes;
  m.backward_bytes = backward_bytes;
  m.session_token = session_token;
  m.lease_seconds = lease_seconds;
  return m;
}

Message Message::forward(WireTensor tensor, std::uint64_t iteration) {
  Message m;
  m.type = MessageType::Forward;
  m.tensor = std::move(tensor);
  m.iteration = iteration;
  return m;
}

Message Message::forward_result(WireTensor tensor, std::uint64_t iteration) {
  Message m;
  m.type = MessageType::ForwardResult;
  m.tensor = std::move(tensor);
  m.iteration = iteration;
  return m;
}

Message Message::backward(WireTensor tensor, std::uint64_t iteration) {
  Message m;
  m.type = MessageType::Backward;
  m.tensor = std::move(tensor);
  m.iteration = iteration;
  return m;
}

Message Message::backward_result(WireTensor tensor, std::uint64_t iteration) {
  Message m;
  m.type = MessageType::BackwardResult;
  m.tensor = std::move(tensor);
  m.iteration = iteration;
  return m;
}

Message Message::bye() {
  Message m;
  m.type = MessageType::Bye;
  return m;
}

Message Message::error(std::string text) {
  Message m;
  m.type = MessageType::Error;
  m.text = std::move(text);
  return m;
}

Message Message::fetch_adapter() {
  Message m;
  m.type = MessageType::FetchAdapter;
  return m;
}

Message Message::adapter_blob(std::vector<std::uint8_t> blob) {
  Message m;
  m.type = MessageType::AdapterBlob;
  m.blob = std::move(blob);
  return m;
}

Message Message::push_adapter(std::vector<std::uint8_t> blob) {
  Message m;
  m.type = MessageType::PushAdapter;
  m.blob = std::move(blob);
  return m;
}

Message Message::push_ack() {
  Message m;
  m.type = MessageType::PushAck;
  return m;
}

Message Message::heartbeat() {
  Message m;
  m.type = MessageType::Heartbeat;
  return m;
}

Message Message::heartbeat_ack() {
  Message m;
  m.type = MessageType::HeartbeatAck;
  return m;
}

Message Message::resume_session(std::uint64_t session_token) {
  Message m;
  m.type = MessageType::ResumeSession;
  m.session_token = session_token;
  return m;
}

Message Message::resume_ack(std::uint64_t session_token,
                            std::uint64_t iteration) {
  Message m;
  m.type = MessageType::ResumeAck;
  m.session_token = session_token;
  m.iteration = iteration;
  return m;
}

namespace {

/// Takes the same put_* calls as Writer but only adds up their sizes, so
/// framed_size follows the encoder field for field without encoding.
class SizeCounter {
 public:
  void reserve(std::size_t) {}
  void put_u8(std::uint8_t) { size_ += 1; }
  void put_u64(std::uint64_t) { size_ += 8; }
  void put_i64(std::int64_t) { size_ += 8; }
  void put_f32(float) { size_ += 4; }
  void put_f64(double) { size_ += 8; }
  void put_string(const std::string& s) { size_ += 8 + s.size(); }
  void put_bytes(const std::vector<std::uint8_t>& b) { size_ += 8 + b.size(); }
  void put_f32_array(const float*, std::size_t n) {
    size_ += 8 + n * sizeof(float);
  }
  void put_raw(std::size_t bytes) { size_ += bytes; }

  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Int8 rows: one f32 scale per row, then one code byte per element.
void put_int8_rows(Writer& w, const float* data, std::size_t rows,
                   std::size_t cols) {
  std::vector<float> scales;
  std::vector<std::uint8_t> codes;
  quant::int8_rowwise_encode(data, rows, cols, scales, codes);
  w.put_f32_array(scales.data(), scales.size());
  w.put_bytes(codes);
}

void put_int8_rows(SizeCounter& w, const float*, std::size_t rows,
                   std::size_t cols) {
  w.put_f32_array(nullptr, rows);
  w.put_u64(rows * cols);  // the codes' length prefix...
  w.put_raw(rows * cols);  // ...and the codes
}

template <typename W>
void put_tensor(W& w, const WireTensor& t, ActivationCodec codec) {
  // Activation-sized payloads dominate the frame; size the buffer once so
  // the per-dimension and per-element appends never reallocate.
  w.reserve(8 + t.shape.size() * 8 + 1 + 8 + t.data.size() * sizeof(float));
  w.put_u64(t.shape.size());
  for (std::int64_t d : t.shape) w.put_i64(d);
  w.put_u8(static_cast<std::uint8_t>(codec));
  switch (codec) {
    case ActivationCodec::None:
      w.put_f32_array(t.data.data(), t.data.size());
      break;
    case ActivationCodec::Int8: {
      // Rows of the last dimension, the same granularity as
      // quant::Scheme::Int8Rowwise. numel is a product of the dims, so the
      // division is exact whenever cols > 0; a zero-sized tensor encodes as
      // zero rows.
      const std::size_t cols =
          t.shape.empty() ? 0 : static_cast<std::size_t>(t.shape.back());
      const std::size_t rows = cols > 0 ? t.data.size() / cols : 0;
      put_int8_rows(w, t.data.data(), rows, cols);
      break;
    }
  }
}

WireTensor get_tensor(Reader& r, ActivationCodec& codec_out) {
  WireTensor t;
  const std::uint64_t ndim = r.get_u64();
  if (ndim > 8) throw ProtocolError("wire tensor rank too large");
  t.shape.resize(ndim);
  std::int64_t numel = 1;
  for (auto& d : t.shape) {
    d = r.get_i64();
    if (d < 0) throw ProtocolError("negative wire tensor dimension");
    numel *= d;
  }
  const std::uint8_t raw_codec = r.get_u8();
  if (raw_codec > 1) throw ProtocolError("unknown activation codec on wire");
  codec_out = static_cast<ActivationCodec>(raw_codec);
  switch (static_cast<ActivationCodec>(raw_codec)) {
    case ActivationCodec::None:
      t.data = r.get_f32_array();
      if (static_cast<std::int64_t>(t.data.size()) != numel) {
        throw ProtocolError("wire tensor payload does not match shape");
      }
      break;
    case ActivationCodec::Int8: {
      const std::size_t cols =
          t.shape.empty() ? 0 : static_cast<std::size_t>(t.shape.back());
      const std::size_t rows =
          cols > 0 ? static_cast<std::size_t>(numel) / cols : 0;
      const std::vector<float> scales = r.get_f32_array();
      const std::vector<std::uint8_t> codes = r.get_bytes();
      if (scales.size() != rows || codes.size() != rows * cols ||
          static_cast<std::int64_t>(rows * cols) != numel) {
        throw ProtocolError("int8 wire tensor payload does not match shape");
      }
      t.data.resize(rows * cols);
      quant::int8_rowwise_decode(scales.data(), codes.data(), rows, cols,
                                 t.data.data());
      break;
    }
  }
  return t;
}

template <typename W>
void put_config(W& w, const FinetuneConfig& c) {
  w.put_string(c.client_name);
  w.put_u8(static_cast<std::uint8_t>(c.model.family));
  w.put_i64(c.model.vocab_size);
  w.put_i64(c.model.dim);
  w.put_i64(c.model.n_layers);
  w.put_i64(c.model.n_heads);
  w.put_i64(c.model.n_kv_heads);
  w.put_i64(c.model.ffn_hidden);
  w.put_i64(c.model.max_seq);
  w.put_i64(c.split.front_blocks);
  w.put_i64(c.split.back_blocks);
  w.put_u8(static_cast<std::uint8_t>(c.adapter.type));
  w.put_i64(c.adapter.rank);
  w.put_f32(c.adapter.alpha);
  w.put_u8(c.adapter.target_q ? 1 : 0);
  w.put_u8(c.adapter.target_v ? 1 : 0);
  w.put_u8(c.adapter.target_lm_head ? 1 : 0);
  w.put_i64(c.adapter.prefix_len);
  w.put_u8(static_cast<std::uint8_t>(c.optimizer));
  w.put_f32(c.lr);
  w.put_i64(c.batch_size);
  w.put_i64(c.seq_len);
  w.put_u64(c.adapter_seed);
  w.put_f64(c.profile.compute_scale);
  w.put_i64(c.profile.cut_depth);
  w.put_u8(c.profile.frozen_client_half ? 1 : 0);
  w.put_u8(static_cast<std::uint8_t>(c.profile.codec));
  w.put_f64(c.profile.uplink_bytes_per_s);
  w.put_f64(c.profile.downlink_bytes_per_s);
  w.put_f64(c.profile.link_latency_s);
}

FinetuneConfig get_config(Reader& r) {
  FinetuneConfig c;
  c.client_name = r.get_string();
  const std::uint8_t family = r.get_u8();
  if (family > 1) throw ProtocolError("unknown model family on wire");
  c.model.family = static_cast<nn::ModelFamily>(family);
  c.model.vocab_size = r.get_i64();
  c.model.dim = r.get_i64();
  c.model.n_layers = static_cast<int>(r.get_i64());
  c.model.n_heads = static_cast<int>(r.get_i64());
  c.model.n_kv_heads = static_cast<int>(r.get_i64());
  c.model.ffn_hidden = r.get_i64();
  c.model.max_seq = r.get_i64();
  c.split.front_blocks = static_cast<int>(r.get_i64());
  c.split.back_blocks = static_cast<int>(r.get_i64());
  const std::uint8_t adapter = r.get_u8();
  if (adapter > 3) throw ProtocolError("unknown adapter type on wire");
  c.adapter.type = static_cast<nn::AdapterType>(adapter);
  c.adapter.rank = static_cast<int>(r.get_i64());
  c.adapter.alpha = r.get_f32();
  c.adapter.target_q = r.get_u8() != 0;
  c.adapter.target_v = r.get_u8() != 0;
  c.adapter.target_lm_head = r.get_u8() != 0;
  c.adapter.prefix_len = static_cast<int>(r.get_i64());
  const std::uint8_t opt = r.get_u8();
  if (opt > 2) throw ProtocolError("unknown optimizer kind on wire");
  c.optimizer = static_cast<optim::OptimizerKind>(opt);
  c.lr = r.get_f32();
  c.batch_size = r.get_i64();
  c.seq_len = r.get_i64();
  c.adapter_seed = r.get_u64();
  c.profile.compute_scale = r.get_f64();
  if (!std::isfinite(c.profile.compute_scale) ||
      c.profile.compute_scale <= 0.0) {
    throw ProtocolError("client profile compute_scale must be finite > 0");
  }
  c.profile.cut_depth = static_cast<int>(r.get_i64());
  if (c.profile.cut_depth < 0) {
    throw ProtocolError("client profile cut_depth must be >= 0");
  }
  c.profile.frozen_client_half = r.get_u8() != 0;
  const std::uint8_t codec = r.get_u8();
  if (codec > 1) throw ProtocolError("unknown activation codec on wire");
  c.profile.codec = static_cast<ActivationCodec>(codec);
  c.profile.uplink_bytes_per_s = r.get_f64();
  c.profile.downlink_bytes_per_s = r.get_f64();
  c.profile.link_latency_s = r.get_f64();
  if (!std::isfinite(c.profile.uplink_bytes_per_s) ||
      c.profile.uplink_bytes_per_s < 0.0 ||
      !std::isfinite(c.profile.downlink_bytes_per_s) ||
      c.profile.downlink_bytes_per_s < 0.0 ||
      !std::isfinite(c.profile.link_latency_s) ||
      c.profile.link_latency_s < 0.0) {
    throw ProtocolError("client profile link hints must be finite >= 0");
  }
  return c;
}

template <typename W>
void put_message(W& w, const Message& message) {
  w.put_u8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case MessageType::Hello:
      put_config(w, message.config);
      break;
    case MessageType::HelloAck:
      w.put_u64(message.forward_bytes);
      w.put_u64(message.backward_bytes);
      w.put_u64(message.session_token);
      w.put_f64(message.lease_seconds);
      break;
    case MessageType::Forward:
    case MessageType::ForwardResult:
    case MessageType::Backward:
    case MessageType::BackwardResult:
      w.put_u64(message.iteration);
      put_tensor(w, message.tensor, message.tensor_codec);
      w.put_f64(message.compute_seconds);
      w.put_f64(message.schedule_wait_seconds);
      w.put_u8(message.eval_only ? 1 : 0);
      w.put_u8(message.defer_update ? 1 : 0);
      w.put_f32(message.lr_override);
      break;
    case MessageType::Bye:
    case MessageType::FetchAdapter:
    case MessageType::PushAck:
    case MessageType::Heartbeat:
    case MessageType::HeartbeatAck:
      break;
    case MessageType::Error:
      w.put_string(message.text);
      break;
    case MessageType::AdapterBlob:
    case MessageType::PushAdapter:
      w.put_bytes(message.blob);
      break;
    case MessageType::ResumeSession:
      w.put_u64(message.session_token);
      break;
    case MessageType::ResumeAck:
      w.put_u64(message.session_token);
      w.put_u64(message.iteration);
      break;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& message) {
  Writer w;
  put_message(w, message);
  return w.take();
}

Message decode_message(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  const std::uint8_t raw_type = r.get_u8();
  if (raw_type < 1 || raw_type > 16) {
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  Message m;
  m.type = static_cast<MessageType>(raw_type);
  switch (m.type) {
    case MessageType::Hello:
      m.config = get_config(r);
      break;
    case MessageType::HelloAck:
      m.forward_bytes = r.get_u64();
      m.backward_bytes = r.get_u64();
      m.session_token = r.get_u64();
      m.lease_seconds = r.get_f64();
      break;
    case MessageType::Forward:
    case MessageType::ForwardResult:
    case MessageType::Backward:
    case MessageType::BackwardResult:
      m.iteration = r.get_u64();
      m.tensor = get_tensor(r, m.tensor_codec);
      m.compute_seconds = r.get_f64();
      m.schedule_wait_seconds = r.get_f64();
      m.eval_only = r.get_u8() != 0;
      m.defer_update = r.get_u8() != 0;
      m.lr_override = r.get_f32();
      break;
    case MessageType::Bye:
    case MessageType::FetchAdapter:
    case MessageType::PushAck:
    case MessageType::Heartbeat:
    case MessageType::HeartbeatAck:
      break;
    case MessageType::Error:
      m.text = r.get_string();
      break;
    case MessageType::AdapterBlob:
    case MessageType::PushAdapter:
      m.blob = r.get_bytes();
      break;
    case MessageType::ResumeSession:
      m.session_token = r.get_u64();
      break;
    case MessageType::ResumeAck:
      m.session_token = r.get_u64();
      m.iteration = r.get_u64();
      break;
  }
  if (!r.exhausted()) {
    throw ProtocolError("trailing bytes after message payload");
  }
  return m;
}

std::vector<std::uint8_t> frame_message(const Message& message) {
  const std::vector<std::uint8_t> payload = encode_message(message);
  Writer w;
  w.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  w.put_u32(kFrameMagic);
  w.put_u64(payload.size());
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  frame.push_back(static_cast<std::uint8_t>(crc));
  frame.push_back(static_cast<std::uint8_t>(crc >> 8));
  frame.push_back(static_cast<std::uint8_t>(crc >> 16));
  frame.push_back(static_cast<std::uint8_t>(crc >> 24));
  return frame;
}

std::size_t framed_size(const Message& message) {
  SizeCounter counter;
  put_message(counter, message);
  return kFrameHeaderBytes + counter.size() + kFrameTrailerBytes;
}

Message parse_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderBytes + kFrameTrailerBytes) {
    throw ProtocolError("truncated frame");
  }
  Reader header(data, kFrameHeaderBytes);
  if (header.get_u32() != kFrameMagic) {
    throw ProtocolError("bad frame magic");
  }
  const std::uint64_t payload_len = header.get_u64();
  if (payload_len > kMaxFramePayload) {
    throw ProtocolError("frame payload exceeds limit");
  }
  if (size != kFrameHeaderBytes + payload_len + kFrameTrailerBytes) {
    throw ProtocolError("frame size mismatch");
  }
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  const std::uint8_t* trailer = payload + payload_len;
  const std::uint32_t expected =
      static_cast<std::uint32_t>(trailer[0]) |
      static_cast<std::uint32_t>(trailer[1]) << 8 |
      static_cast<std::uint32_t>(trailer[2]) << 16 |
      static_cast<std::uint32_t>(trailer[3]) << 24;
  if (util::crc32(payload, payload_len) != expected) {
    throw ProtocolError("frame CRC mismatch");
  }
  return decode_message(payload, payload_len);
}

}  // namespace menos::net
