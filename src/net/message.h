// The split fine-tuning protocol (§2.2 / Fig 4).
//
// Client -> server: Hello (fine-tuning configuration, triggers profiling),
// Forward (intermediate activations x_c), Backward (gradients g_c), Bye.
// Server -> client: HelloAck (profiled memory demands), ForwardResult (x_s),
// BackwardResult (g_s), Error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/transformer.h"
#include "optim/optimizer.h"

namespace menos::net {

enum class MessageType : std::uint8_t {
  Hello = 1,
  HelloAck = 2,
  Forward = 3,
  ForwardResult = 4,
  Backward = 5,
  BackwardResult = 6,
  Bye = 7,
  Error = 8,
  // Adapter ownership: the server-side adapter phi_s belongs to the
  // CLIENT (it is the product of the client's fine-tuning); these let the
  // client check it out and restore it.
  FetchAdapter = 9,
  AdapterBlob = 10,
  PushAdapter = 11,
  PushAck = 12,
  // Fault tolerance (docs/FAULTS.md): leases are refreshed by any client
  // traffic, Heartbeat exists for clients that are idle on the wire;
  // ResumeSession reattaches a reconnecting client to its server-held
  // session (adapter + optimizer state) after a transport failure.
  Heartbeat = 13,
  HeartbeatAck = 14,
  ResumeSession = 15,
  ResumeAck = 16,
};

const char* message_type_name(MessageType type) noexcept;

/// A tensor in transit: shape + host-side payload, no device affinity.
struct WireTensor {
  std::vector<std::int64_t> shape;
  std::vector<float> data;
};

/// On-wire encoding of the activation payload in Forward / ForwardResult /
/// Backward / BackwardResult. Values are wire bytes — never renumber.
enum class ActivationCodec : std::uint8_t {
  /// Raw f32; bit-exact, and byte-identical to the pre-codec frame layout
  /// except for the one codec tag byte.
  None = 0,
  /// Per-row absmax int8 (quant::Scheme::Int8Rowwise): one f32 scale per
  /// row plus one code byte per element — ~4x smaller for thin links.
  /// Decoding yields exactly quantize-then-dequantize of the source.
  Int8 = 1,
};

const char* activation_codec_name(ActivationCodec codec) noexcept;

/// Per-session heterogeneity profile, declared by the client in its Hello.
/// Every field defaults to "the homogeneous client the rest of the system
/// always assumed", so a default profile is behaviour- and bit-identical to
/// the pre-profile protocol.
struct ClientProfile {
  /// Relative device compute cost: 1.0 = baseline hardware, 4.0 = this
  /// device runs its model halves 4x slower. The client emulates the
  /// slowdown locally (core::Client); the server sees it as telemetry for
  /// straggler-aware scheduling and sim calibration.
  double compute_scale = 1.0;

  /// Declared cut depth — must equal split.front_blocks when nonzero.
  /// 0 = unspecified (server uses the split as sent). Carried explicitly so
  /// the server can reject a Hello whose profile and split disagree instead
  /// of silently serving the wrong trunk.
  int cut_depth = 0;

  /// SplitFrozen mode: the client's device-side input half is frozen (no
  /// adapter, no local input-half optimizer state). The client only ships
  /// activations forward; the server's BackwardResult carries no activation
  /// gradient (empty tensor) because nothing on the device would consume it.
  bool frozen_client_half = false;

  /// Wire encoding for activation/gradient payloads in both directions.
  ActivationCodec codec = ActivationCodec::None;

  /// Advisory link characteristics (bytes/s and one-way seconds; 0 =
  /// unknown). Not enforced by the server — used for diagnostics, bench
  /// labeling, and sim calibration.
  double uplink_bytes_per_s = 0.0;
  double downlink_bytes_per_s = 0.0;
  double link_latency_s = 0.0;

  bool is_default() const noexcept {
    return compute_scale == 1.0 && cut_depth == 0 && !frozen_client_half &&
           codec == ActivationCodec::None && uplink_bytes_per_s == 0.0 &&
           downlink_bytes_per_s == 0.0 && link_latency_s == 0.0;
  }
};

/// Everything the server needs to build this client's serving session
/// (§3.3: "the client sending the fine-tuning configurations to the server
/// for profiling").
struct FinetuneConfig {
  std::string client_name;
  nn::TransformerConfig model;
  nn::SplitSpec split;
  nn::AdapterSpec adapter;
  optim::OptimizerKind optimizer = optim::OptimizerKind::Adam;
  float lr = 1e-3f;
  std::int64_t batch_size = 4;
  std::int64_t seq_len = 32;
  std::uint64_t adapter_seed = 1;
  ClientProfile profile;
};

struct Message {
  MessageType type = MessageType::Error;

  // Hello
  FinetuneConfig config;

  // Forward / ForwardResult / Backward / BackwardResult
  WireTensor tensor;
  std::uint64_t iteration = 0;

  /// Encoding of `tensor` on the wire (never of the in-memory WireTensor,
  /// which always holds floats). Both directions of a session use the codec
  /// declared in the session's ClientProfile.
  ActivationCodec tensor_codec = ActivationCodec::None;

  /// Forward only: this is an evaluation pass — the client will not send a
  /// matching Backward, so the session releases memory immediately in every
  /// serving mode.
  bool eval_only = false;

  /// Backward only: accumulate gradients into the server-side adapter but
  /// do NOT apply the optimizer step yet (client-driven gradient
  /// accumulation across micro-batches; cited by §1 as a standard memory
  /// technique, orthogonal to and composable with Menos).
  bool defer_update = false;

  /// Backward only: learning rate for this step (client-evaluated LR
  /// schedule); 0 keeps the server optimizer's current rate.
  float lr_override = 0.0f;

  // HelloAck: profiled per-operation GPU memory demands (M_f, M_b of §4.2).
  std::uint64_t forward_bytes = 0;
  std::uint64_t backward_bytes = 0;

  // HelloAck / ResumeSession / ResumeAck: opaque session identity minted by
  // the server at handshake; a reconnecting client presents it to reattach.
  std::uint64_t session_token = 0;
  // HelloAck: the server's lease duration (0 = leases disabled). A session
  // silent for longer than this — no traffic, no Heartbeat — may be reaped.
  double lease_seconds = 0.0;

  // ForwardResult / BackwardResult: server-side timing breakdown for this
  // operation, so clients can assemble the Table 2/3 decomposition.
  double compute_seconds = 0.0;
  double schedule_wait_seconds = 0.0;

  // Error
  std::string text;

  // AdapterBlob / PushAdapter: serialized adapter parameters (the
  // CRC-protected format of core/checkpoint.h).
  std::vector<std::uint8_t> blob;

  static Message hello(FinetuneConfig config);
  static Message hello_ack(std::uint64_t forward_bytes,
                           std::uint64_t backward_bytes,
                           std::uint64_t session_token = 0,
                           double lease_seconds = 0.0);
  static Message forward(WireTensor tensor, std::uint64_t iteration);
  static Message forward_result(WireTensor tensor, std::uint64_t iteration);
  static Message backward(WireTensor tensor, std::uint64_t iteration);
  static Message backward_result(WireTensor tensor, std::uint64_t iteration);
  static Message bye();
  static Message error(std::string text);
  static Message fetch_adapter();
  static Message adapter_blob(std::vector<std::uint8_t> blob);
  static Message push_adapter(std::vector<std::uint8_t> blob);
  static Message push_ack();
  static Message heartbeat();
  static Message heartbeat_ack();
  static Message resume_session(std::uint64_t session_token);
  /// `iteration` echoes the server's last completed iteration so clients
  /// can sanity-check where the session left off.
  static Message resume_ack(std::uint64_t session_token,
                            std::uint64_t iteration);
};

/// Encode the message payload (no frame header).
std::vector<std::uint8_t> encode_message(const Message& message);

/// Decode a payload produced by encode_message. Throws ProtocolError on any
/// malformation.
Message decode_message(const std::uint8_t* data, std::size_t size);

/// Full frame: magic, payload length, payload, CRC-32 of the payload.
std::vector<std::uint8_t> frame_message(const Message& message);

/// frame_message(message).size(), added up from the message's fields and
/// tensor sizes: nothing is encoded, so sizing a frame costs no copy.
std::size_t framed_size(const Message& message);

/// Frame constants shared with the TCP reassembly loop.
inline constexpr std::uint32_t kFrameMagic = 0x4d454e4fu;  // "MENO"
inline constexpr std::size_t kFrameHeaderBytes = 4 + 8;    // magic + length
inline constexpr std::size_t kFrameTrailerBytes = 4;       // crc32
inline constexpr std::size_t kMaxFramePayload = 1ull << 30;

/// Parse one full frame (header + payload + crc). Throws ProtocolError on
/// bad magic, oversized length, or CRC mismatch.
Message parse_frame(const std::uint8_t* data, std::size_t size);

}  // namespace menos::net
