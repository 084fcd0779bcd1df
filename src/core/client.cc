#include "core/client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "core/checkpoint.h"
#include "net/wire.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace menos::core {
namespace {

/// Internal control-flow signal for rpc(): the link died mid-exchange in a
/// way that redial + resume + replay can recover from.
struct LinkLost {};

}  // namespace

Client::Client(const ClientOptions& options,
               std::unique_ptr<net::Connection> connection,
               gpusim::Device& device, net::Dialer dialer)
    : options_(options),
      connection_(std::move(connection)),
      device_(&device),
      dialer_(std::move(dialer)),
      retry_rng_(options.retry_seed) {
  if (connection_ != nullptr && options_.receive_timeout_s > 0.0) {
    connection_->set_receive_timeout(options_.receive_timeout_s);
  }
  net::FinetuneConfig& ft = options_.finetune;
  const net::ClientProfile& profile = ft.profile;
  if (profile.cut_depth != 0) {
    // The profile's chosen cut overrides the split's default depth; the
    // server re-derives its trunk from the same Hello config, so both
    // sides agree by construction.
    ft.split.front_blocks = profile.cut_depth;
  }
  ft.model.validate();
  ft.split.validate(ft.model);
  MENOS_CHECK_MSG(std::isfinite(profile.compute_scale) &&
                      profile.compute_scale > 0.0,
                  "client profile compute_scale must be finite > 0");
  frozen_ = profile.frozen_client_half;
  if (frozen_) {
    // A frozen device half never trains the input section, and a Prefix
    // adapter would change the cut-tensor geometry, so it cannot simply be
    // dropped from one side.
    MENOS_CHECK_MSG(ft.adapter.type != nn::AdapterType::Prefix,
                    "frozen_client_half is incompatible with Prefix adapters");
  }
  // Adapter stream derivation shared with nn::LocalModel and the serving
  // session: #1 input, #2 server (skipped here), #3 output. A frozen input
  // section takes AdapterType::None; its stream is still forked (and left
  // unconsumed) so the output-section stream stays identical either way.
  util::Rng root(ft.adapter_seed);
  util::Rng rng_in = root.fork();
  (void)root.fork();
  util::Rng rng_out = root.fork();
  nn::AdapterSpec input_adapter = ft.adapter;
  if (frozen_) input_adapter.type = nn::AdapterType::None;
  nn::FreshInit init(options_.base_seed);
  input_ = std::make_unique<nn::InputSection>(ft.model, ft.split, input_adapter,
                                              init, device, rng_in);
  output_ = std::make_unique<nn::OutputSection>(ft.model, ft.split, ft.adapter,
                                                init, device, rng_out);
  std::vector<nn::Parameter> trainable = input_->trainable_parameters();
  for (nn::Parameter& p : output_->trainable_parameters()) {
    trainable.push_back(std::move(p));
  }
  optimizer_ = optim::make_optimizer(ft.optimizer, std::move(trainable), ft.lr);
}

Client::~Client() {
  if (connected_) disconnect();
}

void Client::connect() {
  MENOS_CHECK_MSG(!connected_, "client already connected");
  const net::Message reply =
      rpc(net::Message::hello(options_.finetune), net::MessageType::HelloAck,
          "handshake");
  fwd_bytes_ = reply.forward_bytes;
  bwd_bytes_ = reply.backward_bytes;
  session_token_ = reply.session_token;
  lease_seconds_ = reply.lease_seconds;
  connected_ = true;
}

void Client::reestablish() {
  std::unique_ptr<net::Connection> fresh = dialer_();
  if (fresh == nullptr) throw LinkLost{};
  if (options_.receive_timeout_s > 0.0) {
    fresh->set_receive_timeout(options_.receive_timeout_s);
  }
  if (session_token_ != 0) {
    // Re-enter the parked server session; a brand-new pre-handshake client
    // (token 0) just dials and lets the pending Hello do the rest.
    if (!fresh->send(net::Message::resume_session(session_token_))) {
      throw LinkLost{};
    }
    std::optional<net::Message> ack;
    try {
      ack = fresh->receive();
    } catch (const ProtocolError&) {
      throw LinkLost{};
    }
    if (!ack.has_value()) throw LinkLost{};
    if (ack->type == net::MessageType::Error) {
      // The lease expired (or the token is bogus): the session and its
      // state are gone, so replaying the request cannot help.
      throw StateError("server refused resume: " + ack->text);
    }
    MENOS_CHECK_MSG(ack->type == net::MessageType::ResumeAck,
                    "unexpected resume reply: "
                        << net::message_type_name(ack->type));
    ++resumes_;
    if (options_.trace != nullptr) {
      options_.trace->record(util::TraceCategory::Network, "net.resume");
    }
  }
  connection_ = std::move(fresh);
}

net::Message Client::rpc(const net::Message& request,
                         net::MessageType expected, const char* context) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (connection_ == nullptr) reestablish();
      if (!connection_->send(request)) throw LinkLost{};
      std::optional<net::Message> reply;
      try {
        reply = connection_->receive();
      } catch (const ProtocolError&) {
        throw LinkLost{};  // corrupt frame: the stream is unrecoverable
      }
      if (!reply.has_value()) throw LinkLost{};
      if (reply->type == net::MessageType::Error) {
        throw StateError("server error: " + reply->text);
      }
      MENOS_CHECK_MSG(reply->type == expected,
                      context << ": unexpected reply "
                              << net::message_type_name(reply->type));
      return std::move(*reply);
    } catch (const LinkLost&) {
      if (connection_ != nullptr) {
        connection_->close();
        connection_.reset();
      }
      if (dialer_ == nullptr) {
        throw StateError(std::string("connection lost: ") + context);
      }
      if (attempt + 1 >= options_.retry.max_attempts) {
        throw StateError(std::string("connection lost (retries exhausted): ") +
                         context);
      }
      ++retries_;
      if (options_.trace != nullptr) {
        options_.trace->record(util::TraceCategory::Network, "net.retry");
      }
      const double sleep_s = options_.retry.backoff_s(attempt, retry_rng_);
      if (sleep_s > 0.0) {
        // Retry backoff waits before redialing; it is not a link delay.
        std::this_thread::sleep_for(  // NOLINT(raw-sleep)
            std::chrono::duration<double>(sleep_s));
      }
    }
  }
}

void Client::heartbeat() {
  MENOS_CHECK_MSG(connected_, "heartbeat before connect()");
  rpc(net::Message::heartbeat(), net::MessageType::HeartbeatAck, "heartbeat");
}

double Client::emulate_compute(double measured_s) {
  const double scale = options_.finetune.profile.compute_scale;
  if (scale <= 1.0 || measured_s <= 0.0) return measured_s;
  const double pad_s = (scale - 1.0) * measured_s;
  // Emulates a slower client device's compute, not the link.
  std::this_thread::sleep_for(  // NOLINT(raw-sleep)
      std::chrono::duration<double>(pad_s));
  return measured_s + pad_s;
}

tensor::Tensor Client::input_forward(const data::Batch& batch) {
  MENOS_CHECK_MSG(batch.batch_size == options_.finetune.batch_size &&
                      batch.seq_len == options_.finetune.seq_len,
                  "batch geometry differs from the profiled configuration");
  return input_->forward(batch.inputs, batch.batch_size, batch.seq_len);
}

StepStats Client::train_step(const data::Batch& batch) {
  return run_round(batch, /*defer_update=*/false, /*loss_scale=*/1.0f);
}

StepStats Client::train_step_accumulated(
    const std::vector<data::Batch>& micro) {
  MENOS_CHECK_MSG(!micro.empty(), "need at least one micro-batch");
  const float scale = 1.0f / static_cast<float>(micro.size());
  StepStats total;
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const bool last = i + 1 == micro.size();
    const StepStats s = run_round(micro[i], /*defer_update=*/!last, scale);
    total.loss += s.loss * scale;
    total.total_s += s.total_s;
    total.comm_s += s.comm_s;
    total.client_compute_s += s.client_compute_s;
    total.server_compute_s += s.server_compute_s;
    total.server_wait_s += s.server_wait_s;
    total.iteration = s.iteration;
  }
  return total;
}

StepStats Client::run_round(const data::Batch& batch, bool defer_update,
                            float loss_scale) {
  MENOS_CHECK_MSG(connected_, "train_step before connect()");
  using tensor::Tensor;
  StepStats stats;
  stats.iteration = iteration_;
  util::Stopwatch total_sw;

  // Step 1: local input-section forward (grad-tracked for the adapters;
  // a frozen device half skips the graph entirely).
  util::Stopwatch client_sw;
  Tensor x_c;
  if (frozen_) {
    tensor::NoGradGuard no_grad;
    x_c = input_forward(batch);
  } else {
    x_c = input_forward(batch);
  }
  net::WireTensor x_c_wire = to_wire(x_c);
  stats.client_compute_s += emulate_compute(client_sw.elapsed_seconds());

  net::Message fwd_msg = net::Message::forward(std::move(x_c_wire), iteration_);
  fwd_msg.tensor_codec = options_.finetune.profile.codec;
  const net::Message fwd_reply =
      rpc(fwd_msg, net::MessageType::ForwardResult, "forward");
  stats.server_compute_s += fwd_reply.compute_seconds;
  stats.server_wait_s += fwd_reply.schedule_wait_seconds;

  // Steps 2-3: output section, loss, local backward down to g_c.
  client_sw.reset();
  Tensor x_s = from_wire(fwd_reply.tensor, *device_, /*requires_grad=*/true);
  Tensor loss = output_->loss(x_s, input_->prefix_len(), batch.targets);
  stats.loss = loss.item();
  tensor::backward(tensor::scale(loss, loss_scale));
  Tensor g_c = x_s.grad();
  MENOS_CHECK_MSG(g_c.defined(), "no gradient reached the cut point x_s");
  net::WireTensor g_c_wire = to_wire(g_c);
  stats.client_compute_s += emulate_compute(client_sw.elapsed_seconds());

  const float step_lr =
      options_.finetune.lr *
      options_.schedule.factor_at(static_cast<std::int64_t>(iteration_));
  net::Message backward_msg =
      net::Message::backward(std::move(g_c_wire), iteration_);
  backward_msg.defer_update = defer_update;
  backward_msg.lr_override = step_lr;
  backward_msg.tensor_codec = options_.finetune.profile.codec;
  const net::Message bwd_reply =
      rpc(backward_msg, net::MessageType::BackwardResult, "backward");
  stats.server_compute_s += bwd_reply.compute_seconds;
  stats.server_wait_s += bwd_reply.schedule_wait_seconds;

  // Step 4: finish back-propagation through the input section and update
  // the client-side adapters. A frozen device half has nothing to
  // back-propagate into: the server advertises this by replying with an
  // explicitly empty tensor, which we hold it to.
  client_sw.reset();
  if (frozen_) {
    MENOS_CHECK_MSG(bwd_reply.tensor.data.empty(),
                    "server returned activation grads to a frozen client");
  } else {
    Tensor g_s = from_wire(bwd_reply.tensor, *device_);
    tensor::backward(x_c, g_s);
  }
  if (!defer_update) {
    optimizer_->set_lr(step_lr);
    optimizer_->step();
    optimizer_->zero_grad();
  }
  x_s.zero_grad();
  stats.client_compute_s += emulate_compute(client_sw.elapsed_seconds());

  stats.total_s = total_sw.elapsed_seconds();
  stats.comm_s = stats.total_s - stats.client_compute_s -
                 stats.server_compute_s - stats.server_wait_s;
  if (stats.comm_s < 0.0) stats.comm_s = 0.0;
  ++iteration_;
  return stats;
}

double Client::evaluate(const data::Batch& batch) {
  MENOS_CHECK_MSG(connected_, "evaluate before connect()");
  using tensor::Tensor;
  tensor::NoGradGuard no_grad;
  Tensor x_c = input_forward(batch);
  net::Message msg = net::Message::forward(to_wire(x_c), iteration_);
  msg.eval_only = true;
  msg.tensor_codec = options_.finetune.profile.codec;
  const net::Message reply =
      rpc(msg, net::MessageType::ForwardResult, "evaluate");
  Tensor x_s = from_wire(reply.tensor, *device_);
  return output_->loss(x_s, input_->prefix_len(), batch.targets).item();
}

std::vector<std::int32_t> Client::generate(std::vector<std::int32_t> prompt,
                                           int n_new) {
  MENOS_CHECK_MSG(connected_, "generate before connect()");
  MENOS_CHECK_MSG(!prompt.empty(), "generation needs a non-empty prompt");
  using tensor::Tensor;
  tensor::NoGradGuard no_grad;
  const tensor::Index max_seq = options_.finetune.model.max_seq;
  for (int step = 0; step < n_new; ++step) {
    const std::size_t window = std::min<std::size_t>(
        prompt.size(), static_cast<std::size_t>(max_seq));
    const std::vector<std::int32_t> context(prompt.end() - window,
                                            prompt.end());
    Tensor x_c =
        input_->forward(context, 1, static_cast<tensor::Index>(window));
    net::Message msg = net::Message::forward(to_wire(x_c), iteration_);
    msg.eval_only = true;
    msg.tensor_codec = options_.finetune.profile.codec;
    const net::Message reply =
        rpc(msg, net::MessageType::ForwardResult, "generate");
    Tensor x_s = from_wire(reply.tensor, *device_);
    Tensor logits = output_->logits(x_s, input_->prefix_len());
    prompt.push_back(tensor::argmax_lastdim(logits).back());
  }
  return prompt;
}

namespace {

std::vector<nn::Parameter> local_adapter_params(nn::InputSection& input,
                                                nn::OutputSection& output) {
  std::vector<nn::Parameter> params = input.trainable_parameters();
  for (nn::Parameter& p : output.trainable_parameters()) {
    params.push_back(std::move(p));
  }
  return params;
}

}  // namespace

std::vector<std::uint8_t> Client::export_adapter() {
  MENOS_CHECK_MSG(connected_, "export_adapter before connect()");
  // Fetch the server-side adapter phi_s.
  const net::Message reply = rpc(net::Message::fetch_adapter(),
                                 net::MessageType::AdapterBlob, "export");

  const std::vector<std::uint8_t> local =
      serialize_adapter(local_adapter_params(*input_, *output_));
  net::Writer w;
  w.put_bytes(local);
  w.put_bytes(reply.blob);
  return w.take();
}

std::size_t Client::import_adapter(const std::uint8_t* data,
                                   std::size_t size) {
  MENOS_CHECK_MSG(connected_, "import_adapter before connect()");
  net::Reader r(data, size);
  const std::vector<std::uint8_t> local = r.get_bytes();
  const std::vector<std::uint8_t> remote = r.get_bytes();
  if (!r.exhausted()) throw ProtocolError("trailing bytes in adapter export");

  const std::size_t loaded = deserialize_adapter(
      local.data(), local.size(), local_adapter_params(*input_, *output_));

  rpc(net::Message::push_adapter(remote), net::MessageType::PushAck,
      "import");
  return loaded;
}

void Client::disconnect() {
  if (!connected_) return;
  // Bye is best-effort and never retried: if the link is gone the server's
  // lease (or its connection-death path) tears the session down anyway.
  if (connection_ != nullptr) {
    connection_->send(net::Message::bye());
    connection_->close();
  }
  connected_ = false;
}

std::size_t Client::parameter_bytes() const {
  return input_->parameter_bytes() + output_->parameter_bytes();
}

}  // namespace menos::core
