// Client-side split fine-tuning runtime (§2.2, client perspective).
//
// The client owns the input section f_i (embeddings + leading blocks) and
// the output section f_o (trailing norm + LM head), their adapters, and
// the optimizer over those adapters. fine-tuning iterates:
//   x_c = f_i(x)  -> send ->  x_s = f_s(x_c)  -> recv ->
//   loss = f_o(x_s), backward to g_c -> send -> recv g_s ->
//   finish backward through f_i, step adapters.
#pragma once

#include <memory>

#include "core/runtime.h"
#include "data/dataset.h"
#include "net/transport.h"
#include "nn/transformer.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace menos::core {

struct ClientOptions {
  net::FinetuneConfig finetune;
  /// Must match the server's base-model seed (stands in for both parties
  /// holding the same pre-trained checkpoint halves).
  std::uint64_t base_seed = 42;
  /// Learning-rate schedule over finetune.lr; evaluated per step and
  /// propagated to the server-side optimizer in each Backward message.
  optim::LrSchedule schedule = optim::LrSchedule::constant();

  /// Backoff schedule for reconnect/resume after a dropped link. Only used
  /// when the client was built with a Dialer; without one, any link loss
  /// remains immediately fatal (the pre-fault-tolerance behavior).
  util::RetryPolicy retry;
  /// Seeds the backoff jitter so retry schedules are reproducible.
  std::uint64_t retry_seed = 0x52e7121;
  /// Receive timeout applied to every connection (0 = block forever); lets
  /// the client notice a silently dead link rather than hang in receive().
  double receive_timeout_s = 0.0;
  /// Optional event trace (not owned); records net.retry / net.resume.
  util::EventTrace* trace = nullptr;
};

/// Per-iteration measurements, decomposed the way §5.2 decomposes Fig 6:
/// total = communication + computation + scheduling.
struct StepStats {
  double loss = 0.0;
  double total_s = 0.0;
  double comm_s = 0.0;            ///< total - server compute - wait - client compute
  double client_compute_s = 0.0;
  double server_compute_s = 0.0;
  double server_wait_s = 0.0;     ///< scheduling time (Table 3)
  std::uint64_t iteration = 0;
};

class Client {
 public:
  /// `device` is the client's local compute device (its own GPU, or the
  /// host for the CPU-client experiments of Fig 10). A non-null `dialer`
  /// enables fault tolerance: on link loss the client redials, resumes its
  /// server session via ResumeSession, and replays the in-flight request
  /// under options.retry (docs/FAULTS.md).
  Client(const ClientOptions& options,
         std::unique_ptr<net::Connection> connection, gpusim::Device& device,
         net::Dialer dialer = nullptr);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Handshake: send the fine-tuning configuration, wait for the profiled
  /// HelloAck. Throws Error if the server rejects us.
  void connect();

  /// One optimization step on a batch.
  StepStats train_step(const data::Batch& batch);

  /// One optimization step over several micro-batches (gradient
  /// accumulation): gradients average across the micro-batches on both
  /// sides of the split, and the optimizer step — client adapters here,
  /// server adapter there — applies once, after the last micro-batch.
  /// Matches a single step on the concatenated batch up to float
  /// associativity; uses micro-batch-sized intermediate memory.
  StepStats train_step_accumulated(const std::vector<data::Batch>& micro);

  /// Loss on a batch without updating anything (uses an eval-only forward).
  double evaluate(const data::Batch& batch);

  /// Greedy next-token generation through the split stack: each step runs
  /// the input section locally, an eval-only forward on the server, and
  /// the output section locally. Returns prompt + n_new ids.
  std::vector<std::int32_t> generate(std::vector<std::int32_t> prompt,
                                     int n_new);

  /// Export this client's complete trained adapter — the local phi_i /
  /// phi_o AND the server-side phi_s (fetched over the protocol; the
  /// server adapter is the client's property, unlike the base model).
  /// This is the artifact a user takes home from split fine-tuning.
  std::vector<std::uint8_t> export_adapter();

  /// Restore an adapter exported by a structurally identical client:
  /// loads the local sections and pushes phi_s back to the server.
  std::size_t import_adapter(const std::uint8_t* data, std::size_t size);

  /// Polite shutdown (Bye).
  void disconnect();

  /// Keepalive: refresh the server-side session lease without doing any
  /// work (for gaps between iterations longer than the lease).
  void heartbeat();

  /// Server-profiled memory demands (from HelloAck).
  std::uint64_t server_forward_bytes() const noexcept { return fwd_bytes_; }
  std::uint64_t server_backward_bytes() const noexcept { return bwd_bytes_; }

  /// Fault-tolerance introspection (from HelloAck / the retry loop).
  std::uint64_t session_token() const noexcept { return session_token_; }
  double lease_seconds() const noexcept { return lease_seconds_; }
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t resumes() const noexcept { return resumes_; }

  /// Client-side footprint, for completeness of the §2.3 accounting.
  std::size_t parameter_bytes() const;

 private:
  tensor::Tensor input_forward(const data::Batch& batch);

  /// One forward/backward exchange. `defer_update` keeps gradients
  /// accumulating on both sides; `loss_scale` pre-scales the loss so K
  /// accumulated micro-batches average rather than sum.
  StepStats run_round(const data::Batch& batch, bool defer_update,
                      float loss_scale);

  /// One request/reply exchange with at-least-once delivery: on link loss
  /// (send failure, drained receive, or frame corruption) the client
  /// redials, resumes the session, and replays `request`, backing off per
  /// options.retry. Replays are safe: Forward recomputes deterministically
  /// and the server dedups Backward by iteration. Throws StateError when
  /// no dialer is set, attempts are exhausted, or the server answers Error.
  net::Message rpc(const net::Message& request, net::MessageType expected,
                   const char* context);

  /// Dial a fresh connection and re-enter the session with ResumeSession.
  void reestablish();

  /// Pad client_compute_s up to compute_scale x the measured value by
  /// sleeping, emulating a slower device (heterogeneity experiments).
  double emulate_compute(double measured_s);

  ClientOptions options_;
  std::unique_ptr<net::Connection> connection_;
  gpusim::Device* device_;
  net::Dialer dialer_;
  util::Rng retry_rng_;
  std::unique_ptr<nn::InputSection> input_;
  std::unique_ptr<nn::OutputSection> output_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  std::uint64_t iteration_ = 0;
  std::uint64_t fwd_bytes_ = 0;
  std::uint64_t bwd_bytes_ = 0;
  std::uint64_t session_token_ = 0;
  double lease_seconds_ = 0.0;
  std::uint64_t retries_ = 0;
  std::uint64_t resumes_ = 0;
  bool connected_ = false;
  /// Latched from options_.finetune.profile at construction.
  bool frozen_ = false;
};

}  // namespace menos::core
