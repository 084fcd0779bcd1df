#include "core/batch.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "core/parameter_store.h"
#include "core/session.h"
#include "nn/transformer.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace menos::core {

std::uint64_t compute_batch_key(const ServerConfig& server,
                                const net::FinetuneConfig& client) {
  if (server.sched_policy != sched::Policy::CoalescedBatch) return 0;
  // Only the re-forward modes coalesce: a mode whose allocation spans
  // forward -> backward skips the scheduler on its second op and would
  // never meet the batch in the waiting queue anyway.
  if (!shares_base_model(server.mode) || holds_across_iteration(server.mode)) {
    return 0;
  }
  // LoRA/BitFit inject per-client trainables into the server section; a
  // fused pass through one shared trunk could not apply them. None and
  // Prefix leave the trunk fully frozen (the prefix rows live in the
  // client's input section and arrive pre-concatenated in x_c).
  const nn::AdapterType adapter = client.adapter.type;
  if (adapter != nn::AdapterType::None && adapter != nn::AdapterType::Prefix) {
    return 0;
  }
  const std::int64_t prefix =
      adapter == nn::AdapterType::Prefix ? client.adapter.prefix_len : 0;
  const nn::TransformerConfig& m = client.model;
  std::ostringstream os;
  os << serving_mode_name(server.mode) << '|'
     << nn::model_family_name(m.family) << '|' << m.dim << 'x' << m.n_layers
     << 'h' << m.n_heads << 'k' << m.n_kv_heads << 'f' << m.ffn_hidden << 'v'
     << m.vocab_size << '|' << client.split.front_blocks << '-'
     << client.split.back_blocks << '|' << 't' << client.seq_len + prefix;
  const std::uint64_t key = std::hash<std::string>{}(os.str());
  return key == 0 ? 1 : key;  // 0 is reserved for "never coalesce"
}

BatchCoordinator::BatchCoordinator(const ServerConfig& config,
                                   const ParameterStore& store,
                                   sched::Scheduler& scheduler)
    : config_(config), store_(&store), scheduler_(&scheduler) {}

BatchCoordinator::~BatchCoordinator() = default;

void BatchCoordinator::begin_group(
    const sched::Grant& grant,
    std::vector<std::shared_ptr<ServingSession>> sessions) {
  MENOS_CHECK_MSG(sessions.size() == grant.group.size(),
                  "group grant member/session count mismatch");
  auto group = std::make_shared<BatchGroup>();
  group->grant = grant;
  group->sessions = std::move(sessions);
  group->contributions.resize(grant.group.size());
  group->coordinator = this;
  int live = 0;
  for (const auto& session : group->sessions) {
    if (session != nullptr) ++live;
  }
  group->outstanding.store(live);
  if (live == 0) {
    // Every member left the table before the grant arrived; reclaim the
    // whole charge without a fused pass.
    finish_group(group);
    return;
  }
  for (std::size_t i = 0; i < group->sessions.size(); ++i) {
    if (group->sessions[i] != nullptr) group->sessions[i]->batch_join(group, i);
  }
}

void BatchCoordinator::finish_group(const std::shared_ptr<BatchGroup>& group) {
  run_group(*group);
}

BatchCoordinator::BatchingStats BatchCoordinator::stats() const {
  BatchingStats s;
  s.groups = groups_.load();
  s.members = members_.load();
  return s;
}

BatchCoordinator::Trunk& BatchCoordinator::ensure_trunk_locked(
    const BatchContribution& lead) {
  Trunk& trunk = trunks_[lead.batch_key];
  if (trunk.section == nullptr) {
    // The trunk is built with AdapterSpec::None regardless of the members'
    // (Prefix) adapters: a coalescible trunk is plain frozen blocks either
    // way, and forcing None guarantees it even if the seeding member's
    // config drifts. Frozen + shared parameter handles makes concurrent
    // forwards thread-safe.
    nn::AdapterSpec none;
    none.type = nn::AdapterType::None;
    util::Rng unused_rng(0);  // None injects nothing; the stream is untouched
    nn::SharedSource source = store_->source();
    const std::function<gpusim::Device&(int)> device_for =
        [this](int block) -> gpusim::Device& {
      return store_->device_for_block(block);
    };
    trunk.section = std::make_unique<nn::ServerSection>(
        lead.config.model, lead.config.split, none, source, device_for,
        unused_rng);
    trunk.entry = &trunk.section->entry_device();
    MENOS_CHECK_MSG(trunk.section->trainable_parameters().empty(),
                    "fused trunk must be fully frozen");
  }
  return trunk;
}

void BatchCoordinator::run_group(BatchGroup& group) {
  std::vector<std::size_t> joined;
  for (std::size_t i = 0; i < group.contributions.size(); ++i) {
    if (group.contributions[i].joined) joined.push_back(i);
  }
  std::vector<BatchOutcome> outcomes(group.contributions.size());
  if (!joined.empty()) {
    try {
      compute_group(group, joined, outcomes);
    } catch (const Error& e) {
      MENOS_LOG(Warn) << "fused batch of " << joined.size()
                      << " clients failed: " << e.what();
      for (std::size_t slot : joined) {
        outcomes[slot].ok = false;
        outcomes[slot].error = e.what();
      }
    }
  }
  // One atomic release for the whole group — members torn down mid-pass
  // already freed their own charge and are skipped. Releasing AFTER the
  // compute keeps the grant's memory covered for its whole lifetime, as in
  // the solo path.
  scheduler_->on_complete_group(group.grant.group);
  for (std::size_t slot : joined) {
    BatchOutcome& out = outcomes[slot];
    out.kind = group.grant.kind;
    out.iteration = group.contributions[slot].iteration;
    out.wait_seconds = group.contributions[slot].wait_seconds;
    group.sessions[slot]->batch_complete(std::move(out));
  }
}

void BatchCoordinator::compute_group(BatchGroup& group,
                                     const std::vector<std::size_t>& joined,
                                     std::vector<BatchOutcome>& outcomes) {
  using tensor::Index;
  using tensor::Tensor;
  const bool forward = group.grant.kind == sched::OpKind::Forward;
  const BatchContribution& lead = group.contributions[joined.front()];

  // The batch_key already guarantees stackable shapes; verify anyway —
  // a mismatch here would silently corrupt every member's rows.
  MENOS_CHECK_MSG(lead.activation.shape.size() == 3,
                  "fused batch expects [B, T, C] activations");
  const Index seq = lead.activation.shape[1];
  const Index dim = lead.activation.shape[2];
  Index rows = 0;
  for (std::size_t slot : joined) {
    const BatchContribution& c = group.contributions[slot];
    MENOS_CHECK_MSG(c.batch_key == lead.batch_key,
                    "fused batch mixes incompatible batch keys");
    MENOS_CHECK_MSG(c.activation.shape.size() == 3 &&
                        c.activation.shape[1] == seq &&
                        c.activation.shape[2] == dim,
                    "fused batch member activation shape mismatch");
    rows += c.activation.shape[0];
  }

  Trunk* trunk = nullptr;
  {
    util::MutexLock lock(mutex_);
    trunk = &ensure_trunk_locked(lead);
  }

  const auto pack_rows = [&](float* dst) {
    for (std::size_t slot : joined) {
      const std::vector<float>& src = group.contributions[slot].activation.data;
      std::memcpy(dst, src.data(), src.size() * sizeof(float));
      dst += src.size();
    }
  };
  const auto unpack_rows = [&](const Tensor& t) {
    const Index out_seq = t.dim(1);
    const Index out_dim = t.dim(2);
    const float* src = t.data();
    for (std::size_t slot : joined) {
      const Index batch = group.contributions[slot].activation.shape[0];
      const std::size_t n =
          static_cast<std::size_t>(batch * out_seq * out_dim);
      BatchOutcome& out = outcomes[slot];
      out.result.shape = {batch, out_seq, out_dim};
      out.result.data.assign(src, src + n);
      out.ok = true;
      src += n;
    }
  };

  util::Stopwatch compute_sw;
  if (forward) {
    // The fused Forward always runs in a non-gradient environment: the
    // coalescible modes either never materialize the graph (OnDemand) or
    // drop it before replying (ReleaseEarly) — the activations returned
    // are bit-identical either way, since tape bookkeeping never changes
    // values.
    tensor::NoGradGuard no_grad;
    Tensor x = Tensor::empty({rows, seq, dim}, *trunk->entry);
    pack_rows(x.data());
    Tensor y = trunk->section->forward(x);
    unpack_rows(y);
  } else {
    Tensor entry = Tensor::empty({rows, seq, dim}, *trunk->entry,
                                 /*requires_grad=*/true);
    pack_rows(entry.data());
    Tensor y = trunk->section->forward(entry);
    Tensor g;
    {
      tensor::NoGradGuard no_grad;
      g = Tensor::empty(y.shape(), y.device());
    }
    const std::size_t row_numel =
        static_cast<std::size_t>(y.dim(1) * y.dim(2));
    float* dst = g.data();
    for (std::size_t slot : joined) {
      const BatchContribution& c = group.contributions[slot];
      const std::size_t want =
          static_cast<std::size_t>(c.activation.shape[0]) * row_numel;
      MENOS_CHECK_MSG(c.grad.data.size() == want,
                      "gradient size does not match server activations");
      std::memcpy(dst, c.grad.data.data(), want * sizeof(float));
      dst += want;
    }
    tensor::backward(y, g);
    Tensor g_s = entry.grad();
    MENOS_CHECK_MSG(g_s.defined(), "no gradient reached the cut point");
    unpack_rows(g_s);
  }
  const double compute_s = compute_sw.elapsed_seconds();
  for (std::size_t slot : joined) {
    outcomes[slot].compute_seconds = compute_s;
  }
  groups_.fetch_add(1);
  members_.fetch_add(joined.size());
  if (config_.trace != nullptr) {
    config_.trace->record(util::TraceCategory::Session, "batch.fused",
                          group.grant.client_id, joined.size());
  }
}

}  // namespace menos::core
