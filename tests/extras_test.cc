// Tracing, LR schedules (including split/local equivalence under a
// schedule), base-model checkpoints, and the dropout op.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "core/checkpoint.h"
#include "core/client.h"
#include "core/server.h"
#include "net/transport.h"
#include "test_helpers.h"
#include "util/trace.h"

namespace menos {
namespace {

using menos::testing::host_device;

// ----- EventTrace -----

TEST(Trace, RecordsInOrderWithMonotonicTime) {
  util::EventTrace trace(16);
  trace.record(util::TraceCategory::Session, "a", 1, 10);
  trace.record(util::TraceCategory::Scheduler, "b", 2, 20);
  trace.record(util::TraceCategory::Memory, "c");
  const auto events = trace.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_LE(events[0].t, events[1].t);
  EXPECT_LE(events[1].t, events[2].t);
  EXPECT_EQ(events[0].client_id, 1);
  EXPECT_EQ(events[2].client_id, -1);
  EXPECT_EQ(events[1].value, 20u);
  EXPECT_EQ(trace.recorded(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, RingEvictsOldest) {
  util::EventTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    // += rather than "e" + to_string(i): the temporary-concat form trips
    // GCC 12's -Wrestrict false positive (PR 105651).
    std::string name = "e";
    name += std::to_string(i);
    trace.record(util::TraceCategory::Session, std::move(name));
  }
  const auto events = trace.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
  EXPECT_EQ(trace.dropped(), 6u);
  trace.clear();
  EXPECT_TRUE(trace.snapshot().empty());
  EXPECT_EQ(trace.recorded(), 0u);
}

TEST(Trace, JsonlFormat) {
  util::EventTrace trace(8);
  trace.record(util::TraceCategory::Scheduler, "grant", 3, 42);
  const std::string line = trace.to_jsonl();
  EXPECT_NE(line.find("\"cat\":\"sched\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"grant\""), std::string::npos);
  EXPECT_NE(line.find("\"client\":3"), std::string::npos);
  EXPECT_NE(line.find("\"value\":42"), std::string::npos);
}

TEST(Trace, ConcurrentWritersLoseNothing) {
  util::EventTrace trace(1u << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < 500; ++i) {
        trace.record(util::TraceCategory::Network, "msg", t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trace.recorded(), 4000u);
  EXPECT_EQ(trace.snapshot().size(), 4000u);
}

TEST(Trace, ServerEmitsSessionLifecycle) {
  util::EventTrace trace(1024);
  nn::TransformerConfig model = nn::TransformerConfig::tiny_opt();
  model.dim = 32;
  model.n_heads = 2;
  model.ffn_hidden = 64;
  model.n_layers = 3;
  gpusim::DeviceManager devices(1, 256u << 20);
  core::ServerConfig config;
  config.base_seed = 42;
  config.trace = &trace;
  core::Server server(config, devices, model);
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager cd(1, 256u << 20);
  core::ClientOptions options;
  options.finetune.model = model;
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.adapter_seed = 4;
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(), cd.gpu(0));
  client.connect();
  data::CharTokenizer tok;
  data::DataLoader loader(
      tok.encode(data::make_shakespeare_like(2000, 1).text), 2, 8, 2);
  client.train_step(loader.next());
  client.disconnect();
  server.stop();

  std::vector<std::string> names;
  for (const auto& e : trace.snapshot()) names.push_back(e.name);
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<long>(i);
    }
    return -1L;
  };
  EXPECT_GE(index_of("handshake"), 0);
  EXPECT_GT(index_of("forward.compute"), index_of("handshake"));
  EXPECT_GT(index_of("backward.compute"), index_of("forward.compute"));
  EXPECT_GT(index_of("disconnect"), index_of("backward.compute"));
  EXPECT_GE(index_of("profile.backward"), 0);
}

// ----- LR schedules -----

TEST(LrSchedule, ConstantIsOne) {
  const auto s = optim::LrSchedule::constant();
  EXPECT_FLOAT_EQ(s.factor_at(0), 1.0f);
  EXPECT_FLOAT_EQ(s.factor_at(1000000), 1.0f);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  const auto s = optim::LrSchedule::warmup_linear(10, 100);
  EXPECT_FLOAT_EQ(s.factor_at(0), 0.1f);
  EXPECT_FLOAT_EQ(s.factor_at(4), 0.5f);
  EXPECT_FLOAT_EQ(s.factor_at(9), 1.0f);
}

TEST(LrSchedule, LinearDecayHitsFloor) {
  const auto s = optim::LrSchedule::warmup_linear(0, 100, 0.2f);
  EXPECT_FLOAT_EQ(s.factor_at(0), 0.8f * 1.0f + 0.2f);  // progress 0 -> 1.0
  EXPECT_NEAR(s.factor_at(50), 0.6f, 1e-5f);
  EXPECT_FLOAT_EQ(s.factor_at(100), 0.2f);
  EXPECT_FLOAT_EQ(s.factor_at(500), 0.2f);
}

TEST(LrSchedule, CosineIsSmoothAndMonotone) {
  const auto s = optim::LrSchedule::warmup_cosine(5, 105, 0.0f);
  float prev = s.factor_at(5);
  EXPECT_NEAR(prev, 1.0f, 1e-5f);
  for (int step = 6; step < 105; ++step) {
    const float f = s.factor_at(step);
    EXPECT_LE(f, prev + 1e-6f);
    prev = f;
  }
  EXPECT_NEAR(s.factor_at(104), 0.0f, 1e-2f);
}

TEST(LrSchedule, InvalidConfigsThrow) {
  optim::LrSchedule s = optim::LrSchedule::warmup_linear(10, 5);
  EXPECT_THROW(s.factor_at(0), InvalidArgument);
  EXPECT_THROW(optim::LrSchedule::constant().factor_at(-1), InvalidArgument);
}

TEST(Optimizer, SetLrTakesEffect) {
  tensor::Tensor w = tensor::Tensor::full({1}, 1.0f, host_device());
  w.set_requires_grad(true);
  optim::SgdOptions o;
  o.lr = 1.0f;
  optim::Sgd opt({nn::Parameter{"w", w}}, o);
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  tensor::detail::accumulate_grad(w, tensor::Tensor::full({1}, 1.0f,
                                                          host_device()));
  opt.set_lr(0.25f);
  opt.step();
  EXPECT_FLOAT_EQ(w.to_vector()[0], 0.75f);
}

TEST(LrSchedule, SplitMatchesLocalUnderSchedule) {
  // The schedule rides in the Backward message, so split fine-tuning with
  // warmup+decay must still match the local trajectory exactly.
  nn::TransformerConfig model = nn::TransformerConfig::tiny_opt();
  model.dim = 32;
  model.n_heads = 2;
  model.ffn_hidden = 64;
  model.n_layers = 3;
  const auto schedule = optim::LrSchedule::warmup_cosine(2, 8, 0.1f);
  constexpr int kSteps = 5;
  const float base_lr = 5e-3f;

  std::vector<double> reference;
  {
    auto host = gpusim::make_host_device();
    nn::FreshInit init(42);
    nn::AdapterSpec adapter;
    adapter.rank = 4;
    adapter.alpha = 8.0f;
    nn::SplitSpec split;
    nn::LocalModel m(model, split, adapter, init, *host, 3);
    auto opt = optim::make_optimizer(optim::OptimizerKind::Adam,
                                     m.trainable_parameters(), base_lr);
    data::CharTokenizer tok;
    data::DataLoader loader(
        tok.encode(data::make_shakespeare_like(2000, 8).text), 2, 8, 6);
    for (int i = 0; i < kSteps; ++i) {
      data::Batch b = loader.next();
      tensor::Tensor loss = m.loss(b.inputs, b.targets, 2, 8);
      reference.push_back(loss.item());
      tensor::backward(loss);
      opt->set_lr(base_lr * schedule.factor_at(i));
      opt->step();
      opt->zero_grad();
    }
  }

  gpusim::DeviceManager devices(1, 256u << 20);
  core::ServerConfig config;
  config.base_seed = 42;
  core::Server server(config, devices, model);
  net::InprocAcceptor acceptor;
  server.start(acceptor);
  gpusim::DeviceManager cd(1, 256u << 20);
  core::ClientOptions options;
  options.finetune.model = model;
  options.finetune.adapter.rank = 4;
  options.finetune.adapter.alpha = 8.0f;
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.lr = base_lr;
  options.finetune.adapter_seed = 3;
  options.base_seed = 42;
  options.schedule = schedule;
  core::Client client(options, acceptor.connect(), cd.gpu(0));
  client.connect();
  data::CharTokenizer tok;
  data::DataLoader loader(
      tok.encode(data::make_shakespeare_like(2000, 8).text), 2, 8, 6);
  for (int i = 0; i < kSteps; ++i) {
    const auto stats = client.train_step(loader.next());
    EXPECT_NEAR(stats.loss, reference[static_cast<std::size_t>(i)], 2e-4)
        << "step " << i;
  }
  client.disconnect();
  server.stop();
}

// ----- base checkpoints -----

TEST(BaseCheckpoint, SaveLoadRoundTrip) {
  nn::TransformerConfig model = nn::TransformerConfig::tiny_opt();
  model.n_layers = 2;
  auto gpu = gpusim::make_sim_gpu("b", 64u << 20);
  core::ParameterStore store(model, *gpu, 42);
  const std::string path = ::testing::TempDir() + "/menos_base.bin";
  core::save_base_checkpoint(path, store);

  // A differently-seeded store loads the checkpoint and becomes identical.
  auto gpu2 = gpusim::make_sim_gpu("b2", 64u << 20);
  core::ParameterStore other(model, *gpu2, 999);
  EXPECT_NE(store.table().at("block0.attn.q.weight").to_vector(),
            other.table().at("block0.attn.q.weight").to_vector());
  const std::size_t loaded = core::load_base_checkpoint(path, other);
  EXPECT_EQ(loaded, other.table().size());
  EXPECT_EQ(store.table().at("block0.attn.q.weight").to_vector(),
            other.table().at("block0.attn.q.weight").to_vector());
  std::remove(path.c_str());
}

TEST(BaseCheckpoint, LiveStructuresSeeLoadedValues) {
  // §3.1's whole point: structures share the store's storage, so loading a
  // checkpoint retargets every client at once.
  nn::TransformerConfig model = nn::TransformerConfig::tiny_opt();
  model.n_layers = 2;
  auto gpu = gpusim::make_sim_gpu("b", 64u << 20);
  core::ParameterStore store(model, *gpu, 42);
  nn::SharedSource src = store.source();
  nn::AdapterSpec none;
  none.type = nn::AdapterType::None;
  util::Rng rng(1);
  nn::SplitSpec split;
  nn::ServerSection section(model, split, none, src, *gpu, rng);

  tensor::Tensor x = tensor::Tensor::empty({1, 4, model.dim}, *gpu);
  util::Rng xrng(5);
  xrng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.5f);
  tensor::NoGradGuard no_grad;
  const auto before = section.forward(x).to_vector();

  const std::string path = ::testing::TempDir() + "/menos_base2.bin";
  {
    auto gpu2 = gpusim::make_sim_gpu("b2", 64u << 20);
    core::ParameterStore donor(model, *gpu2, 7777);
    core::save_base_checkpoint(path, donor);
  }
  core::load_base_checkpoint(path, store);
  const auto after = section.forward(x).to_vector();
  EXPECT_NE(before, after);  // the live structure now runs the new base
  std::remove(path.c_str());
}

// ----- dropout -----

TEST(Dropout, ZeroProbabilityIsIdentity) {
  util::Rng rng(1);
  tensor::Tensor x = tensor::Tensor::full({8}, 2.0f, host_device());
  tensor::Tensor y = tensor::dropout(x, 0.0f, rng);
  EXPECT_EQ(y.to_vector(), x.to_vector());
  // Disabled dropout draws nothing: the stream continues where it began.
  util::Rng fresh(1);
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(Dropout, DropsApproximatelyPFraction) {
  util::Rng rng(2);
  tensor::Tensor x = tensor::Tensor::full({10000}, 1.0f, host_device());
  tensor::Tensor y = tensor::dropout(x, 0.3f, rng);
  int zeros = 0;
  double total = 0.0;
  for (float v : y.to_vector()) {
    if (v == 0.0f) ++zeros;
    total += v;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.3, 0.02);
  // Inverted scaling keeps the expectation.
  EXPECT_NEAR(total / 10000.0, 1.0, 0.03);
}

TEST(Dropout, BackwardUsesForwardMask) {
  util::Rng rng(3);
  tensor::Tensor x = tensor::Tensor::full({100}, 1.0f, host_device());
  x.set_requires_grad(true);
  tensor::Tensor y = tensor::dropout(x, 0.5f, rng);
  tensor::backward(tensor::sum(y));
  const auto out = y.to_vector();
  const auto grad = x.grad().to_vector();
  for (std::size_t i = 0; i < out.size(); ++i) {
    // d(sum)/dx_i equals the mask value (0 or 1/(1-p)).
    EXPECT_FLOAT_EQ(grad[i], out[i]);
  }
}

TEST(Dropout, InvalidProbabilityThrows) {
  util::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::zeros({4}, host_device());
  EXPECT_THROW(tensor::dropout(x, 1.0f, rng), InvalidArgument);
  EXPECT_THROW(tensor::dropout(x, -0.1f, rng), InvalidArgument);
}

}  // namespace
}  // namespace menos
