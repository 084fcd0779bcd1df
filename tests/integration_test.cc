// Cross-module integration: split fine-tuning == local fine-tuning (the
// Fig 8/9 convergence claim), multi-client serving under capacity pressure,
// and the full stack over real TCP.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "core/client.h"
#include "core/server.h"
#include "net/transport.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"

namespace menos {
namespace {

nn::TransformerConfig itest_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  c.max_seq = 32;
  return c;
}

net::FinetuneConfig itest_finetune(const std::string& name,
                                   std::uint64_t adapter_seed) {
  net::FinetuneConfig ft;
  ft.client_name = name;
  ft.model = itest_model();
  ft.adapter.rank = 4;
  ft.adapter.alpha = 8.0f;
  ft.optimizer = optim::OptimizerKind::Adam;
  ft.lr = 3e-3f;
  ft.batch_size = 2;
  ft.seq_len = 8;
  ft.adapter_seed = adapter_seed;
  return ft;
}

data::DataLoader itest_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  auto tokens = tok.encode(data::make_shakespeare_like(4000, 17).text);
  return data::DataLoader(std::move(tokens), 2, 8, seed);
}

/// Local (single-device) fine-tuning reference with the identical
/// parameters, adapters, optimizer, and data order.
std::vector<double> local_reference_losses(int steps, std::uint64_t base_seed,
                                           std::uint64_t adapter_seed,
                                           std::uint64_t data_seed) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(base_seed);
  nn::AdapterSpec adapter;
  adapter.rank = 4;
  adapter.alpha = 8.0f;
  nn::SplitSpec split;
  nn::LocalModel model(itest_model(), split, adapter, init, *host,
                       adapter_seed);
  auto optimizer = optim::make_optimizer(optim::OptimizerKind::Adam,
                                         model.trainable_parameters(), 3e-3f);
  auto loader = itest_loader(data_seed);
  std::vector<double> losses;
  for (int i = 0; i < steps; ++i) {
    data::Batch batch = loader.next();
    tensor::Tensor loss = model.loss(batch.inputs, batch.targets, 2, 8);
    losses.push_back(loss.item());
    tensor::backward(loss);
    optimizer->step();
    optimizer->zero_grad();
  }
  return losses;
}

class SplitEqualsLocal : public ::testing::TestWithParam<core::ServingMode> {};

TEST_P(SplitEqualsLocal, LossTrajectoriesMatch) {
  // "Mathematically, the fine-tuning results of Menos are identical to
  // single-device fine-tuning" (§5.2 model convergence) — for EVERY memory
  // policy, because none of them changes the math.
  constexpr int kSteps = 6;
  const std::uint64_t base_seed = 42, adapter_seed = 9, data_seed = 5;
  const std::vector<double> reference =
      local_reference_losses(kSteps, base_seed, adapter_seed, data_seed);

  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = GetParam();
  config.base_seed = base_seed;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  core::ClientOptions options;
  options.finetune = itest_finetune("eq", adapter_seed);
  options.base_seed = base_seed;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();

  auto loader = itest_loader(data_seed);
  for (int i = 0; i < kSteps; ++i) {
    data::Batch batch = loader.next();
    const core::StepStats stats = client.train_step(batch);
    EXPECT_NEAR(stats.loss, reference[static_cast<std::size_t>(i)], 2e-4)
        << "step " << i << " under "
        << core::serving_mode_name(GetParam());
  }
  client.disconnect();
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SplitEqualsLocal,
    ::testing::Values(core::ServingMode::MenosOnDemand,
                      core::ServingMode::MenosReleaseEarly,
                      core::ServingMode::MenosReleaseAfterBackward,
                      core::ServingMode::VanillaTaskSwap));

TEST(Convergence, FineTuningReducesPerplexity) {
  // Fig 8 smoke: split fine-tuning on a learnable corpus must cut the loss
  // substantially below its starting point.
  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  core::ClientOptions options;
  options.finetune = itest_finetune("conv", 31);
  options.finetune.lr = 1e-2f;
  // Extend LoRA to the client-side LM head (costs the server nothing) so a
  // randomly-initialized base — our stand-in for a pretrained checkpoint —
  // has enough adaptation capacity to show convergence.
  options.finetune.adapter.target_lm_head = true;
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();

  auto loader = itest_loader(77);
  data::Batch eval_batch = loader.next();
  const double initial = client.evaluate(eval_batch);
  for (int i = 0; i < 60; ++i) client.train_step(loader.next());
  const double final_loss = client.evaluate(eval_batch);
  EXPECT_LT(final_loss, initial * 0.8);
  client.disconnect();
  server.stop();
}

TEST(MultiClient, ConcurrentClientsUnderCapacityPressure) {
  // Several clients against a GPU too small to preserve everyone's
  // intermediate results at once: the scheduler must interleave them with
  // no OOM and no starvation.
  gpusim::DeviceManager devices(1, 24u << 20);  // tight
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  constexpr int kClients = 4;
  constexpr int kSteps = 4;
  std::vector<std::thread> threads;
  std::vector<double> final_losses(kClients, -1.0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      gpusim::DeviceManager client_devices(1, 512u << 20);
      core::ClientOptions options;
      // += rather than "c" + to_string(i): the temporary-concat form trips
      // GCC 12's -Wrestrict false positive (PR 105651).
      std::string client_name = "c";
      client_name += std::to_string(i);
      options.finetune = itest_finetune(std::move(client_name),
                                        100 + static_cast<std::uint64_t>(i));
      options.base_seed = 42;
      core::Client client(options, acceptor.connect(),
                          client_devices.gpu(0));
      client.connect();
      auto loader = itest_loader(300 + static_cast<std::uint64_t>(i));
      double loss = 0.0;
      for (int s = 0; s < kSteps; ++s) {
        loss = client.train_step(loader.next()).loss;
        EXPECT_TRUE(std::isfinite(loss));
      }
      final_losses[static_cast<std::size_t>(i)] = loss;
      client.disconnect();
    });
  }
  for (auto& t : threads) t.join();
  for (double loss : final_losses) EXPECT_GT(loss, 0.0);

  // Physical device stayed within its capacity the whole time (SimGpu
  // would have thrown otherwise) and the scheduler did real interleaving.
  EXPECT_GE(server.scheduler().stats().grants,
            static_cast<std::uint64_t>(kClients * kSteps * 2));
  server.stop();
}

TEST(MultiClient, IndependentDataYieldsIndependentAdapters) {
  // Two clients fine-tune different corpora over the SAME shared base; each
  // must fit its own data better than the other's.
  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  data::CharTokenizer tok;
  auto shake = tok.encode(data::make_shakespeare_like(4000, 1).text);
  auto wiki = tok.encode(data::make_wikitext_like(4000, 2).text);

  core::ClientOptions o1;
  o1.finetune = itest_finetune("shake", 41);
  o1.finetune.lr = 1e-2f;
  o1.base_seed = 42;
  core::Client c1(o1, acceptor.connect(), client_devices.gpu(0));
  c1.connect();
  core::ClientOptions o2;
  o2.finetune = itest_finetune("wiki", 42);
  o2.finetune.lr = 1e-2f;
  o2.base_seed = 42;
  core::Client c2(o2, acceptor.connect(), client_devices.gpu(0));
  c2.connect();

  data::DataLoader shake_loader(shake, 2, 8, 10);
  data::DataLoader wiki_loader(wiki, 2, 8, 11);
  data::Batch shake_eval = shake_loader.next();
  data::Batch wiki_eval = wiki_loader.next();
  for (int i = 0; i < 30; ++i) {
    c1.train_step(shake_loader.next());
    c2.train_step(wiki_loader.next());
  }
  EXPECT_LT(c1.evaluate(shake_eval), c1.evaluate(wiki_eval));
  EXPECT_LT(c2.evaluate(wiki_eval), c2.evaluate(shake_eval));
  c1.disconnect();
  c2.disconnect();
  server.stop();
}

TEST(GradAccumulation, MatchesLocalAccumulation) {
  // Split gradient accumulation over K micro-batches must equal local
  // fine-tuning that averages the K losses before stepping — deferred
  // server updates keep both sides of the split in lockstep.
  constexpr int kMicro = 3;
  constexpr int kSteps = 3;
  const std::uint64_t base_seed = 42, adapter_seed = 21, data_seed = 9;

  // Local reference.
  std::vector<double> reference;
  {
    auto host = gpusim::make_host_device();
    nn::FreshInit init(base_seed);
    nn::AdapterSpec adapter;
    adapter.rank = 4;
    adapter.alpha = 8.0f;
    nn::SplitSpec split;
    nn::LocalModel model(itest_model(), split, adapter, init, *host,
                         adapter_seed);
    auto optimizer = optim::make_optimizer(
        optim::OptimizerKind::Adam, model.trainable_parameters(), 3e-3f);
    auto loader = itest_loader(data_seed);
    for (int s = 0; s < kSteps; ++s) {
      double mean_loss = 0.0;
      for (int m = 0; m < kMicro; ++m) {
        data::Batch b = loader.next();
        tensor::Tensor loss = model.loss(b.inputs, b.targets, 2, 8);
        mean_loss += loss.item() / kMicro;
        tensor::backward(tensor::scale(loss, 1.0f / kMicro));
      }
      optimizer->step();
      optimizer->zero_grad();
      reference.push_back(mean_loss);
    }
  }

  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = base_seed;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  core::ClientOptions options;
  options.finetune = itest_finetune("accum", adapter_seed);
  options.base_seed = base_seed;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();

  auto loader = itest_loader(data_seed);
  for (int s = 0; s < kSteps; ++s) {
    std::vector<data::Batch> micro;
    for (int m = 0; m < kMicro; ++m) micro.push_back(loader.next());
    const core::StepStats stats = client.train_step_accumulated(micro);
    EXPECT_NEAR(stats.loss, reference[static_cast<std::size_t>(s)], 2e-4)
        << "accumulated step " << s;
  }
  client.disconnect();
  server.stop();
}

TEST(MultiClient, ChurnSurvivesJoinAndLeave) {
  // Clients joining and leaving while others keep training: sessions,
  // scheduler registrations, and per-client GPU state must all come and go
  // cleanly (a server-lifetime property no single-client test covers).
  gpusim::DeviceManager devices(1, 64u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);
  const std::size_t baseline = devices.gpu(0).allocated();

  gpusim::DeviceManager stable_devices(1, 512u << 20);
  core::ClientOptions stable_opts;
  stable_opts.finetune = itest_finetune("stable", 50);
  stable_opts.base_seed = 42;
  core::Client stable(stable_opts, acceptor.connect(),
                      stable_devices.gpu(0));
  stable.connect();
  auto stable_loader = itest_loader(51);

  for (int wave = 0; wave < 4; ++wave) {
    std::thread churner([&, wave] {
      gpusim::DeviceManager cd(1, 512u << 20);
      core::ClientOptions o;
      o.finetune = itest_finetune("churn" + std::to_string(wave),
                                  60 + static_cast<std::uint64_t>(wave));
      o.base_seed = 42;
      core::Client c(o, acceptor.connect(), cd.gpu(0));
      c.connect();
      auto loader = itest_loader(70 + static_cast<std::uint64_t>(wave));
      for (int s = 0; s < 2; ++s) {
        EXPECT_TRUE(std::isfinite(c.train_step(loader.next()).loss));
      }
      c.disconnect();
    });
    // The stable client keeps training right through the churn.
    for (int s = 0; s < 2; ++s) {
      EXPECT_TRUE(std::isfinite(stable.train_step(stable_loader.next()).loss));
    }
    churner.join();
  }
  stable.disconnect();

  // All transient per-client state drained from the GPU.
  for (int i = 0; i < 400 && devices.gpu(0).allocated() > baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(devices.gpu(0).allocated(), baseline);
  server.stop();
}

TEST(Adapters, BitFitTrainsOnlyBiasesEndToEnd) {
  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  core::ClientOptions options;
  options.finetune = itest_finetune("bitfit", 80);
  options.finetune.adapter.type = nn::AdapterType::BitFit;
  options.finetune.lr = 5e-3f;
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();

  auto loader = itest_loader(81);
  const double l0 = client.train_step(loader.next()).loss;
  double last = l0;
  for (int i = 0; i < 10; ++i) last = client.train_step(loader.next()).loss;
  EXPECT_TRUE(std::isfinite(last));
  // BitFit's trainable surface is tiny: the shared base on the server must
  // be untouched, so a second client with a fresh adapter starts from the
  // pristine base loss.
  client.disconnect();

  core::ClientOptions fresh_opts;
  fresh_opts.finetune = itest_finetune("fresh", 99);
  fresh_opts.base_seed = 42;
  core::Client fresh(fresh_opts, acceptor.connect(), client_devices.gpu(0));
  fresh.connect();
  auto loader2 = itest_loader(81);
  const double fresh_loss = fresh.train_step(loader2.next()).loss;
  EXPECT_NEAR(fresh_loss, l0, 0.2);  // same pristine starting point
  fresh.disconnect();
  server.stop();
}

TEST(Tcp, FullStackOverRealSockets) {
  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  auto listener = net::tcp_listen(0);
  ASSERT_NE(listener, nullptr);
  server.start(*listener);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  auto conn = net::tcp_connect("127.0.0.1", listener->port());
  ASSERT_NE(conn, nullptr);
  core::ClientOptions options;
  options.finetune = itest_finetune("tcp", 55);
  options.base_seed = 42;
  core::Client client(options, std::move(conn), client_devices.gpu(0));
  client.connect();
  auto loader = itest_loader(66);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(client.train_step(loader.next()).loss));
  }
  client.disconnect();
  server.stop();
}

TEST(Profiling, DemandsPredictActualPeak) {
  // §3.3: profiled M_f / M_b must upper-bound the memory the real
  // operations use (that is what prevents runtime OOM).
  gpusim::DeviceManager devices(1, 512u << 20);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, itest_model());
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 512u << 20);
  core::ClientOptions options;
  options.finetune = itest_finetune("prof", 77);
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();
  EXPECT_GT(client.server_forward_bytes(), 0u);
  EXPECT_GT(client.server_backward_bytes(), client.server_forward_bytes());

  // Peak during real iterations stays within persistent + M_b (+ slack for
  // the wire staging buffers).
  auto loader = itest_loader(88);
  const std::size_t before_peak_reset = devices.gpu(0).allocated();
  devices.gpu(0).reset_peak();
  for (int i = 0; i < 3; ++i) client.train_step(loader.next());
  const std::size_t peak_rise = devices.gpu(0).stats().peak;
  EXPECT_LE(peak_rise,
            before_peak_reset + client.server_backward_bytes() +
                client.server_backward_bytes() / 4);
  client.disconnect();
  server.stop();
}

TEST(HostFaults, SteadyTrainingStepsReusePages) {
  // A real GPU keeps the pages it frees, and so must the simulated one: in
  // steady training every tensor is a size some earlier step freed, so the
  // meter's idle list serves it without touching the host heap. A meter
  // that hands freed blocks back to the heap faults in ~8-10% of the pages
  // it allocates, every step, because the heap returns them to the kernel.
  // The verdict is a count, so it is the same on 1 core or many.
#if !defined(__linux__)
  GTEST_SKIP() << "ru_minflt is read on Linux only";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer runtime replaces the host heap this counts";
#else
  nn::TransformerConfig model;
  model.family = nn::ModelFamily::Opt;
  model.vocab_size = 96;
  model.dim = 128;
  model.n_layers = 6;
  model.n_heads = 4;
  model.ffn_hidden = 512;
  model.max_seq = 128;

  gpusim::DeviceManager devices(1, 1u << 30);
  core::ServerConfig config;
  config.mode = core::ServingMode::MenosOnDemand;
  config.base_seed = 42;
  core::Server server(config, devices, model);
  net::InprocAcceptor acceptor;
  server.start(acceptor);

  gpusim::DeviceManager client_devices(1, 1u << 30);
  core::ClientOptions options;
  options.finetune.client_name = "faults";
  options.finetune.model = model;
  options.finetune.batch_size = 4;
  options.finetune.seq_len = 32;
  options.finetune.lr = 5e-3f;
  options.finetune.adapter_seed = 7;
  options.base_seed = 42;
  core::Client client(options, acceptor.connect(), client_devices.gpu(0));
  client.connect();
  data::CharTokenizer tok;
  data::DataLoader loader(
      tok.encode(data::make_wikitext_like(20000, 5).text), 4, 32, 5);
  for (int i = 0; i < 3; ++i) client.train_step(loader.next());

  const auto minflt = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_minflt);
  };
  const double faults_before = minflt();
  const std::size_t bytes_before = devices.gpu(0).stats().lifetime_bytes;
  for (int i = 0; i < 20; ++i) client.train_step(loader.next());
  const double faults = minflt() - faults_before;
  const double pages =
      static_cast<double>(devices.gpu(0).stats().lifetime_bytes -
                          bytes_before) / 4096.0;
  client.disconnect();
  server.stop();
  ASSERT_GT(pages, 0.0);
  EXPECT_LT(faults, 0.01 * pages)
      << faults << " minor faults over 20 steps that allocated " << pages
      << " pages on the server GPU (" << 100.0 * faults / pages << "%)";
#endif
}

}  // namespace
}  // namespace menos
