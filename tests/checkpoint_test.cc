// Adapter checkpointing and greedy generation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "core/checkpoint.h"
#include "core/client.h"
#include "core/parameter_store.h"
#include "core/server.h"
#include "net/transport.h"
#include "nn/transformer.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace menos::core {
namespace {

nn::TransformerConfig ckpt_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  c.n_layers = 3;
  c.max_seq = 32;
  return c;
}

nn::AdapterSpec ckpt_adapter() {
  nn::AdapterSpec a;
  a.rank = 4;
  a.alpha = 8.0f;
  a.target_lm_head = true;
  return a;
}

TEST(Checkpoint, RoundTripRestoresExactValues) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(1);
  nn::SplitSpec split;
  nn::LocalModel model(ckpt_model(), split, ckpt_adapter(), init, *host, 2);

  // Scribble on the adapters, snapshot, scribble again, restore.
  util::Rng rng(3);
  for (nn::Parameter& p : model.trainable_parameters()) {
    rng.fill_normal(p.value.data(), static_cast<std::size_t>(p.value.numel()),
                    0.5f);
  }
  std::vector<std::vector<float>> snapshot;
  for (const nn::Parameter& p : model.trainable_parameters()) {
    snapshot.push_back(p.value.to_vector());
  }
  const std::vector<std::uint8_t> blob = serialize_adapter(model);
  for (nn::Parameter& p : model.trainable_parameters()) {
    rng.fill_normal(p.value.data(), static_cast<std::size_t>(p.value.numel()),
                    0.5f);
  }
  const std::size_t loaded =
      deserialize_adapter(blob.data(), blob.size(), model);
  EXPECT_EQ(loaded, snapshot.size());
  std::size_t i = 0;
  for (const nn::Parameter& p : model.trainable_parameters()) {
    EXPECT_EQ(p.value.to_vector(), snapshot[i++]) << p.name;
  }
}

TEST(Checkpoint, OnlyTrainableParametersSerialized) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(1);
  nn::SplitSpec split;
  nn::LocalModel model(ckpt_model(), split, ckpt_adapter(), init, *host, 2);
  const std::vector<std::uint8_t> blob = serialize_adapter(model);
  // Blob must be around adapter size, nowhere near the base parameters.
  EXPECT_LT(blob.size(), model.trainable_parameter_bytes() * 2);
  EXPECT_LT(blob.size(), model.frozen_parameter_bytes() / 4);
}

TEST(Checkpoint, CorruptionDetected) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(1);
  nn::SplitSpec split;
  nn::LocalModel model(ckpt_model(), split, ckpt_adapter(), init, *host, 2);
  std::vector<std::uint8_t> blob = serialize_adapter(model);
  blob[blob.size() / 2] ^= 0x10;
  EXPECT_THROW(deserialize_adapter(blob.data(), blob.size(), model),
               ProtocolError);
  std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_THROW(deserialize_adapter(tiny.data(), tiny.size(), model),
               ProtocolError);
}

TEST(Checkpoint, StructureMismatchRejected) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(1);
  nn::SplitSpec split;
  nn::LocalModel model(ckpt_model(), split, ckpt_adapter(), init, *host, 2);
  const std::vector<std::uint8_t> blob = serialize_adapter(model);

  // A model with a different LoRA rank cannot absorb this checkpoint.
  nn::AdapterSpec other = ckpt_adapter();
  other.rank = 8;
  nn::FreshInit init2(1);
  nn::LocalModel mismatched(ckpt_model(), split, other, init2, *host, 2);
  EXPECT_THROW(deserialize_adapter(blob.data(), blob.size(), mismatched),
               InvalidArgument);
}

TEST(Checkpoint, FileRoundTrip) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(1);
  nn::SplitSpec split;
  nn::LocalModel model(ckpt_model(), split, ckpt_adapter(), init, *host, 2);
  util::Rng rng(9);
  for (nn::Parameter& p : model.trainable_parameters()) {
    rng.fill_normal(p.value.data(), static_cast<std::size_t>(p.value.numel()),
                    0.5f);
  }
  const std::string path = ::testing::TempDir() + "/menos_adapter.bin";
  save_adapter(path, model);
  std::vector<float> expected =
      model.trainable_parameters()[0].value.to_vector();
  for (nn::Parameter& p : model.trainable_parameters()) {
    std::memset(p.value.data(), 0, p.value.bytes());
  }
  const std::size_t loaded = load_adapter(path, model);
  EXPECT_GT(loaded, 0u);
  EXPECT_EQ(model.trainable_parameters()[0].value.to_vector(), expected);
  std::remove(path.c_str());
  EXPECT_THROW(load_adapter(path, model), InvalidArgument);
}

// ----- the shared base weights' packed GEMM panels -----
//
// The store seals its weights, so each one's B panels are packed once per
// orientation (forward mm, backward mm_nt) and reused by every round.

/// One forward + backward round of `section`: the input requires grad, so
/// every frozen weight runs both its forward and its dX product.
struct SectionRound {
  std::vector<float> out, dx;
};

SectionRound serve_round(nn::ServerSection& section, gpusim::Device& device,
                         std::uint64_t seed) {
  tensor::Tensor x =
      tensor::Tensor::empty({2, 8, ckpt_model().dim}, device, true);
  util::Rng rng(seed);
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.5f);
  tensor::Tensor y = section.forward(x);
  tensor::backward(tensor::sum(y));
  return {y.to_vector(), x.grad().to_vector()};
}

std::unique_ptr<nn::ServerSection> base_section(ParameterStore& store,
                                                gpusim::Device& device) {
  nn::SharedSource source = store.source();
  nn::AdapterSpec none;
  none.type = nn::AdapterType::None;
  util::Rng rng(1);
  return std::make_unique<nn::ServerSection>(ckpt_model(), nn::SplitSpec{},
                                             none, source, device, rng);
}

TEST(BasePanels, SteadyStateRoundsBuildNone) {
  auto gpu = gpusim::make_sim_gpu("steady", 64u << 20);
  ParameterStore store(ckpt_model(), *gpu, 42);
  auto section = base_section(store, *gpu);
  std::size_t weights = 0;  // 2-D frozen weights the section multiplies by
  for (const nn::Parameter& p : section->parameters()) {
    if (p.value.ndim() == 2) ++weights;
  }
  ASSERT_GT(weights, 0u);

  const std::size_t start = tensor::panel_builds();
  serve_round(*section, *gpu, 1);
  const std::size_t built = tensor::panel_builds() - start;
  EXPECT_EQ(built, 2 * weights);  // one per (weight, orientation)
  for (std::uint64_t round = 2; round < 8; ++round) {
    serve_round(*section, *gpu, round);
  }
  EXPECT_EQ(tensor::panel_builds() - start, built);
}

TEST(BasePanels, ConstReadsOfAStoreWeightKeepItsPanels) {
  auto gpu = gpusim::make_sim_gpu("reads", 64u << 20);
  ParameterStore store(ckpt_model(), *gpu, 42);
  auto section = base_section(store, *gpu);
  serve_round(*section, *gpu, 1);
  const std::size_t built = tensor::panel_builds();

  const tensor::Tensor& weight = store.table().at("block1.attn.q.weight");
  const float* panels = weight.packed_panels(false);
  ASSERT_NE(panels, nullptr);
  EXPECT_EQ(tensor::panel_builds(), built);  // already there: no rebuild
  EXPECT_EQ(weight.to_vector().size(),
            static_cast<std::size_t>(weight.numel()));
  EXPECT_NE(weight.data(), nullptr);
  EXPECT_EQ(weight.packed_panels(false), panels);
  serve_round(*section, *gpu, 2);
  EXPECT_EQ(tensor::panel_builds(), built);

  // A write through a mutable handle drops them; the next use repacks.
  tensor::Tensor writable = weight;
  writable.data();
  serve_round(*section, *gpu, 3);
  EXPECT_GT(tensor::panel_builds(), built);
}

// ----- end-to-end through the client -----

struct ClientRig {
  ClientRig() : devices(1, 512u << 20), client_devices(1, 512u << 20) {
    config.mode = ServingMode::MenosOnDemand;
    config.base_seed = 42;
    server = std::make_unique<Server>(config, devices, ckpt_model());
    server->start(acceptor);
  }
  ~ClientRig() { server->stop(); }

  std::unique_ptr<Client> make_client(std::uint64_t adapter_seed) {
    ClientOptions options;
    options.finetune.client_name = "ckpt";
    options.finetune.model = ckpt_model();
    options.finetune.adapter = ckpt_adapter();
    options.finetune.batch_size = 2;
    options.finetune.seq_len = 8;
    options.finetune.lr = 1e-2f;
    options.finetune.adapter_seed = adapter_seed;
    options.base_seed = 42;
    auto c = std::make_unique<Client>(options, acceptor.connect(),
                                      client_devices.gpu(0));
    c->connect();
    return c;
  }

  data::DataLoader make_loader(std::uint64_t seed) {
    data::CharTokenizer tok;
    return data::DataLoader(
        tok.encode(data::make_shakespeare_like(3000, 4).text), 2, 8, seed);
  }

  gpusim::DeviceManager devices;
  gpusim::DeviceManager client_devices;
  ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<Server> server;
};

TEST(ClientAdapter, ExportImportTransfersBehaviour) {
  ClientRig rig;
  auto loader = rig.make_loader(5);
  data::Batch eval_batch = loader.next();

  auto trained = rig.make_client(7);
  for (int i = 0; i < 20; ++i) trained->train_step(loader.next());
  const double trained_eval = trained->evaluate(eval_batch);
  const std::vector<std::uint8_t> blob = trained->export_adapter();
  trained->disconnect();

  auto fresh = rig.make_client(7);
  const double before = fresh->evaluate(eval_batch);
  fresh->import_adapter(blob.data(), blob.size());
  const double after = fresh->evaluate(eval_batch);
  EXPECT_NE(before, after);
  EXPECT_NEAR(after, trained_eval, 1e-6);
  fresh->disconnect();
}

TEST(BasePanels, ServedRoundsAfterTheFirstBuildNone) {
  ClientRig rig;
  auto loader = rig.make_loader(3);
  auto client = rig.make_client(7);
  client->train_step(loader.next());
  client->evaluate(loader.next());
  const std::size_t built = tensor::panel_builds();
  for (int i = 0; i < 5; ++i) client->train_step(loader.next());
  client->evaluate(loader.next());
  EXPECT_EQ(tensor::panel_builds(), built);
  client->disconnect();
}

TEST(ClientGenerate, ProducesValidTokensDeterministically) {
  ClientRig rig;
  auto client = rig.make_client(11);
  const std::vector<std::int32_t> prompt{1, 2, 3};
  auto a = client->generate(prompt, 10);
  auto b = client->generate(prompt, 10);
  ASSERT_EQ(a.size(), prompt.size() + 10);
  EXPECT_EQ(a, b);  // greedy decoding is deterministic
  for (std::int32_t id : a) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, ckpt_model().vocab_size);
  }
  // Prompt is preserved as the prefix.
  EXPECT_TRUE(std::equal(prompt.begin(), prompt.end(), a.begin()));
  client->disconnect();
}

TEST(ClientGenerate, MatchesLocalGeneration) {
  // Generation through the split stack must equal generation on a local
  // model built from the same seeds — same no-grad math, different plumbing.
  ClientRig rig;
  auto client = rig.make_client(13);
  const std::vector<std::int32_t> prompt{4, 9, 2, 7};
  auto remote = client->generate(prompt, 12);
  client->disconnect();

  auto host = gpusim::make_host_device();
  nn::FreshInit init(42);
  nn::SplitSpec split;
  nn::LocalModel local(ckpt_model(), split, ckpt_adapter(), init, *host, 13);
  auto local_out = nn::greedy_generate(local.input(), local.server(),
                                       local.output(), prompt, 12);
  EXPECT_EQ(remote, local_out);
}

TEST(ClientGenerate, WindowsLongPrompts) {
  ClientRig rig;
  auto client = rig.make_client(17);
  std::vector<std::int32_t> long_prompt(50, 3);  // longer than max_seq = 32
  auto out = client->generate(long_prompt, 4);
  EXPECT_EQ(out.size(), 54u);
  client->disconnect();
}

TEST(SampleGenerate, GreedyLimitMatchesArgmax) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(42);
  nn::SplitSpec split;
  nn::LocalModel local(ckpt_model(), split, ckpt_adapter(), init, *host, 13);
  const std::vector<std::int32_t> prompt{4, 9, 2};
  auto greedy = nn::greedy_generate(local.input(), local.server(),
                                    local.output(), prompt, 8);
  util::Rng rng(1);
  auto top1 = nn::sample_generate(local.input(), local.server(),
                                  local.output(), prompt, 8,
                                  /*temperature=*/1.0f, /*top_k=*/1, rng);
  EXPECT_EQ(greedy, top1);
  util::Rng rng2(2);
  auto cold = nn::sample_generate(local.input(), local.server(),
                                  local.output(), prompt, 8,
                                  /*temperature=*/0.0f, /*top_k=*/10, rng2);
  EXPECT_EQ(greedy, cold);
}

TEST(SampleGenerate, HighTemperatureDiversifiesDeterministically) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(42);
  nn::SplitSpec split;
  nn::LocalModel local(ckpt_model(), split, ckpt_adapter(), init, *host, 13);
  const std::vector<std::int32_t> prompt{1, 2, 3, 4};
  util::Rng rng_a(100), rng_b(200);
  auto a = nn::sample_generate(local.input(), local.server(), local.output(),
                               prompt, 16, 2.0f, 50, rng_a);
  auto b = nn::sample_generate(local.input(), local.server(), local.output(),
                               prompt, 16, 2.0f, 50, rng_b);
  EXPECT_NE(a, b);  // different streams diverge at high temperature
  for (auto id : a) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, ckpt_model().vocab_size);
  }
  // Same stream reproduces exactly.
  util::Rng rng_c(100);
  auto c = nn::sample_generate(local.input(), local.server(), local.output(),
                               prompt, 16, 2.0f, 50, rng_c);
  EXPECT_EQ(a, c);
}

TEST(SampleGenerate, RejectsDegenerateArguments) {
  auto host = gpusim::make_host_device();
  nn::FreshInit init(42);
  nn::SplitSpec split;
  nn::LocalModel local(ckpt_model(), split, ckpt_adapter(), init, *host, 13);
  util::Rng rng(1);
  EXPECT_THROW(nn::sample_generate(local.input(), local.server(),
                                   local.output(), {}, 4, 1.0f, 5, rng),
               InvalidArgument);
  EXPECT_THROW(nn::sample_generate(local.input(), local.server(),
                                   local.output(), {1}, 4, -1.0f, 5, rng),
               InvalidArgument);
  EXPECT_THROW(nn::sample_generate(local.input(), local.server(),
                                   local.output(), {1}, 4, 1.0f, 0, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace menos::core
