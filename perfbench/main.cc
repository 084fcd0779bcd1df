// menos_perfbench: closed-loop split fine-tuning against a live core::Server.
//
//   menos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--scale full|tiny]
//                   [--plant none|loss_mismatch|client_throw]
//
// Each workload runs 4 clients, each on its own thread, each waiting
// for its reply before sending the next request. --trace 0 prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics and writes a
// Chrome trace of the run. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See README.md for the metric table.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "net/link.h"
#include "net/transport.h"
#include "probes.h"
#include "spans.h"
#include "stats.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace menos::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr int kWarmupTrainRounds = 2;
constexpr int kEvalBatches = 4;       // each eval client cycles these
constexpr int kReplayRounds = 3;      // loss prefix checked against a replay
// setup_s is the median of 2 x kSetupRepeats setups, half before the loop
// and half after it, so a slow phase of a shared host skews only some.
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kBaseSeed = 42;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kMallocArenas = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----- workloads ---------------------------------------------------------

struct Workload {
  std::string name;
  nn::TransformerConfig model;
  std::int64_t batch = 4;
  std::int64_t seq = 32;
  int eval_clients = 0;      // the last `eval_clients` of kClients only evaluate
  bool tcp = false;          // TCP loopback instead of in-proc channels
  bool sleep_on_link = false;  // pay the uplink delay (else log it only)
  std::size_t gpu_capacity = std::size_t{1} << 30;
};

nn::TransformerConfig opt_model(tensor::Index dim, int layers, int heads,
                                tensor::Index ffn) {
  nn::TransformerConfig c;
  c.family = nn::ModelFamily::Opt;
  c.vocab_size = 96;
  c.dim = dim;
  c.n_layers = layers;
  c.n_heads = heads;
  c.ffn_hidden = ffn;
  c.max_seq = 128;
  return c;
}

/// Every parameter is a constant of the workload, GPU capacity included:
/// nothing is calibrated from what the program profiles at run time.
bool make_workload(const std::string& name, bool tiny, Workload* w) {
  w->name = name;
  if (name == "trunk_compute") {
    // Server trunk matmuls dominate; ample GPU memory, no link delay.
    w->model = tiny ? opt_model(32, 3, 4, 64) : opt_model(128, 6, 4, 512);
    w->batch = 4;
    w->seq = tiny ? 16 : 32;
    w->eval_clients = 1;
  } else if (name == "memory_pressure") {
    // Capacity = base model (205,056 B) + 4 x A+O (61,440 B) + one M_b
    // (826,624 B) + one M_f (45,056 B) for this model and batch: only one
    // backward fits at a time and forwards must backfill.
    w->model = opt_model(32, 6, 2, 64);
    w->batch = 2;
    w->seq = 16;
    w->eval_clients = 1;
    w->gpu_capacity = 1'322'496;
  } else if (name == "wan_train_eval") {
    // Real TCP loopback; each client's uplink pays the paper's WAN link.
    w->model = tiny ? opt_model(32, 3, 4, 64) : opt_model(64, 3, 4, 256);
    w->batch = 4;
    w->seq = tiny ? 16 : 64;
    w->eval_clients = 2;
    w->tcp = true;
    w->sleep_on_link = true;
  } else {
    return false;
  }
  return true;
}

/// The paper's WAN uplink: 33 Mbit/s, 5 ms latency, 1 ms jitter. In-proc
/// workloads draw and log the same delays with time_scale 0 (never slept).
net::LinkProfile uplink_profile(const Workload& w, std::uint64_t seed) {
  net::LinkProfile p;
  p.up.latency_s = 5e-3;
  p.up.bandwidth_bytes_per_s = 33e6 / 8.0;
  p.up.time_scale = w.sleep_on_link ? 1.0 : 0.0;
  p.down.time_scale = 0.0;
  p.jitter_s = 1e-3;
  p.seed = seed;
  return p;
}

// ----- per-client plan and record ----------------------------------------

struct ClientPlan {
  int index = 0;
  bool eval = false;
  std::uint64_t data_seed = 0;
  std::uint64_t adapter_seed = 0;
  std::uint64_t link_seed = 0;
};

core::ClientOptions client_options(const Workload& w, const ClientPlan& plan) {
  core::ClientOptions o;
  o.finetune.client_name = "bench-" + std::to_string(plan.index);
  o.finetune.model = w.model;
  o.finetune.batch_size = w.batch;
  o.finetune.seq_len = w.seq;
  o.finetune.lr = 5e-3f;
  o.finetune.adapter_seed = plan.adapter_seed;
  o.base_seed = kBaseSeed;
  return o;
}

data::DataLoader make_loader(const Workload& w, const ClientPlan& plan) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_wikitext_like(20000, plan.data_seed).text),
      w.batch, w.seq, plan.data_seed);
}

struct ClientRecord {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::vector<float> train_losses;           // every train round, in order
  std::vector<float> eval_expected;          // per eval batch, first value
  // Window samples (ops started inside the measured window).
  std::vector<double> train_ms, eval_ms;
  std::vector<double> traced_train_ms, untraced_train_ms;
  std::vector<core::StepStats> steps;
  double window_s = 0.0;  // window start -> this client's last op end
  std::uint64_t bytes_before = 0, bytes_after = 0;
};

bool same_float(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ----- the serving stack -------------------------------------------------

struct BenchClient {
  std::unique_ptr<gpusim::DeviceManager> devices;
  std::unique_ptr<core::Client> client;
  net::Connection* connection = nullptr;  // owned by `client`
  std::shared_ptr<net::LinkConditioner> link;
};

/// Server + acceptor + clients. Members are declared so that destruction
/// runs clients -> server -> acceptor -> devices.
class Stack {
 public:
  Stack(const Workload& w, bool tcp) : workload_(w), tcp_(tcp) {}
  ~Stack() { shutdown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Server construction (builds the shared ParameterStore) + start.
  void start_server() {
    devices_ = std::make_unique<gpusim::DeviceManager>(1, workload_.gpu_capacity);
    if (tcp_) {
      tcp_listener_ = net::tcp_listen(0);
      if (tcp_listener_ == nullptr) throw StateError("cannot bind loopback");
    } else {
      inproc_ = std::make_unique<net::InprocAcceptor>();
    }
    core::ServerConfig config;
    config.mode = core::ServingMode::MenosOnDemand;
    config.base_seed = kBaseSeed;
    server_ = std::make_unique<core::Server>(config, *devices_, workload_.model);
    if (tcp_) {
      server_->start(*tcp_listener_);
    } else {
      server_->start(*inproc_);
    }
  }

  /// Build client `plan.index` with its uplink and run connect() (Hello,
  /// server-side profiling, HelloAck). Throws on refusal.
  void connect(const ClientPlan& plan, bool conditioned) {
    BenchClient& bc = clients_[static_cast<std::size_t>(plan.index)];
    bc.devices = std::make_unique<gpusim::DeviceManager>(1, std::size_t{1} << 30);
    std::unique_ptr<net::Connection> conn =
        tcp_ ? net::tcp_connect("127.0.0.1", tcp_listener_->port())
             : inproc_->connect();
    if (conn == nullptr) throw StateError("connection refused");
    if (conditioned) {
      bc.link = std::make_shared<net::LinkConditioner>(
          uplink_profile(workload_, plan.link_seed));
      conn = net::condition_connection(std::move(conn), bc.link,
                                       net::LinkDir::Up);
    }
    bc.connection = conn.get();
    bc.client = std::make_unique<core::Client>(
        client_options(workload_, plan), std::move(conn), bc.devices->gpu(0));
    bc.client->connect();
  }

  void disconnect(int index) {
    BenchClient& bc = clients_[static_cast<std::size_t>(index)];
    if (bc.client == nullptr) return;
    try {
      bc.client->disconnect();
    } catch (const std::exception&) {
      // A client whose link already failed has nothing to say Bye on.
    }
    bc.client.reset();
    bc.connection = nullptr;
  }

  void shutdown() {
    for (int i = 0; i < kClients; ++i) disconnect(i);
    if (server_ != nullptr) server_->stop();
    server_.reset();
  }

  BenchClient& client(int i) { return clients_[static_cast<std::size_t>(i)]; }
  core::Server& server() { return *server_; }
  gpusim::Device& gpu() { return devices_->gpu(0); }

 private:
  Workload workload_;
  bool tcp_;
  std::unique_ptr<gpusim::DeviceManager> devices_;
  std::unique_ptr<net::InprocAcceptor> inproc_;
  std::unique_ptr<net::TcpListener> tcp_listener_;
  std::unique_ptr<core::Server> server_;
  BenchClient clients_[kClients];
};

// ----- options and results -----------------------------------------------

enum class Plant { None, LossMismatch, ClientThrow };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  Plant plant = Plant::None;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// ----- the run -----------------------------------------------------------

class Runner {
 public:
  Runner(const Workload& w, const Options& o) : w_(w), o_(o) {
    util::Rng root(o.seed);
    for (int i = 0; i < kClients; ++i) {
      ClientPlan p;
      p.index = i;
      p.eval = i >= kClients - w.eval_clients;
      p.data_seed = root.next_u64();
      p.adapter_seed = root.next_u64();
      p.link_seed = root.next_u64();
      plans_.push_back(p);
    }
    records_.resize(kClients);
    if (o.trace) {
      spans_ = std::make_unique<SpanRecorder>();
      spans_->name_lane(0, "setup / replay");
      for (const ClientPlan& p : plans_) {
        spans_->name_lane(p.index + 1, "client " + std::to_string(p.index) +
                                           (p.eval ? " (eval)" : " (train)"));
      }
      spans_->name_lane(kProbeLane, "layer probes");
    }
  }

  int run();

 private:
  double setup_once(Stack& stack);
  void closed_loop(Stack& stack);
  void drive(Stack& stack, const ClientPlan& plan, ClientRecord& rec,
             std::latch& ready, std::latch& go);
  void replay();
  void fail(ClientRecord& rec, const std::string& what) {
    ++rec.failed;
    if (rec.error.empty()) rec.error = what;
  }

  Workload w_;
  Options o_;
  std::vector<ClientPlan> plans_;
  std::vector<ClientRecord> records_;
  std::unique_ptr<SpanRecorder> spans_;
  Clock::time_point deadline_{};
  Clock::time_point window_start_{};
  std::uint64_t replay_attempted_ = 0;
  std::uint64_t replay_failed_ = 0;
  std::vector<Check> checks_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::map<std::string, std::string> env_;
};

/// Server construction through every client's connect(). Clients connect
/// one after another: server-side profiling reads the device's global peak,
/// so handshakes that overlap measure each other's allocations.
double Runner::setup_once(Stack& stack) {
  ScopedSpan setup(spans_.get(), "setup", 0, -1);
  const auto t0 = Clock::now();
  stack.start_server();
  for (const ClientPlan& plan : plans_) {
    ClientRecord& rec = records_[static_cast<std::size_t>(plan.index)];
    ScopedSpan span(spans_.get(), "client.connect", plan.index + 1, -1,
                    setup.id());
    ++rec.attempted;
    try {
      stack.connect(plan, /*conditioned=*/true);
    } catch (const std::exception& e) {
      fail(rec, std::string("connect: ") + e.what());
      stack.disconnect(plan.index);
    }
  }
  return seconds_since(t0);
}

void Runner::drive(Stack& stack, const ClientPlan& plan, ClientRecord& rec,
                   std::latch& ready, std::latch& go) {
  core::Client* client = stack.client(plan.index).client.get();
  data::DataLoader loader = make_loader(w_, plan);
  std::vector<data::Batch> eval_batches;
  if (plan.eval) {
    for (int i = 0; i < kEvalBatches; ++i) eval_batches.push_back(loader.next());
  }
  const int lane = plan.index + 1;
  bool alive = client != nullptr;
  std::int64_t op = 0;

  // One operation; a thrown error is counted and ends this client's loop.
  auto step = [&](bool in_window) {
    const bool traced = spans_ != nullptr && op % 2 == 1;
    SpanRecorder* rec_spans = traced ? spans_.get() : nullptr;
    ++rec.attempted;
    try {
      if (plan.eval) {
        const auto& batch = eval_batches[static_cast<std::size_t>(op % kEvalBatches)];
        ScopedSpan span(rec_spans, "client.evaluate", lane, op);
        const auto t0 = Clock::now();
        const double loss = client->evaluate(batch);
        const double ms = seconds_since(t0) * 1e3;
        span.arg("loss", loss);
        const auto slot = static_cast<std::size_t>(op % kEvalBatches);
        if (rec.eval_expected.size() <= slot) {
          rec.eval_expected.push_back(static_cast<float>(loss));
        }
        // The base model is frozen and this client never steps its
        // adapter: each batch must score the same loss every time.
        if (!same_float(static_cast<float>(loss), rec.eval_expected[slot])) {
          fail(rec, "eval loss changed between rounds");
        }
        if (in_window) rec.eval_ms.push_back(ms);
      } else {
        data::Batch batch = loader.next();
        if (o_.plant == Plant::ClientThrow && plan.index == 0 &&
            op == kWarmupTrainRounds + 1) {
          batch.batch_size += 1;  // geometry the session was not profiled for
        }
        ScopedSpan span(rec_spans, "client.train_step", lane, op);
        const auto t0 = Clock::now();
        const core::StepStats s = client->train_step(batch);
        const double ms = seconds_since(t0) * 1e3;
        span.arg("loss", s.loss);
        span.arg("client_compute_ms", s.client_compute_s * 1e3);
        span.arg("comm_ms", s.comm_s * 1e3);
        span.arg("server_compute_ms", s.server_compute_s * 1e3);
        span.arg("server_wait_ms", s.server_wait_s * 1e3);
        rec.train_losses.push_back(static_cast<float>(s.loss));
        if (!std::isfinite(s.loss)) fail(rec, "non-finite training loss");
        if (in_window) {
          rec.train_ms.push_back(ms);
          rec.steps.push_back(s);
          (traced ? rec.traced_train_ms : rec.untraced_train_ms).push_back(ms);
        }
      }
    } catch (const std::exception& e) {
      fail(rec, std::string(plan.eval ? "evaluate: " : "train_step: ") + e.what());
      alive = false;
    }
    ++op;
  };

  const int warmup = plan.eval ? kEvalBatches : kWarmupTrainRounds;
  for (int i = 0; i < warmup && alive; ++i) step(false);
  ready.count_down();
  go.wait();
  if (!alive) return;
  rec.bytes_before = stack.client(plan.index).connection->bytes_sent();
  while (alive && Clock::now() < deadline_) step(true);
  rec.window_s = seconds_since(window_start_);
  if (stack.client(plan.index).connection != nullptr && alive) {
    rec.bytes_after = stack.client(plan.index).connection->bytes_sent();
  }
}

void Runner::closed_loop(Stack& stack) {
  std::latch ready(kClients);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (const ClientPlan& plan : plans_) {
    threads.emplace_back([&, plan] {
      drive(stack, plan, records_[static_cast<std::size_t>(plan.index)], ready,
            go);
    });
  }
  ready.wait();

  // Snapshots at the window start; deltas over the window below.
  const sched::SchedulerStats sched0 = stack.server().scheduler().stats();
  stack.gpu().reset_peak();
  const gpusim::MemoryStats gpu0 = stack.gpu().stats();
  std::uint64_t reforwards0 = 0;
  for (const auto& s : stack.server().session_stats()) reforwards0 += s.reforwards;

  window_start_ = Clock::now();
  deadline_ = window_start_ +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o_.seconds));
  go.count_down();
  for (auto& t : threads) t.join();

  const sched::SchedulerStats sched1 = stack.server().scheduler().stats();
  const gpusim::MemoryStats gpu1 = stack.gpu().stats();
  std::uint64_t reforwards1 = 0;
  for (const auto& s : stack.server().session_stats()) reforwards1 += s.reforwards;

  // ---- end-to-end metrics ----
  std::vector<double> train_ms, eval_ms, traced_ms, untraced_ms;
  double tokens_per_s = 0.0;
  std::uint64_t train_rounds = 0, eval_rounds = 0, up_bytes = 0;
  std::vector<double> client_ms, comm_ms, server_ms, wait_ms, link_ms;
  double wait_sum = 0.0, total_sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const ClientRecord& r = records_[i];
    train_ms.insert(train_ms.end(), r.train_ms.begin(), r.train_ms.end());
    eval_ms.insert(eval_ms.end(), r.eval_ms.begin(), r.eval_ms.end());
    traced_ms.insert(traced_ms.end(), r.traced_train_ms.begin(), r.traced_train_ms.end());
    untraced_ms.insert(untraced_ms.end(), r.untraced_train_ms.begin(), r.untraced_train_ms.end());
    train_rounds += r.train_ms.size();
    eval_rounds += r.eval_ms.size();
    if (r.window_s > 0.0) {
      tokens_per_s += static_cast<double>(r.train_ms.size()) *
                      static_cast<double>(w_.batch * w_.seq) / r.window_s;
    }
    if (r.bytes_after > r.bytes_before) up_bytes += r.bytes_after - r.bytes_before;
    for (const core::StepStats& s : r.steps) {
      client_ms.push_back(s.client_compute_s * 1e3);
      comm_ms.push_back(s.comm_s * 1e3);
      server_ms.push_back(s.server_compute_s * 1e3);
      wait_ms.push_back(s.server_wait_s * 1e3);
      wait_sum += s.server_wait_s;
      total_sum += s.total_s;
    }
    const auto& link = stack.client(static_cast<int>(i)).link;
    if (link != nullptr) {
      for (double d : link->delays(net::LinkDir::Up)) link_ms.push_back(d * 1e3);
    }
  }
  const std::uint64_t rounds = train_rounds + eval_rounds;

  e2e_.push_back({"train_round_ms.p50", quantile(train_ms, 0.50), "ms"});
  e2e_.push_back({"train_round_ms.p95", quantile(train_ms, 0.95), "ms"});
  e2e_.push_back({"train_tokens_per_s", tokens_per_s, "tokens/s"});
  e2e_.push_back({"eval_round_ms.p50", quantile(eval_ms, 0.50), "ms"});
  e2e_.push_back({"eval_round_ms.p95", quantile(eval_ms, 0.95), "ms"});
  e2e_.push_back({"peak_gpu_mb", static_cast<double>(gpu1.peak) / kMiB, "MiB"});

  // ---- per-layer metrics ----
  const double grants = static_cast<double>(sched1.grants - sched0.grants);
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  layer_.push_back({"train_round.samples", static_cast<double>(train_rounds), "count"});
  layer_.push_back({"eval_round.samples", static_cast<double>(eval_rounds), "count"});
  layer_.push_back({"client.compute_ms.p50", quantile(client_ms, 0.50), "ms"});
  layer_.push_back({"client.comm_ms.p50", quantile(comm_ms, 0.50), "ms"});
  layer_.push_back({"client.comm_ms.p95", quantile(comm_ms, 0.95), "ms"});
  layer_.push_back({"server.compute_ms.p50", quantile(server_ms, 0.50), "ms"});
  layer_.push_back({"server.compute_ms.p95", quantile(server_ms, 0.95), "ms"});
  layer_.push_back({"server.reforwards_per_round",
                    per(static_cast<double>(reforwards1 - reforwards0),
                        static_cast<double>(train_rounds)),
                    "count"});
  layer_.push_back({"sched.wait_ms.p50", quantile(wait_ms, 0.50), "ms"});
  layer_.push_back({"sched.wait_ms.p95", quantile(wait_ms, 0.95), "ms"});
  layer_.push_back({"sched.grants", grants, "count"});
  layer_.push_back({"sched.backfill_share",
                    per(static_cast<double>(sched1.backfill_grants -
                                            sched0.backfill_grants),
                        grants),
                    "ratio"});
  const double blocked_per_grant =
      per(static_cast<double>(sched1.blocked_cycles - sched0.blocked_cycles),
          grants);
  layer_.push_back({"sched.blocked_passes_per_grant", blocked_per_grant, "ratio"});
  layer_.push_back({"gpu.allocs_per_round",
                    per(static_cast<double>(gpu1.lifetime_allocs - gpu0.lifetime_allocs),
                        static_cast<double>(rounds)),
                    "count"});
  layer_.push_back({"gpu.alloc_bytes_per_round",
                    per(static_cast<double>(gpu1.lifetime_bytes - gpu0.lifetime_bytes),
                        static_cast<double>(rounds)),
                    "bytes"});
  layer_.push_back({"gpu.peak_share",
                    per(static_cast<double>(gpu1.peak),
                        static_cast<double>(gpu1.capacity)),
                    "ratio"});
  layer_.push_back({"net.up_bytes_per_round",
                    per(static_cast<double>(up_bytes), static_cast<double>(rounds)),
                    "bytes"});
  layer_.push_back({"net.link_delay_ms.p50", quantile(link_ms, 0.50), "ms"});
  if (o_.trace) {
    layer_.push_back({"trace.overhead_ms",
                      quantile(traced_ms, 0.5) - quantile(untraced_ms, 0.5), "ms"});
  }

  // ---- workload self-checks ----
  if (w_.name == "memory_pressure") {
    checks_.push_back({"blocked_passes_per_grant > 0", blocked_per_grant > 0.0,
                       fmt(blocked_per_grant)});
  }
  if (w_.name == "trunk_compute") {
    const double share = per(wait_sum, total_sum);
    checks_.push_back({"scheduler wait < 1% of round", share < 0.01, fmt(share)});
  }
  if (w_.name == "wan_train_eval") {
    bool logged = true;
    for (int i = 0; i < kClients; ++i) {
      const auto& link = stack.client(i).link;
      logged = logged && link != nullptr && !link->delays(net::LinkDir::Up).empty();
    }
    checks_.push_back({"link delays logged on every client", logged, ""});
  }
  checks_.push_back({"train and eval rounds completed",
                     train_rounds > 0 && eval_rounds > 0,
                     std::to_string(train_rounds) + " train, " +
                         std::to_string(eval_rounds) + " eval"});
}

/// Correctness: every training client replayed alone against a fresh
/// server (in-proc, no link) must reproduce its first kReplayRounds losses
/// float for float; every eval client must reproduce its eval losses.
void Runner::replay() {
  ScopedSpan span(spans_.get(), "replay", 0, -1);
  Stack stack(w_, /*tcp=*/false);
  stack.start_server();
  std::uint64_t mismatches = 0;
  for (const ClientPlan& plan : plans_) {
    ClientRecord& rec = records_[static_cast<std::size_t>(plan.index)];
    ++replay_attempted_;
    try {
      stack.connect(plan, /*conditioned=*/false);
      core::Client& client = *stack.client(plan.index).client;
      data::DataLoader loader = make_loader(w_, plan);
      if (plan.eval) {
        for (std::size_t i = 0; i < rec.eval_expected.size(); ++i) {
          ++replay_attempted_;
          const auto loss = static_cast<float>(client.evaluate(loader.next()));
          if (!same_float(loss, rec.eval_expected[i])) ++mismatches;
        }
      } else {
        std::vector<float> expect(rec.train_losses.begin(),
                                  rec.train_losses.begin() +
                                      std::min<std::size_t>(kReplayRounds,
                                                            rec.train_losses.size()));
        if (o_.plant == Plant::LossMismatch && plan.index == 0 && !expect.empty()) {
          expect[0] = std::nextafter(expect[0], 1e30f);
        }
        for (float want : expect) {
          ++replay_attempted_;
          const auto got = static_cast<float>(client.train_step(loader.next()).loss);
          if (!same_float(got, want)) ++mismatches;
        }
      }
    } catch (const std::exception& e) {
      ++replay_failed_;
      if (rec.error.empty()) rec.error = std::string("replay: ") + e.what();
    }
    stack.disconnect(plan.index);
  }
  replay_failed_ += mismatches;
  checks_.push_back({"losses equal a solo replay, float for float",
                     mismatches == 0, std::to_string(mismatches) + " mismatched"});
}

int Runner::run() {
  // ---- setup, repeated; the last stack is the one measured ----
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack = std::make_unique<Stack>(w_, w_.tcp);
    setups.push_back(setup_once(*stack));
    if (i + 1 < kSetupRepeats) stack.reset();
  }
  int admitted = 0;
  for (int i = 0; i < kClients; ++i) {
    if (stack->client(i).client != nullptr) ++admitted;
  }
  checks_.push_back({"all 4 clients admitted", admitted == kClients,
                     std::to_string(admitted) + " of 4"});
  const double persistent_mb =
      static_cast<double>(stack->server().persistent_gpu_bytes()) / kMiB;

  closed_loop(*stack);
  stack.reset();
  replay();
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stack again(w_, w_.tcp);
    setups.push_back(setup_once(again));
  }
  const double rss_mb = vm_hwm_mb();

  e2e_.insert(e2e_.begin(), {"setup_s", median(setups), "s"});
  e2e_.push_back({"persistent_gpu_mb", persistent_mb, "MiB"});
  e2e_.push_back({"rss_peak_mb", rss_mb, "MiB"});

  // ---- layer probes (traced run only) ----
  if (o_.trace) {
    const auto& m = w_.model;
    const TrunkTiming trunk = probe_trunk(m, w_.batch, w_.seq, 7, o_.seed, spans_.get());
    layer_.push_back({"nn.trunk_fwd_ms", trunk.fwd_ms, "ms"});
    layer_.push_back({"nn.trunk_bwd_ms", trunk.bwd_ms, "ms"});
    // The trunk's largest GEMM: the MLP up-projection [B*T, dim] x [dim, ffn].
    const MmTiming mm = probe_mm(w_.batch * w_.seq, m.dim, m.ffn_hidden, 15,
                                 o_.seed, spans_.get());
    layer_.push_back({"tensor.mm_gflops", mm.gflops, "GFLOP/s"});
    layer_.push_back({"tensor.mm_vs_ref", mm.vs_ref, "ratio"});
    const CodecTiming codec =
        probe_codec(w_.batch, w_.seq, m.dim, 101, o_.seed, spans_.get());
    layer_.push_back({"net.encode_us", codec.encode_us, "us"});
    layer_.push_back({"net.decode_us", codec.decode_us, "us"});
  }

  // ---- verdict ----
  std::uint64_t attempted = replay_attempted_, failed = replay_failed_;
  for (const auto& rec : records_) {
    attempted += rec.attempted;
    failed += rec.failed;
  }
  bool checks_ok = true;
  for (const auto& c : checks_) checks_ok = checks_ok && c.ok;
  const bool correct = checks_ok && failed == 0;

  // ---- environment ----
  const char* threads_env = std::getenv("MENOS_THREADS");
  const char* commit = std::getenv("MENOS_BENCH_COMMIT");
  env_["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  env_["compiler"] = __VERSION__;
#else
  env_["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  env_["build_type"] = MENOS_BENCH_BUILD_TYPE;
  env_["vector_arch"] = tensor::kernels::vector_arch();
  env_["micro_tile"] = std::to_string(tensor::kernels::micro_tile_rows()) + "x" +
                       std::to_string(tensor::kernels::micro_tile_cols());
  env_["executor_threads"] = std::to_string(core::Executor::resolve_width(0));
  env_["pool_threads"] = std::to_string(util::ThreadPool::instance().num_threads());
  env_["MENOS_THREADS"] = threads_env != nullptr ? threads_env : "";
  env_["malloc_arenas"] = std::to_string(kMallocArenas);
  env_["workload"] = w_.name;
  env_["seed"] = std::to_string(o_.seed);
  env_["seconds"] = fmt(o_.seconds);
  env_["commit"] = commit != nullptr ? commit : "unknown";

  // ---- report ----
  std::printf("workload %s  seed %llu  %.1f s  trace %d\n", w_.name.c_str(),
              static_cast<unsigned long long>(o_.seed), o_.seconds,
              o_.trace ? 1 : 0);
  for (const auto& [k, v] : env_) std::printf("  env  %-18s %s\n", k.c_str(), v.c_str());
  for (const auto& m : e2e_) {
    std::printf("  e2e  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : layer_) {
    std::printf("  layer %-31s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& c : checks_) {
    std::printf("  check %-44s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  for (int i = 0; i < kClients; ++i) {
    if (!records_[static_cast<std::size_t>(i)].error.empty()) {
      std::printf("  client %d error: %s\n", i,
                  records_[static_cast<std::size_t>(i)].error.c_str());
    }
  }
  std::printf("  failed_ratio %.6f (%llu of %llu operations)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  // Full record (environment, every metric, checks) and the trace go to
  // the output directory; stdout's last line carries the contract metrics.
  ::mkdir(o_.out_dir.c_str(), 0755);
  const std::string stem = o_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(o_.seed) + "-trace" +
                           (o_.trace ? "1" : "0");
  auto metrics_json = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i > 0) s += ", ";
      s += json_str(ms[i].name) + ": {\"value\": " + fmt(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
    }
    return s + "}";
  };
  {
    std::ofstream out(stem + ".json");
    out << "{\"env\": {";
    bool first = true;
    for (const auto& [k, v] : env_) {
      out << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
      first = false;
    }
    out << "}, \"end_to_end\": " << metrics_json(e2e_)
        << ", \"per_layer\": " << metrics_json(layer_) << ", \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      out << (i > 0 ? ", " : "") << "{\"name\": " << json_str(checks_[i].name)
          << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
          << ", \"detail\": " << json_str(checks_[i].detail) << "}";
    }
    out << "], \"attempted\": " << attempted << ", \"failed\": " << failed << "}\n";
  }
  if (spans_ != nullptr) {
    const std::string path = stem + ".trace.json";
    if (spans_->write_chrome_trace(path)) {
      std::printf("  trace %s (%zu spans)\n", path.c_str(), spans_->size());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(o_.trace ? layer_ : e2e_).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: menos_perfbench --workload trunk_compute|memory_pressure|"
               "wan_train_eval --seed N --seconds S --trace 0|1\n"
               "       [--out-dir DIR] [--scale full|tiny] "
               "[--plant none|loss_mismatch|client_throw]\n");
  return 2;
}

}  // namespace
}  // namespace menos::perfbench

int main(int argc, char** argv) {
  using namespace menos::perfbench;
  // Cap glibc at kMallocArenas arenas (its default is 8 per core). With the
  // default, high-water RSS depended on which thread freed what and varied
  // by 10-17% between identical runs; with 4 arenas it varies by under 1%.
  mallopt(M_ARENA_MAX, kMallocArenas);
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else if (key == "--scale") {
      o.tiny = value == "tiny";
    } else if (key == "--plant") {
      if (value == "loss_mismatch") {
        o.plant = Plant::LossMismatch;
      } else if (value == "client_throw") {
        o.plant = Plant::ClientThrow;
      } else if (value != "none") {
        return usage();
      }
    } else {
      return usage();
    }
  }
  Workload w;
  if (argc % 2 != 1 || !make_workload(o.workload, o.tiny, &w) || o.seconds <= 0) {
    return usage();
  }
  // A hung serving stack must not hang the benchmark: SIGALRM ends the
  // process (nonzero exit, no result line) two minutes after the window.
  alarm(static_cast<unsigned>(o.seconds) + 120);
  try {
    return Runner(w, o).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "menos_perfbench: %s\n", e.what());
    return 1;
  }
}
