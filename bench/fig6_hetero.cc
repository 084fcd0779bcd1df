// Heterogeneous-population round time and fairness vs scheduling policy
// (docs/ARCHITECTURE.md "Straggler-aware scheduling").
//
// A mixed population — slow shallow-cut devices, fast deep-cut devices, a
// lossy link, an Int8-codec thin link — shares one GPU in the
// hold-across-iteration serving mode, where a slow client's think time
// holds its server allocation. The sweep drives the REAL sched::Scheduler
// through the discrete-event sim (virtual clock injected via
// Scheduler::set_clock, so StragglerAware classifies on simulated
// seconds) and reports, per policy:
//
//   * mean round time over the population (raw seconds);
//   * mean SLOWDOWN — each client's round time normalized by its own
//     solo-run round time, the heterogeneity-aware round-time metric (a
//     slow device is not "unfairly treated" for being slow);
//   * Jain's fairness index over those per-client slowdowns.
//
// Everything is deterministic (virtual time, no host clocks), so the
// floor check is exact run-to-run and only the JSON's environment block
// varies by host. Emits BENCH_hetero.json (or argv[1]).
// With `--check-floor <x>` the process exits 1 unless StragglerAware
// beats strict FCFS by >= x on mean slowdown at equal-or-better Jain
// fairness (epsilon 0.01) — the CI regression gate for the
// heterogeneous-client path.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/split_sim.h"

namespace {

using namespace menos;

struct ClientClass {
  const char* label;
  double mem_scale;      // cut depth: server share of memory + compute
  double compute_scale;  // client device speed (think-time multiplier)
  double net_scale;      // link multiplier on WAN transfer times
};

// The population: four stragglers with DIFFERENT speeds (their hold cycles
// precess against each other, so head-of-line collisions keep happening
// instead of phase-locking away), eight fast deep-cut clients, plus one
// fast client on a lossy link (~2.5x retransmission inflation) and one on
// a thin link with the Int8 activation codec (8x thinner link, ~1/4 the
// bytes). Stragglers cut shallow (mem_scale 1.0 — the full backward
// footprint lands on the server), fast clients cut deep (0.1).
std::vector<ClientClass> population() {
  std::vector<ClientClass> p;
  p.push_back({"slow-shallow", 1.0, 12.0, 1.0});
  p.push_back({"slow-shallow", 1.0, 10.0, 1.0});
  p.push_back({"slow-shallow", 1.0, 8.0, 1.0});
  p.push_back({"slow-shallow", 1.0, 7.0, 1.0});
  for (int i = 0; i < 8; ++i) p.push_back({"fast-deep", 0.1, 1.0, 1.0});
  p.push_back({"fast-lossy", 0.1, 1.0, 2.5});
  p.push_back({"fast-int8-thin", 0.1, 1.0, 2.0});
  return p;
}

sim::SimConfig base_config(const std::vector<ClientClass>& pop) {
  sim::SimConfig cfg;
  cfg.spec = sim::ModelSpec::opt_1_3b();
  // Good links are metro-WAN class; per-client multipliers degrade them.
  cfg.env.wan_bandwidth_bytes_per_s = 40.0e6;
  cfg.env.wan_latency_s = 0.01;
  // Hold-across-iteration mode: the allocation spans forward -> backward,
  // so a straggler's think time occupies the pool — the regime the
  // straggler-aware policy exists for.
  cfg.mode = core::ServingMode::MenosReleaseAfterBackward;
  cfg.num_clients = static_cast<int>(pop.size());
  cfg.iterations = 40;
  cfg.client_stagger_s = 0.05;
  for (const ClientClass& c : pop) {
    cfg.client_scale.push_back(c.mem_scale);
    cfg.client_compute_scale.push_back(c.compute_scale);
    cfg.client_net_scale.push_back(c.net_scale);
  }
  // Size the GPU so the schedulable pool fits ONE straggler hold plus two
  // fast holds, but never two stragglers at once: a straggler request at
  // the head of a strict-FCFS queue then pins every fast client behind it
  // for the other straggler's whole hold, while backfill/straggler-aware
  // let the small fast requests flow past it.
  const sim::ModelSpec& s = cfg.spec;
  const std::size_t base = s.server_param_bytes + s.context_bytes;
  const std::size_t state =
      (s.adapter_opt_bytes + s.context_bytes) * pop.size();
  const std::size_t pool = s.bwd_bytes + s.bwd_bytes / 5;  // 1.2x M_b
  cfg.env.gpu_capacity_bytes = base + state + pool;
  return cfg;
}

struct PolicyResult {
  const char* name = "";
  sim::SimResult sim;
  std::vector<double> round_s;     // per-client mean round time
  std::vector<double> slowdown;    // round_s / solo round_s
  double mean_round_s = 0.0;
  double mean_slowdown = 0.0;
  double jain_slowdown = 0.0;
};

PolicyResult run_policy(const char* name, sched::Policy policy,
                        const std::vector<ClientClass>& pop,
                        const std::vector<double>& solo_round_s) {
  sim::SimConfig cfg = base_config(pop);
  cfg.sched_policy = policy;
  PolicyResult r;
  r.name = name;
  r.sim = sim::run_split_finetune(cfg);
  if (!r.sim.feasible) {
    std::fprintf(stderr, "fig6_hetero: %s infeasible: %s\n", name,
                 r.sim.infeasible_reason.c_str());
    std::exit(1);
  }
  double sum_round = 0.0, sum_sd = 0.0, sum_sd_sq = 0.0;
  for (std::size_t i = 0; i < r.sim.clients.size(); ++i) {
    const double round = r.sim.clients[i].iteration_s.mean();
    const double sd = round / solo_round_s[i];
    r.round_s.push_back(round);
    r.slowdown.push_back(sd);
    sum_round += round;
    sum_sd += sd;
    sum_sd_sq += sd * sd;
  }
  const double n = static_cast<double>(r.round_s.size());
  r.mean_round_s = sum_round / n;
  r.mean_slowdown = sum_sd / n;
  r.jain_slowdown = sum_sd * sum_sd / (n * sum_sd_sq);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hetero.json";
  double floor = 0.0;
  if (!menos::bench::parse_gate_args(argc, argv, &out_path, &floor)) return 2;

  const std::vector<ClientClass> pop = population();

  // Solo calibration: each client's profile alone on the server — the
  // denominator of its slowdown. Policy is irrelevant without contention.
  std::vector<double> solo_round_s;
  for (const ClientClass& c : pop) {
    sim::SimConfig cfg = base_config(pop);
    cfg.num_clients = 1;
    cfg.client_scale = {c.mem_scale};
    cfg.client_compute_scale = {c.compute_scale};
    cfg.client_net_scale = {c.net_scale};
    const sim::SimResult solo = sim::run_split_finetune(cfg);
    if (!solo.feasible) {
      std::fprintf(stderr, "fig6_hetero: solo run infeasible: %s\n",
                   solo.infeasible_reason.c_str());
      return 1;
    }
    solo_round_s.push_back(solo.clients[0].iteration_s.mean());
  }

  std::vector<PolicyResult> results;
  results.push_back(
      run_policy("fcfs", sched::Policy::FcfsOnly, pop, solo_round_s));
  results.push_back(run_policy("fcfs_backfill", sched::Policy::FcfsBackfill,
                               pop, solo_round_s));
  results.push_back(run_policy("straggler_aware",
                               sched::Policy::StragglerAware, pop,
                               solo_round_s));

  for (const PolicyResult& r : results) {
    std::printf(
        "%-16s mean round %7.3f s   mean slowdown %6.3f   jain %5.3f   "
        "(blocked %llu, backfill %llu, reorders %llu, promotions %llu)\n",
        r.name, r.mean_round_s, r.mean_slowdown, r.jain_slowdown,
        static_cast<unsigned long long>(r.sim.sched_stats.blocked_cycles),
        static_cast<unsigned long long>(r.sim.sched_stats.backfill_grants),
        static_cast<unsigned long long>(r.sim.sched_stats.straggler_reorders),
        static_cast<unsigned long long>(
            r.sim.sched_stats.straggler_promotions));
  }
  const PolicyResult& fcfs = results[0];
  const PolicyResult& sa = results[2];
  const double speedup = fcfs.mean_slowdown / sa.mean_slowdown;
  const double raw_speedup = fcfs.mean_round_s / sa.mean_round_s;
  std::printf(
      "straggler_aware vs fcfs: %.3fx on mean slowdown (%.3fx raw), jain "
      "%+.4f\n",
      speedup, raw_speedup, sa.jain_slowdown - fcfs.jain_slowdown);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig6_hetero\",\n");
  menos::bench::write_environment(f);
  std::fprintf(f, "  \"population\": [\n");
  for (std::size_t i = 0; i < pop.size(); ++i) {
    std::fprintf(f,
                 "    {\"client\": %zu, \"class\": \"%s\", \"mem_scale\": "
                 "%.2f, \"compute_scale\": %.1f, \"net_scale\": %.2f, "
                 "\"solo_round_s\": %.4f}%s\n",
                 i, pop[i].label, pop[i].mem_scale, pop[i].compute_scale,
                 pop[i].net_scale, solo_round_s[i],
                 i + 1 < pop.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"policies\": [\n");
  for (std::size_t p = 0; p < results.size(); ++p) {
    const PolicyResult& r = results[p];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"mean_round_s\": %.4f, "
                 "\"mean_slowdown\": %.4f, \"jain_slowdown\": %.4f,\n",
                 r.name, r.mean_round_s, r.mean_slowdown, r.jain_slowdown);
    std::fprintf(f, "     \"per_client_round_s\": [");
    for (std::size_t i = 0; i < r.round_s.size(); ++i) {
      std::fprintf(f, "%.4f%s", r.round_s[i],
                   i + 1 < r.round_s.size() ? ", " : "");
    }
    std::fprintf(f, "],\n     \"per_client_slowdown\": [");
    for (std::size_t i = 0; i < r.slowdown.size(); ++i) {
      std::fprintf(f, "%.4f%s", r.slowdown[i],
                   i + 1 < r.slowdown.size() ? ", " : "");
    }
    std::fprintf(
        f,
        "],\n     \"blocked_cycles\": %llu, \"backfill_grants\": %llu, "
        "\"straggler_reorders\": %llu, \"straggler_promotions\": %llu}%s\n",
        static_cast<unsigned long long>(r.sim.sched_stats.blocked_cycles),
        static_cast<unsigned long long>(r.sim.sched_stats.backfill_grants),
        static_cast<unsigned long long>(r.sim.sched_stats.straggler_reorders),
        static_cast<unsigned long long>(r.sim.sched_stats.straggler_promotions),
        p + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_mean_slowdown\": %.4f,\n", speedup);
  std::fprintf(f, "  \"speedup_mean_round\": %.4f\n}\n", raw_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (floor > 0.0) {
    if (speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: straggler_aware speedup %.3fx on mean slowdown is "
                   "below the floor %.2fx\n",
                   speedup, floor);
      return 1;
    }
    if (sa.jain_slowdown < fcfs.jain_slowdown - 0.01) {
      std::fprintf(stderr,
                   "FAIL: straggler_aware jain %.4f is worse than fcfs %.4f "
                   "beyond epsilon 0.01\n",
                   sa.jain_slowdown, fcfs.jain_slowdown);
      return 1;
    }
    std::printf("floor check passed: %.3fx >= %.2fx, jain %.4f vs %.4f\n",
                speedup, floor, sa.jain_slowdown, fcfs.jain_slowdown);
  }
  return 0;
}
