// Microbenchmark of the scheduler decision path (google-benchmark).
// §4.2 claim: "the scheduler takes less than 0.1 milliseconds to make a
// decision".
#include <benchmark/benchmark.h>

#include "sched/scheduler.h"

namespace {

using menos::sched::ClientDemands;
using menos::sched::Grant;
using menos::sched::OpKind;
using menos::sched::Policy;
using menos::sched::Scheduler;

/// One request->grant->complete decision cycle with a populated client set.
void BM_ScheduleDecision(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Scheduler s(1u << 30);
  int granted = 0;
  s.set_grant_callback([&](const Grant&) { ++granted; });
  for (int i = 0; i < clients; ++i) {
    s.register_client(i, ClientDemands{1 << 10, 1 << 12});
  }
  int next = 0;
  for (auto _ : state) {
    const int c = next;
    next = (next + 1) % clients;
    s.on_request(c, OpKind::Backward);
    s.on_complete(c);
  }
  benchmark::DoNotOptimize(granted);
  state.SetLabel("paper claim: < 0.1 ms per decision");
}
BENCHMARK(BM_ScheduleDecision)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// Decision latency with a deep waiting list (the backfilling scan), once
/// per scan flavour: plain FCFS order, the straggler-aware reordered scan
/// (every fourth waiter is a classified straggler), and coalescing (every
/// waiter shares one batch key, so the pass issues group grants).
constexpr Policy kWaitingListPolicies[] = {
    Policy::FcfsBackfill, Policy::StragglerAware, Policy::CoalescedBatch};

void BM_ScheduleWithWaitingList(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  const Policy policy = kWaitingListPolicies[state.range(1)];
  for (auto _ : state) {
    state.PauseTiming();
    Scheduler s(1u << 20, policy);
    int granted = 0;
    s.set_grant_callback([&](const Grant&) { ++granted; });
    // Client 0 consumes everything; the rest queue behind it.
    s.register_client(0, ClientDemands{1u << 20, 1u << 20});
    s.record_service_time(0, 0.1);
    for (int i = 1; i <= waiters; ++i) {
      s.register_client(i, ClientDemands{1 << 8, 1 << 10},
                        policy == Policy::CoalescedBatch ? 7u : 0u);
      s.record_service_time(i, i % 4 == 0 ? 10.0 : 0.1);
    }
    s.on_request(0, OpKind::Backward);
    for (int i = 1; i <= waiters; ++i) s.on_request(i, OpKind::Backward);
    state.ResumeTiming();
    // The measured decision: one release that must scan all waiters.
    s.on_complete(0);
    benchmark::DoNotOptimize(granted);
  }
  state.SetLabel(policy == Policy::FcfsBackfill     ? "FcfsBackfill"
                 : policy == Policy::StragglerAware ? "StragglerAware"
                                                    : "CoalescedBatch");
}
BENCHMARK(BM_ScheduleWithWaitingList)
    ->ArgsProduct({{4, 16, 64, 256}, {0, 1, 2}});

}  // namespace

BENCHMARK_MAIN();
