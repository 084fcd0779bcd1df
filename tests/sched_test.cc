// Scheduler tests: Algorithm 2 semantics, fairness gates, backfilling,
// partition placement, and randomized invariant sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/scheduler.h"
#include "util/rng.h"

namespace menos::sched {
namespace {

/// Collects grants for assertions.
struct GrantLog {
  std::vector<Grant> grants;

  void attach(Scheduler& s) {
    s.set_grant_callback([this](const Grant& g) { grants.push_back(g); });
  }

  bool granted(int client) const {
    for (const Grant& g : grants) {
      if (g.client_id == client) return true;
    }
    return false;
  }
};

TEST(Scheduler, GrantsImmediatelyWhenMemoryFree) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 400});
  s.on_request(0, OpKind::Forward);
  ASSERT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(log.grants[0].client_id, 0);
  EXPECT_EQ(s.available(), 900u);
  EXPECT_EQ(s.allocated_to(0), 100u);
  s.on_complete(0);
  EXPECT_EQ(s.available(), 1000u);
}

TEST(Scheduler, BackwardUsesBackwardDemand) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 400});
  s.on_request(0, OpKind::Backward);
  EXPECT_EQ(s.allocated_to(0), 400u);
  s.on_complete(0);
}

TEST(Scheduler, QueuesWhenFullAndGrantsOnRelease) {
  Scheduler s(500);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});
  s.register_client(1, {400, 400});
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);
  EXPECT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(s.waiting_count(), 1u);
  s.on_complete(0);
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].client_id, 1);
  s.on_complete(1);
}

TEST(Scheduler, RegistrationRejectsImpossibleDemand) {
  Scheduler s(100);
  EXPECT_THROW(s.register_client(0, {50, 200}), menos::InvalidArgument);
}

TEST(Scheduler, DoubleRegistrationRejected) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 100});
  EXPECT_THROW(s.register_client(0, {1, 1}), menos::InvalidArgument);
}

TEST(Scheduler, RequestWhileHoldingRejected) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 100});
  s.on_request(0, OpKind::Forward);
  EXPECT_THROW(s.on_request(0, OpKind::Backward), menos::InvalidArgument);
  s.on_complete(0);
}

TEST(Scheduler, CompleteWithoutAllocationRejected) {
  Scheduler s(1000);
  s.register_client(0, {10, 10});
  EXPECT_THROW(s.on_complete(0), menos::InvalidArgument);
}

TEST(Scheduler, UnregisterWithLiveAllocationRejected) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {10, 10});
  s.on_request(0, OpKind::Forward);
  EXPECT_THROW(s.unregister_client(0), menos::StateError);
  s.on_complete(0);
  s.unregister_client(0);
}

TEST(Scheduler, UnregisterDropsWaitingRequest) {
  Scheduler s(100);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 100});
  s.register_client(1, {100, 100});
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);
  EXPECT_EQ(s.waiting_count(), 1u);
  s.unregister_client(1);
  EXPECT_EQ(s.waiting_count(), 0u);
  s.on_complete(0);
}

TEST(Scheduler, ForwardBackfillsPastBlockedBackwardHead) {
  // The key Menos claim (§5.2): "forward operations require far less GPU
  // memory, and our scheduling algorithm can always select and parallelize
  // them with the backward computations of other clients."
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 800});
  s.register_client(1, {100, 800});
  s.register_client(2, {100, 800});
  s.on_request(0, OpKind::Backward);  // takes 800
  s.on_request(1, OpKind::Backward);  // blocked head (needs 800 > 200)
  s.on_request(2, OpKind::Forward);   // 100 fits: backfill past client 1
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].client_id, 2);
  EXPECT_EQ(log.grants[1].kind, OpKind::Forward);
  EXPECT_GE(s.stats().backfill_grants, 1u);
  s.on_complete(0);
  s.on_complete(2);
  s.on_complete(1);
}

TEST(Scheduler, BackwardNeverOvertakesEarlierBackward) {
  // "the FCFS logic prevents long-waiting backward requests from being
  // consistently bypassed" — a later SMALLER backward must wait for an
  // earlier larger one.
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 900});
  s.register_client(1, {50, 900});
  s.register_client(2, {50, 300});
  s.on_request(0, OpKind::Backward);  // takes 900
  s.on_request(1, OpKind::Backward);  // waits (needs 900)
  s.on_request(2, OpKind::Backward);  // 300 would fit 100 free? no: only 100
  EXPECT_EQ(log.grants.size(), 1u);
  s.on_complete(0);  // frees 900: head (client 1) must be granted first
  ASSERT_GE(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].client_id, 1);
  // Client 2 (300) does NOT fit the remaining 100 and must wait even
  // though it is smaller than the granted head.
  EXPECT_EQ(log.grants.size(), 2u);
  s.on_complete(1);
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[2].client_id, 2);
  s.on_complete(2);
}

TEST(Scheduler, FcfsOnlyBlocksEverythingBehindHead) {
  Scheduler s(1000, Policy::FcfsOnly);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 800});
  s.register_client(1, {100, 800});
  s.register_client(2, {100, 800});
  s.on_request(0, OpKind::Backward);
  s.on_request(1, OpKind::Backward);
  s.on_request(2, OpKind::Forward);  // would fit, but strict FCFS blocks it
  EXPECT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(s.waiting_count(), 2u);
  s.on_complete(0);
  // Head unblocks; the forward then backfills... under FcfsOnly it is
  // granted only because memory remains after the head.
  EXPECT_TRUE(log.granted(1));
  EXPECT_TRUE(log.granted(2));
  s.on_complete(1);
  s.on_complete(2);
}

TEST(Scheduler, PersistentReservationShrinksPool) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.reserve_persistent(0, 600);
  EXPECT_EQ(s.available(), 400u);
  s.register_client(0, {100, 400});
  s.on_request(0, OpKind::Backward);
  EXPECT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(s.available(), 0u);
  s.on_complete(0);
  EXPECT_THROW(s.reserve_persistent(0, 500), menos::OutOfMemory);
  s.release_persistent(0, 600);
  EXPECT_EQ(s.available(), 1000u);
}

TEST(Scheduler, ReleasePersistentTriggersScheduling) {
  Scheduler s(1000);
  GrantLog log;
  log.attach(s);
  s.reserve_persistent(0, 500);       // pool now 500
  s.register_client(0, {400, 400});
  s.register_client(1, {450, 450});
  s.on_request(0, OpKind::Backward);  // granted: 100 left
  s.on_request(1, OpKind::Backward);  // waits (450 > 100)
  EXPECT_EQ(log.grants.size(), 1u);
  s.release_persistent(0, 400);       // a departing client frees its A+O
  EXPECT_EQ(log.grants.size(), 2u);   // waiter granted without any complete
  s.on_complete(0);
  s.on_complete(1);
}

TEST(Scheduler, MultiPartitionPlacement) {
  Scheduler s(std::vector<std::size_t>{500, 500});
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});
  s.register_client(1, {400, 400});
  s.register_client(2, {400, 400});
  s.on_request(0, OpKind::Backward);
  s.on_request(1, OpKind::Backward);
  // Two GPUs: both backwards run concurrently on different partitions.
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_NE(log.grants[0].partition, log.grants[1].partition);
  s.on_request(2, OpKind::Backward);
  EXPECT_EQ(log.grants.size(), 2u);  // no third slot
  s.on_complete(0);
  EXPECT_EQ(log.grants.size(), 3u);
  s.on_complete(1);
  s.on_complete(2);
}

TEST(Scheduler, BestFitPartitionChoice) {
  // A small request should land on the fuller partition, preserving the
  // large hole for a future backward.
  Scheduler s(std::vector<std::size_t>{1000, 400});
  GrantLog log;
  log.attach(s);
  s.register_client(0, {300, 300});
  s.on_request(0, OpKind::Forward);
  ASSERT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(log.grants[0].partition, 1);  // 400 is the tightest fit
  s.on_complete(0);
}

TEST(Scheduler, StatsTrackRequestsAndGrants) {
  Scheduler s(100);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {60, 60});
  s.register_client(1, {60, 60});
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);  // blocked
  s.on_complete(0);
  s.on_complete(1);
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.grants, 2u);
  EXPECT_GE(st.blocked_cycles, 1u);
}

// ----- SwapOnIdle: the reclaim hook (mem::OffloadEngine integration) -----

TEST(Scheduler, SwapOnIdleReclaimsPersistentBytesForReservation) {
  // Capacity 100, 60 reserved by an "idle client A". A new client's 80-byte
  // reservation blocks under FcfsBackfill but succeeds under SwapOnIdle
  // once the reclaim callback hands A's 60 bytes back (evicted to host).
  Scheduler blocked(100, Policy::FcfsBackfill);
  blocked.reserve_persistent(0, 60);
  EXPECT_THROW(blocked.reserve_persistent(0, 80), OutOfMemory);

  Scheduler s(100, Policy::SwapOnIdle);
  s.reserve_persistent(0, 60);
  std::vector<std::size_t> asked;
  s.set_reclaim_callback([&asked](int partition, std::size_t bytes_needed) {
    EXPECT_EQ(partition, 0);
    asked.push_back(bytes_needed);
    return std::size_t{60};  // evict idle A
  });
  s.reserve_persistent(0, 80);  // must not throw
  ASSERT_EQ(asked.size(), 1u);
  EXPECT_EQ(asked[0], 40u);  // shortfall only, not the full request
  EXPECT_EQ(s.available(), 20u);
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.reclaims, 1u);
  EXPECT_EQ(st.reclaimed_bytes, 60u);
}

TEST(Scheduler, SwapOnIdleReclaimsForBlockedRequests) {
  Scheduler s(100, Policy::SwapOnIdle);
  GrantLog log;
  log.attach(s);
  int calls = 0;
  s.set_reclaim_callback([&calls](int, std::size_t) {
    ++calls;
    return calls == 1 ? std::size_t{60} : std::size_t{0};
  });
  s.register_client(1, {80, 80});
  s.reserve_persistent(0, 60);       // idle client's A + O
  s.on_request(1, OpKind::Forward);  // 40 free: reclaim 60, then grant
  EXPECT_TRUE(log.granted(1));
  EXPECT_EQ(calls, 1);
  s.on_complete(1);
}

TEST(Scheduler, SwapOnIdleDryReclaimStopsAfterOneAttemptPerPass) {
  Scheduler s(100, Policy::SwapOnIdle);
  GrantLog log;
  log.attach(s);
  int calls = 0;
  s.set_reclaim_callback([&calls](int, std::size_t) {
    ++calls;
    return std::size_t{0};  // nothing idle to evict
  });
  s.register_client(1, {80, 80});
  s.register_client(2, {90, 90});
  s.reserve_persistent(0, 60);
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Forward);
  // Each schedule pass asks at most once; a dry pool is not hammered for
  // every waiting request.
  EXPECT_LE(calls, 2);
  EXPECT_EQ(log.grants.size(), 0u);
  EXPECT_EQ(s.stats().reclaims, 0u);  // nothing was actually freed
  s.unregister_client(1);
  s.unregister_client(2);
}

TEST(Scheduler, PressureCallbackFiresOncePerReclaimPass) {
  Scheduler s(100, Policy::SwapOnIdle);
  s.reserve_persistent(0, 60);
  s.set_reclaim_callback([](int, std::size_t) { return std::size_t{60}; });
  std::vector<PressureEvent> events;
  s.set_pressure_callback([&s, &events](const PressureEvent& e) {
    // The callback fires after the scheduler mutex drops: re-entry is
    // legal, and the triggering reservation has already been deducted.
    EXPECT_LE(s.available(e.partition), e.free_after);
    events.push_back(e);
  });
  s.reserve_persistent(0, 80);  // 40 free: reclaim pass covers the shortfall
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].partition, 0);
  EXPECT_EQ(events[0].bytes_needed, 40u);
  EXPECT_EQ(events[0].bytes_freed, 60u);
  EXPECT_EQ(events[0].free_after, 100u);  // 40 + 60 reclaimed, pre-deduction
}

TEST(Scheduler, PressureCallbackFiresEvenWhenReclaimComesUpShort) {
  Scheduler s(100, Policy::SwapOnIdle);
  s.reserve_persistent(0, 60);
  s.set_reclaim_callback([](int, std::size_t) { return std::size_t{0}; });
  std::vector<PressureEvent> events;
  s.set_pressure_callback(
      [&events](const PressureEvent& e) { events.push_back(e); });
  EXPECT_THROW(s.reserve_persistent(0, 80), OutOfMemory);
  // The refusal is exactly what a fleet rebalancer needs to observe.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes_needed, 40u);
  EXPECT_EQ(events[0].bytes_freed, 0u);
  EXPECT_EQ(events[0].free_after, 40u);
}

TEST(Scheduler, NoPressureEventsWithoutSubscriber) {
  Scheduler s(100, Policy::SwapOnIdle);
  s.reserve_persistent(0, 60);
  s.set_reclaim_callback([](int, std::size_t) { return std::size_t{60}; });
  s.reserve_persistent(0, 80);  // succeeds; no subscriber, nothing buffered
  EXPECT_EQ(s.stats().reclaims, 1u);
}

TEST(Scheduler, TryReclaimIsANoOpWhenBytesAlreadyFit) {
  Scheduler s(100, Policy::SwapOnIdle);
  int calls = 0;
  s.set_reclaim_callback([&calls](int, std::size_t) {
    ++calls;
    return std::size_t{0};
  });
  EXPECT_TRUE(s.try_reclaim(100));
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(s.try_reclaim(200));
  EXPECT_EQ(calls, 1);
}

TEST(Scheduler, FcfsBackfillNeverInvokesReclaim) {
  Scheduler s(100, Policy::FcfsBackfill);
  GrantLog log;
  log.attach(s);
  bool called = false;
  s.set_reclaim_callback([&called](int, std::size_t) {
    called = true;
    return std::size_t{100};
  });
  s.register_client(1, {80, 80});
  s.reserve_persistent(0, 50);       // leaves 50 free: request cannot fit
  s.on_request(1, OpKind::Forward);  // blocked; no reclaim under backfill
  EXPECT_FALSE(called);
  EXPECT_FALSE(log.granted(1));
  s.unregister_client(1);
}

// ----- CoalescedBatch: group grants (docs/ARCHITECTURE.md "Cross-client
// batched trunk compute") -----

TEST(Scheduler, CoalescesCompatibleWaitingForwardsIntoOneGroupGrant) {
  Scheduler s(1000, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {1000, 1000});  // blocker: queues everything behind it
  s.register_client(1, {100, 400}, 7);
  s.register_client(2, {100, 400}, 7);
  s.register_client(3, {100, 400}, 7);
  s.on_request(0, OpKind::Backward);
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Forward);
  s.on_request(3, OpKind::Forward);
  EXPECT_EQ(log.grants.size(), 1u);
  s.on_complete(0);  // one pass sees all three compatible waiters at once
  ASSERT_EQ(log.grants.size(), 2u);
  const Grant& g = log.grants[1];
  EXPECT_EQ(g.client_id, 1);  // leader = FCFS head of the group
  EXPECT_EQ(g.kind, OpKind::Forward);
  ASSERT_EQ(g.group, (std::vector<int>{1, 2, 3}));
  // Each member is charged its own bytes under its own allocation.
  EXPECT_EQ(s.allocated_to(1), 100u);
  EXPECT_EQ(s.allocated_to(2), 100u);
  EXPECT_EQ(s.allocated_to(3), 100u);
  EXPECT_EQ(s.stats().coalesced_groups, 1u);
  EXPECT_EQ(s.stats().coalesced_members, 3u);
  // The whole group's fused pass completes with ONE atomic release.
  s.on_complete_group(g.group);
  EXPECT_EQ(s.available(), 1000u);
}

TEST(Scheduler, LoneCompatibleRequestIsGrantedSoloImmediately) {
  // Coalescing must never delay a request that has no one to batch with.
  Scheduler s(1000, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {100, 400}, 7);
  s.on_request(0, OpKind::Forward);
  ASSERT_EQ(log.grants.size(), 1u);
  EXPECT_TRUE(log.grants[0].group.empty());  // ordinary solo grant
  EXPECT_EQ(s.stats().coalesced_groups, 0u);
  s.on_complete(0);
}

TEST(Scheduler, CoalescedForwardsNeverOvertakeEarlierWaitingBackward) {
  // The member scan stops at the first non-joining Backward: forwards that
  // queued BEHIND a waiting backward may backfill as their own group, but
  // they must not be pulled forward into a group led from in front of it
  // (which would effectively jump the backward's place in line).
  Scheduler s(1000, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {1000, 1000});      // blocker
  s.register_client(1, {100, 400}, 7);     // F_a: ahead of the backward
  s.register_client(2, {100, 950});        // B: waiting backward
  s.register_client(3, {100, 400}, 7);     // F_b: behind the backward
  s.register_client(4, {100, 400}, 7);     // F_c: behind the backward
  s.on_request(0, OpKind::Backward);
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Backward);
  s.on_request(3, OpKind::Forward);
  s.on_request(4, OpKind::Forward);
  const std::uint64_t backfills_before = s.stats().backfill_grants;
  s.on_complete(0);
  // F_a's member scan stopped at B, so F_a went out SOLO...
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[1].client_id, 1);
  EXPECT_TRUE(log.grants[1].group.empty());
  // ...B stays blocked (950 > 900 free), and F_b+F_c coalesce as their own
  // group BEHIND it — counted as backfill grants, one per member.
  ASSERT_EQ(log.grants[2].group, (std::vector<int>{3, 4}));
  EXPECT_EQ(s.allocated_to(2), 0u);
  EXPECT_EQ(s.waiting_count(), 1u);
  EXPECT_EQ(s.stats().backfill_grants, backfills_before + 2);
  // Once the group releases atomically, the backward finally fits.
  s.on_complete(1);
  s.on_complete_group(log.grants[2].group);
  ASSERT_EQ(log.grants.size(), 4u);
  EXPECT_EQ(log.grants[3].client_id, 2);
  EXPECT_EQ(log.grants[3].kind, OpKind::Backward);
  s.on_complete(2);
}

TEST(Scheduler, HoldsGroupUntilFullTargetSizeFits) {
  // When more compatible requests wait than currently fit, the class is
  // held (one blocked cycle, no partial grants) until a group release
  // frees enough memory for the full target size.
  Scheduler s(400, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {300, 300});
  s.register_client(1, {100, 100});
  for (int c = 2; c <= 5; ++c) s.register_client(c, {100, 100}, 7);
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);  // pool now exhausted (300 + 100)
  for (int c = 2; c <= 5; ++c) s.on_request(c, OpKind::Forward);
  EXPECT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(s.waiting_count(), 4u);
  const SchedulerStats before = s.stats();
  s.on_complete(1);  // frees 100: ONE member would fit, target is 4 — hold
  EXPECT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(s.waiting_count(), 4u);
  EXPECT_EQ(s.stats().blocked_cycles, before.blocked_cycles + 1);
  s.on_complete(0);  // frees the rest: the full group forms at once
  ASSERT_EQ(log.grants.size(), 3u);
  ASSERT_EQ(log.grants[2].group, (std::vector<int>{2, 3, 4, 5}));
  // Every member counts as a grant of its own in the stats.
  EXPECT_EQ(s.stats().grants, before.grants + 4);
  EXPECT_EQ(s.stats().coalesced_groups, 1u);
  EXPECT_EQ(s.stats().coalesced_members, 4u);
  s.on_complete_group(log.grants[2].group);
  EXPECT_EQ(s.available(), 400u);
}

TEST(Scheduler, MaxGroupSizeSplitsOversizedClasses) {
  Scheduler s(400, Policy::CoalescedBatch);
  s.set_max_group_size(2);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});
  for (int c = 1; c <= 4; ++c) s.register_client(c, {100, 100}, 7);
  s.on_request(0, OpKind::Forward);
  for (int c = 1; c <= 4; ++c) s.on_request(c, OpKind::Forward);
  s.on_complete(0);
  // Four compatible waiters under a cap of 2: two groups, FCFS order.
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[1].group, (std::vector<int>{1, 2}));
  EXPECT_EQ(log.grants[2].group, (std::vector<int>{3, 4}));
  EXPECT_EQ(s.stats().coalesced_groups, 2u);
  EXPECT_EQ(s.stats().coalesced_members, 4u);
  s.on_complete_group(log.grants[1].group);
  s.on_complete_group(log.grants[2].group);
  EXPECT_EQ(s.available(), 400u);
}

TEST(Scheduler, ZeroBatchKeyClientsNeverCoalesce) {
  // batch_key 0 is the "never coalesce" sentinel (vanilla mode, Lora
  // adapters, mismatched model specs): behavior degrades to FcfsBackfill.
  Scheduler s(400, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});
  s.register_client(1, {100, 100});  // default key = 0
  s.register_client(2, {100, 100});
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Forward);
  s.on_complete(0);
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_TRUE(log.grants[1].group.empty());
  EXPECT_TRUE(log.grants[2].group.empty());
  EXPECT_EQ(s.stats().coalesced_groups, 0u);
  s.on_complete(1);
  s.on_complete(2);
}

TEST(Scheduler, OnCompleteGroupSkipsMembersAlreadyReleased) {
  // A member torn down mid-pass (session cleanup) has already released its
  // own charge; the group release must skip it instead of throwing.
  Scheduler s(400, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});
  s.register_client(1, {100, 100}, 7);
  s.register_client(2, {100, 100}, 7);
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Forward);
  s.on_complete(0);
  ASSERT_EQ(log.grants.size(), 2u);
  ASSERT_EQ(log.grants[1].group, (std::vector<int>{1, 2}));
  s.on_complete(1);  // member 1 departs early and frees its own allocation
  s.unregister_client(1);
  EXPECT_NO_THROW(s.on_complete_group(log.grants[1].group));
  EXPECT_EQ(s.available(), 400u);
}

TEST(Scheduler, CancelPendingDropsQueuedRequestAndReschedules) {
  // Session teardown calls cancel_pending BEFORE release/unregister so no
  // fresh grant can land in the gap. Cancelling the blocked head must also
  // re-run SCHEDULE so requests gated behind it get their turn.
  Scheduler s(100, Policy::FcfsOnly);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {60, 60});
  s.register_client(1, {100, 100});
  s.register_client(2, {40, 40});
  s.on_request(0, OpKind::Forward);
  s.on_request(1, OpKind::Forward);  // blocked head (100 > 40)
  s.on_request(2, OpKind::Forward);  // gated behind the head under FcfsOnly
  EXPECT_EQ(log.grants.size(), 1u);
  s.cancel_pending(1);
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].client_id, 2);
  EXPECT_EQ(s.waiting_count(), 0u);
  s.cancel_pending(1);  // nothing queued: a no-op
  s.unregister_client(1);
  s.on_complete(0);
  s.on_complete(2);
}

TEST(Scheduler, InterleavedCoalescingClassesGroupInOnePass) {
  // Two classes interleaved in the queue (7, 9, 7, 9) both form groups in
  // the pass that follows the blocker's release. Client 3 joins its group
  // past the still-waiting client 2, a backfill grant. Client 4 overtakes
  // nothing: client 3 was granted before group 9 formed, so it no longer
  // counts as a waiting request that the group jumps.
  Scheduler s(1000, Policy::CoalescedBatch);
  GrantLog log;
  log.attach(s);
  s.register_client(0, {1000, 1000});  // blocker: queues everything behind it
  s.register_client(1, {100, 100}, 7);
  s.register_client(2, {100, 100}, 9);
  s.register_client(3, {100, 100}, 7);
  s.register_client(4, {100, 100}, 9);
  s.on_request(0, OpKind::Forward);
  for (int c = 1; c <= 4; ++c) s.on_request(c, OpKind::Forward);
  ASSERT_EQ(log.grants.size(), 1u);

  s.on_complete(0);
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[1].group, (std::vector<int>{1, 3}));
  EXPECT_EQ(log.grants[2].group, (std::vector<int>{2, 4}));
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.coalesced_groups, 2u);
  EXPECT_EQ(st.backfill_grants, 1u);
  EXPECT_EQ(s.waiting_count(), 0u);
  s.on_complete_group({1, 3});
  s.on_complete_group({2, 4});
  EXPECT_EQ(s.total_available(), 1000u);
}

TEST(Scheduler, CoalescedBatchRandomTraceConservesMemoryAndDrains) {
  // Randomized sweep over the group-grant path: memory is conserved every
  // step, grants only reach waiting clients, and a full drain leaves no
  // starved waiter. Mixed population: even clients share a batch key, odd
  // clients never coalesce.
  const std::size_t capacity = 1200;
  Scheduler s(capacity, Policy::CoalescedBatch);
  util::Rng rng(1234);
  const int n = 10;

  // State per client: 0 = idle, 1 = waiting, 2 = holding.
  std::vector<int> state(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> live;  // granted units (groups or solos)
  s.set_grant_callback([&](const Grant& g) {
    std::vector<int> members =
        g.group.empty() ? std::vector<int>{g.client_id} : g.group;
    for (int m : members) {
      auto idx = static_cast<std::size_t>(m);
      EXPECT_EQ(state[idx], 1) << "grant to non-waiting client";
      state[idx] = 2;
    }
    live.push_back(std::move(members));
  });
  for (int i = 0; i < n; ++i) {
    const std::size_t fwd = 50 + 25 * static_cast<std::size_t>(i % 3);
    s.register_client(i, {fwd, fwd + 150 + 50 * static_cast<std::size_t>(i % 4)},
                      i % 2 == 0 ? 7u : 0u);
  }

  const auto complete_unit = [&](std::size_t u) {
    for (int m : live[u]) state[static_cast<std::size_t>(m)] = 0;
    if (live[u].size() > 1) {
      s.on_complete_group(live[u]);
    } else {
      s.on_complete(live[u][0]);
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(u));
  };

  for (int step = 0; step < 800; ++step) {
    if (!live.empty() && rng.next_below(3) == 0) {
      complete_unit(rng.next_below(live.size()));
    } else {
      const int c = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      if (state[static_cast<std::size_t>(c)] == 0) {
        state[static_cast<std::size_t>(c)] = 1;
        s.on_request(c, rng.next_below(2) == 0 ? OpKind::Forward
                                               : OpKind::Backward);
      }
    }
    // INVARIANT: allocations + free always account for the whole pool.
    std::size_t held = 0;
    for (int c = 0; c < n; ++c) held += s.allocated_to(c);
    EXPECT_EQ(held + s.total_available(), capacity);
  }

  // Drain: completing units can only trigger more grants (the callback
  // appends to `live`), so the loop terminates when everything is idle.
  while (!live.empty()) complete_unit(0);
  EXPECT_EQ(s.waiting_count(), 0u) << "a waiter starved after full drain";
  EXPECT_GT(s.stats().coalesced_groups, 0u)
      << "trace never exercised a group grant";
}

// ----- straggler-aware scheduling -----

TEST(Scheduler, StragglerAwareDefersClassifiedStragglerBehindFastClients) {
  // A client whose service estimate exceeds straggler_ratio x the
  // population median is scanned AFTER the fast clients: later-arrived fast
  // requests take the freed memory first and the straggler's reorder is
  // counted.
  Scheduler s(1000, Policy::StragglerAware);
  double now = 0.0;
  s.set_clock([&now] { return now; });
  GrantLog log;
  log.attach(s);
  s.register_client(0, {600, 600});    // the straggler
  s.register_client(1, {300, 300});
  s.register_client(2, {300, 300});
  s.register_client(9, {1000, 1000});  // blocker: queues everyone up
  s.record_service_time(0, 10.0);      // estimate >> 2x median (0.1)
  s.record_service_time(1, 0.1);
  s.record_service_time(2, 0.1);
  s.record_service_time(9, 0.1);

  s.on_request(9, OpKind::Forward);  // granted; pool now full
  s.on_request(0, OpKind::Forward);  // FCFS head, but a straggler
  s.on_request(1, OpKind::Forward);
  s.on_request(2, OpKind::Forward);
  ASSERT_EQ(log.grants.size(), 1u);

  // One pass on release: the fast scan grants 1 and 2 (600 bytes), after
  // which the deferred straggler (600) no longer fits.
  s.on_complete(9);
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[1].client_id, 1);
  EXPECT_EQ(log.grants[2].client_id, 2);
  EXPECT_EQ(s.allocated_to(0), 0u);
  EXPECT_GE(s.stats().straggler_reorders, 1u);

  // Deferral is a scan order, not a ban: once memory fits, the straggler
  // is granted.
  s.on_complete(1);
  ASSERT_EQ(log.grants.size(), 4u);
  EXPECT_EQ(log.grants[3].client_id, 0);
  s.on_complete(2);
  s.on_complete(0);
  EXPECT_EQ(s.total_available(), 1000u);
}

TEST(Scheduler, StragglerPromotedAfterWaitingPastSlack) {
  Scheduler s(500, Policy::StragglerAware);
  double now = 0.0;
  s.set_clock([&now] { return now; });
  GrantLog log;
  log.attach(s);
  s.register_client(0, {400, 400});  // the straggler
  s.register_client(1, {300, 300});
  s.register_client(2, {300, 300});
  s.record_service_time(0, 1.0);
  s.record_service_time(1, 0.1);
  s.record_service_time(2, 0.1);

  s.on_request(1, OpKind::Forward);  // granted; 200 free
  s.on_request(0, OpKind::Forward);  // waits (straggler)
  s.on_request(2, OpKind::Forward);  // waits
  ASSERT_EQ(log.grants.size(), 1u);

  // Fast-first pass grants the later-arrived 2 ahead of the deferred 0.
  s.on_complete(1);
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].client_id, 2);
  EXPECT_GE(s.stats().straggler_reorders, 1u);

  s.on_request(1, OpKind::Forward);  // queues behind 0 again
  // 0 has now waited far past promote_slack x its own estimate: it rejoins
  // the fast scan at its FCFS position and is granted ahead of 1.
  now = 10.0;
  s.on_complete(2);
  ASSERT_EQ(log.grants.size(), 3u);
  EXPECT_EQ(log.grants[2].client_id, 0);
  EXPECT_GE(s.stats().straggler_promotions, 1u);

  s.on_complete(0);
  ASSERT_EQ(log.grants.size(), 4u);
  EXPECT_EQ(log.grants[3].client_id, 1);
  s.on_complete(1);
  EXPECT_EQ(s.total_available(), 500u);
}

TEST(Scheduler, StragglerAwareDegeneratesToFcfsBackfillWhenHomogeneous) {
  // The homogeneous fairness pin: with every service estimate equal nothing
  // classifies as a straggler, and the StragglerAware pass must replay
  // FcfsBackfill EXACTLY — grant sequence, backfill accounting and blocked
  // cycles included. This is what keeps homogeneous-population runs
  // bit-identical across the two policies (see hetero_test).
  const std::size_t capacity = 1000;
  const int n = 8;
  struct Outcome {
    std::vector<std::pair<int, OpKind>> grants;
    SchedulerStats stats;
  };
  const auto run = [&](Policy policy) {
    Scheduler s(capacity, policy);
    double now = 0.0;  // pinned clock: on_complete never perturbs estimates
    s.set_clock([&now] { return now; });
    Outcome out;
    std::vector<int> state(static_cast<std::size_t>(n), 0);
    std::vector<int> holders;
    s.set_grant_callback([&](const Grant& g) {
      out.grants.emplace_back(g.client_id, g.kind);
      state[static_cast<std::size_t>(g.client_id)] = 2;
      holders.push_back(g.client_id);
    });
    for (int i = 0; i < n; ++i) {
      s.register_client(i, {60 + 40 * static_cast<std::size_t>(i % 3),
                            260 + 90 * static_cast<std::size_t>(i % 4)});
      s.record_service_time(i, 1.0);  // homogeneous: est == median for all
    }
    util::Rng rng(99);
    for (int step = 0; step < 500; ++step) {
      if (!holders.empty() && rng.next_below(3) == 0) {
        const int c = holders.front();
        holders.erase(holders.begin());
        state[static_cast<std::size_t>(c)] = 0;
        s.on_complete(c);
      } else {
        const int c =
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (state[static_cast<std::size_t>(c)] == 0) {
          state[static_cast<std::size_t>(c)] = 1;
          s.on_request(c, rng.next_below(2) == 0 ? OpKind::Forward
                                                 : OpKind::Backward);
        }
      }
    }
    while (!holders.empty()) {
      const int c = holders.front();
      holders.erase(holders.begin());
      state[static_cast<std::size_t>(c)] = 0;
      s.on_complete(c);
    }
    out.stats = s.stats();
    return out;
  };

  const Outcome fcfs = run(Policy::FcfsBackfill);
  const Outcome sa = run(Policy::StragglerAware);
  EXPECT_EQ(sa.grants, fcfs.grants);
  EXPECT_EQ(sa.stats.grants, fcfs.stats.grants);
  EXPECT_EQ(sa.stats.backfill_grants, fcfs.stats.backfill_grants);
  EXPECT_EQ(sa.stats.blocked_cycles, fcfs.stats.blocked_cycles);
  EXPECT_EQ(sa.stats.straggler_reorders, 0u);
  EXPECT_EQ(sa.stats.straggler_promotions, 0u);
  // The trace is not degenerate: backfilling actually engaged.
  EXPECT_GT(fcfs.stats.backfill_grants, 0u);
}

// ----- grant-sequence pin across every policy -----

/// One seeded trace on a virtual clock, condensed to an FNV-1a digest of
/// the full grant sequence plus the final stats.
struct PinnedRun {
  std::uint64_t digest = 14695981039346656037ull;
  std::uint64_t grants = 0;
  SchedulerStats stats;
};

/// Heterogeneous on purpose, so every policy's special path engages: two
/// slow clients (seeded 16x the others' service estimate, holding their
/// grants >= 2 virtual seconds) for StragglerAware, two nonzero batch keys
/// plus a never-coalescing class for CoalescedBatch, two partitions for
/// best-fit placement, a finite pool of idle persistent bytes the reclaim
/// callback evicts (and a periodic swap-in re-reserves) for SwapOnIdle,
/// and a periodic gate that lets the queue pile up before one deep pass.
/// Other policies run the identical trace; for them the keys, estimates
/// and callback are inert.
PinnedRun run_pinned_trace(Policy policy) {
  constexpr int n = 12;
  constexpr int kSlowHoldSteps = 40;
  Scheduler s(std::vector<std::size_t>{1000, 700}, policy);
  double now = 0.0;
  s.set_clock([&now] { return now; });
  s.set_max_group_size(3);
  s.set_straggler_promote_slack(1.0);

  PinnedRun out;
  const auto mix = [&out](std::uint64_t v) {
    out.digest = (out.digest ^ v) * 1099511628211ull;
  };
  int step = 0;
  std::vector<int> state(n, 0);  // 0 idle, 1 waiting, 2 holding
  std::vector<int> granted_at(n, 0);
  std::vector<std::vector<int>> live;  // granted units (groups or solos)
  s.set_grant_callback([&](const Grant& g) {
    mix(static_cast<std::uint64_t>(g.client_id));
    mix(static_cast<std::uint64_t>(g.kind));
    mix(static_cast<std::uint64_t>(g.partition));
    mix(g.group.size());
    for (int m : g.group) mix(static_cast<std::uint64_t>(m));
    ++out.grants;
    std::vector<int> members =
        g.group.empty() ? std::vector<int>{g.client_id} : g.group;
    for (int m : members) {
      EXPECT_EQ(state[static_cast<std::size_t>(m)], 1);
      state[static_cast<std::size_t>(m)] = 2;
      granted_at[static_cast<std::size_t>(m)] = step;
    }
    live.push_back(std::move(members));
  });

  std::vector<std::size_t> idle{0, 0};  // evictable persistent bytes
  s.set_reclaim_callback([&idle](int partition, std::size_t needed) {
    std::size_t& pool = idle[static_cast<std::size_t>(partition)];
    const std::size_t freed = std::min(pool, (needed + 63) / 64 * 64);
    pool -= freed;
    return freed;
  });
  const auto swap_in = [&](int partition) {
    try {
      s.reserve_persistent(partition, 64);
      idle[static_cast<std::size_t>(partition)] += 64;
    } catch (const OutOfMemory&) {
      // Full right now; a later swap-in retries.
    }
  };
  for (int p = 0; p < 2; ++p) {
    for (int k = 0; k < 3; ++k) swap_in(p);
  }

  for (int i = 0; i < n; ++i) {
    const std::size_t fwd = 60 + 35 * static_cast<std::size_t>(i % 4);
    const std::size_t bwd = fwd + 100 + 50 * static_cast<std::size_t>(i % 3);
    const std::uint64_t key = i % 3 == 0 ? 7u : (i % 3 == 1 ? 9u : 0u);
    s.register_client(i, {fwd, bwd}, key);
    s.record_service_time(i, i < 2 ? 4.0 : 0.25);
  }

  const auto complete_unit = [&](std::size_t u) {
    const std::vector<int> members = live[u];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(u));
    for (int m : members) state[static_cast<std::size_t>(m)] = 0;
    if (members.size() > 1) {
      s.on_complete_group(members);
    } else {
      s.on_complete(members[0]);
    }
  };

  std::vector<std::size_t> gate{0, 0};
  util::Rng rng(2024);
  for (step = 0; step < 1500; ++step) {
    now += 0.05;
    if (step % 97 == 96) swap_in(step % 2);
    if (step % 50 == 10) {
      // Close the gate: reserve every free byte and hold completions back
      // so requests pile up...
      for (int p = 0; p < 2; ++p) {
        gate[static_cast<std::size_t>(p)] = s.available(p);
        s.reserve_persistent(p, gate[static_cast<std::size_t>(p)]);
      }
    } else if (step % 50 == 30) {
      // ...and reopen it: one pass over a deep queue.
      for (int p = 0; p < 2; ++p) {
        s.release_persistent(p, gate[static_cast<std::size_t>(p)]);
      }
    }
    const bool gate_closed = step % 50 >= 10 && step % 50 < 30;
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 4 && !live.empty() && !gate_closed) {
      const std::size_t u = rng.next_below(live.size());
      bool slow_busy = false;
      for (int m : live[u]) {
        slow_busy |= m < 2 && step - granted_at[static_cast<std::size_t>(m)] <
                                  kSlowHoldSteps;
      }
      if (!slow_busy) complete_unit(u);
    } else if (roll == 9) {
      const int c = static_cast<int>(rng.next_below(n));
      if (state[static_cast<std::size_t>(c)] == 1) {
        state[static_cast<std::size_t>(c)] = 0;
        s.cancel_pending(c);
      }
    } else {
      const int c = static_cast<int>(rng.next_below(n));
      const OpKind kind =
          rng.next_below(4) == 0 ? OpKind::Backward : OpKind::Forward;
      if (state[static_cast<std::size_t>(c)] == 0) {
        state[static_cast<std::size_t>(c)] = 1;
        s.on_request(c, kind);
      }
    }
  }
  while (!live.empty()) complete_unit(0);
  EXPECT_EQ(s.waiting_count(), 0u) << "a waiter starved after full drain";
  out.stats = s.stats();
  return out;
}

struct PinnedExpectation {
  Policy policy;
  const char* name;
  std::uint64_t digest;
  std::uint64_t grants;
  SchedulerStats stats;
};

TEST(Scheduler, GrantSequencePinnedForEveryPolicy) {
  // Captured values: any refactor of the SCHEDULE pass must reproduce each
  // policy's grant sequence and stats exactly.
  const PinnedExpectation expected[] = {
      {Policy::FcfsOnly, "FcfsOnly", 0xfa6e36d74b4e590cull, 321,
       {346, 321, 0, 478, 0, 0, 0, 0, 0, 0}},
      {Policy::FcfsBackfill, "FcfsBackfill", 0xc02b79be01124e14ull, 310,
       {330, 310, 67, 454, 0, 0, 0, 0, 0, 0}},
      {Policy::SwapOnIdle, "SwapOnIdle", 0x441d00fc850bec28ull, 326,
       {337, 326, 20, 227, 10, 896, 0, 0, 0, 0}},
      {Policy::CoalescedBatch, "CoalescedBatch", 0x7722641070046725ull, 298,
       {347, 320, 100, 519, 0, 0, 18, 40, 0, 0}},
      {Policy::StragglerAware, "StragglerAware", 0xa97149a2e0d77cedull, 332,
       {357, 332, 106, 526, 0, 0, 0, 0, 63, 7}},
  };
  for (const PinnedExpectation& e : expected) {
    SCOPED_TRACE(e.name);
    const PinnedRun run = run_pinned_trace(e.policy);
    const SchedulerStats& st = run.stats;
    EXPECT_EQ(run.digest, e.digest);
    EXPECT_EQ(run.grants, e.grants);
    EXPECT_EQ(st.requests, e.stats.requests);
    EXPECT_EQ(st.grants, e.stats.grants);
    EXPECT_EQ(st.backfill_grants, e.stats.backfill_grants);
    EXPECT_EQ(st.blocked_cycles, e.stats.blocked_cycles);
    EXPECT_EQ(st.reclaims, e.stats.reclaims);
    EXPECT_EQ(st.reclaimed_bytes, e.stats.reclaimed_bytes);
    EXPECT_EQ(st.coalesced_groups, e.stats.coalesced_groups);
    EXPECT_EQ(st.coalesced_members, e.stats.coalesced_members);
    EXPECT_EQ(st.straggler_reorders, e.stats.straggler_reorders);
    EXPECT_EQ(st.straggler_promotions, e.stats.straggler_promotions);
  }
}

// ----- randomized invariant sweep -----

struct TraceParams {
  int clients;
  std::size_t capacity;
  Policy policy;
  std::uint64_t seed;
};

class SchedulerTraceSweep : public ::testing::TestWithParam<TraceParams> {};

TEST_P(SchedulerTraceSweep, InvariantsHoldOnRandomTrace) {
  const TraceParams p = GetParam();
  Scheduler s(p.capacity, p.policy);
  util::Rng rng(p.seed);

  std::vector<ClientDemands> demands(static_cast<std::size_t>(p.clients));
  for (auto& d : demands) {
    d.forward_bytes = 16 + rng.next_below(p.capacity / 6);
    d.backward_bytes = d.forward_bytes + rng.next_below(p.capacity / 2);
    if (d.backward_bytes > p.capacity) d.backward_bytes = p.capacity;
  }

  // State per client: 0 = idle, 1 = waiting, 2 = holding.
  std::vector<int> state(static_cast<std::size_t>(p.clients), 0);
  std::vector<int> holders;
  std::size_t min_available = p.capacity;
  std::uint64_t grants_seen = 0;

  s.set_grant_callback([&](const Grant& g) {
    auto idx = static_cast<std::size_t>(g.client_id);
    EXPECT_EQ(state[idx], 1) << "grant to non-waiting client";
    state[idx] = 2;
    holders.push_back(g.client_id);
    ++grants_seen;
  });
  for (int i = 0; i < p.clients; ++i) {
    s.register_client(i, demands[static_cast<std::size_t>(i)]);
  }

  for (int step = 0; step < 600; ++step) {
    const int c = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(p.clients)));
    const auto idx = static_cast<std::size_t>(c);
    if (state[idx] == 0) {
      const OpKind kind =
          rng.next_below(2) == 0 ? OpKind::Forward : OpKind::Backward;
      state[idx] = 1;
      s.on_request(c, kind);
    } else if (state[idx] == 2 && rng.next_below(2) == 0) {
      state[idx] = 0;
      holders.erase(std::find(holders.begin(), holders.end(), c));
      s.on_complete(c);
    }
    // INVARIANT: the scheduler never over-commits its pool.
    const std::size_t avail = s.total_available();
    EXPECT_LE(avail, p.capacity);
    min_available = std::min(min_available, avail);
    std::size_t held = 0;
    for (int h : holders) held += s.allocated_to(h);
    EXPECT_EQ(held + avail, p.capacity);
  }

  // Drain: complete all holders; every waiter must eventually be granted
  // (no starvation under either policy once memory frees).
  for (int round = 0; round < 2 * p.clients + 5 && !holders.empty(); ++round) {
    const int c = holders.front();
    holders.erase(holders.begin());
    state[static_cast<std::size_t>(c)] = 0;
    s.on_complete(c);
    // on_complete may synchronously grant new holders (callback appends).
  }
  EXPECT_EQ(s.waiting_count(), 0u) << "a waiter starved after full drain";
  EXPECT_GT(grants_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, SchedulerTraceSweep,
    ::testing::Values(TraceParams{2, 1000, Policy::FcfsBackfill, 1},
                      TraceParams{4, 1000, Policy::FcfsBackfill, 2},
                      TraceParams{8, 2000, Policy::FcfsBackfill, 3},
                      TraceParams{8, 500, Policy::FcfsBackfill, 4},
                      TraceParams{3, 800, Policy::FcfsOnly, 5},
                      TraceParams{6, 1500, Policy::FcfsOnly, 6},
                      TraceParams{12, 3000, Policy::FcfsBackfill, 7},
                      TraceParams{16, 1200, Policy::FcfsBackfill, 8},
                      TraceParams{8, 2000, Policy::StragglerAware, 9},
                      TraceParams{16, 1200, Policy::StragglerAware, 10}));

}  // namespace
}  // namespace menos::sched
