#include "sched/scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>

namespace menos::sched {
namespace {

/// Monotonic wall time in seconds, for service-time estimates and
/// anti-starvation waits. Only differences are ever used.
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// EWMA smoothing for service-time estimates: responsive enough to track a
/// client whose link or load changes, sticky enough that one noisy round
/// does not flip its class.
constexpr double kServiceAlpha = 0.3;

}  // namespace

const char* op_kind_name(OpKind kind) noexcept {
  return kind == OpKind::Forward ? "forward" : "backward";
}

Scheduler::Scheduler(std::vector<std::size_t> partition_capacities,
                     Policy policy)
    : capacity_(std::move(partition_capacities)),
      free_(capacity_),
      policy_(policy),
      clock_(&now_seconds) {
  MENOS_CHECK_MSG(!capacity_.empty(), "scheduler needs at least one partition");
}

Scheduler::Scheduler(std::size_t capacity, Policy policy)
    : Scheduler(std::vector<std::size_t>{capacity}, policy) {}

void Scheduler::set_grant_callback(std::function<void(const Grant&)> callback) {
  util::MutexLock lock(mutex_);
  grant_callback_ = std::move(callback);
}

void Scheduler::set_reclaim_callback(ReclaimCallback callback) {
  util::MutexLock lock(mutex_);
  reclaim_callback_ = std::move(callback);
}

void Scheduler::set_pressure_callback(PressureCallback callback) {
  util::MutexLock lock(mutex_);
  pressure_callback_ = std::move(callback);
}

bool Scheduler::try_reclaim(std::size_t bytes, int partition) {
  PendingDispatch out;
  bool ok = false;
  {
    util::MutexLock lock(mutex_);
    MENOS_CHECK_MSG(partition >= 0 &&
                        partition < static_cast<int>(free_.size()),
                    "partition " << partition << " out of range");
    ok = try_reclaim_locked(partition, bytes);
    out = take_pending_locked();
  }
  dispatch(out);
  return ok;
}

bool Scheduler::try_reclaim_locked(int partition, std::size_t bytes) {
  auto& free = free_[static_cast<std::size_t>(partition)];
  if (free >= bytes) return true;
  if (!reclaim_callback_) return false;
  // Fires with mutex_ held under the grant callback's no-re-entry
  // contract; it returns bytes evicted to host, which re-expand the pool —
  // the exact inverse of reserve_persistent.
  const std::size_t needed = bytes - free;
  const std::size_t freed = reclaim_callback_(partition, needed);
  if (freed > 0) {
    free += freed;
    capacity_[static_cast<std::size_t>(partition)] += freed;
    ++stats_.reclaims;
    stats_.reclaimed_bytes += freed;
  }
  if (pressure_callback_) {
    // One pressure event per reclaim pass, dispatched post-unlock: the
    // shard ran hot enough to need eviction, whether or not it succeeded.
    pending_pressure_.push_back(PressureEvent{partition, needed, freed, free});
  }
  return free >= bytes;
}

void Scheduler::register_client(int client_id, const ClientDemands& demands,
                                std::uint64_t batch_key) {
  util::MutexLock lock(mutex_);
  const std::size_t largest =
      *std::max_element(capacity_.begin(), capacity_.end());
  const std::size_t worst =
      std::max(demands.forward_bytes, demands.backward_bytes);
  MENOS_CHECK_MSG(worst <= largest,
                  "client " << client_id << " demands "
                            << worst << " bytes, larger than any partition ("
                            << largest << ") — rejected at profiling time");
  MENOS_CHECK_MSG(demands_.find(client_id) == demands_.end(),
                  "client " << client_id << " already registered");
  demands_[client_id] = demands;
  if (batch_key != 0) batch_key_[client_id] = batch_key;
}

void Scheduler::set_max_group_size(std::size_t n) {
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(n >= 1, "max group size must be >= 1");
  max_group_ = n;
}

void Scheduler::unregister_client(int client_id) {
  PendingDispatch out;
  {
    util::MutexLock lock(mutex_);
    if (allocations_.find(client_id) != allocations_.end()) {
      throw StateError("unregistering client " + std::to_string(client_id) +
                       " with a live allocation");
    }
    waiting_.erase(std::remove_if(waiting_.begin(), waiting_.end(),
                                  [client_id](const Waiting& w) {
                                    return w.client_id == client_id;
                                  }),
                   waiting_.end());
    demands_.erase(client_id);
    batch_key_.erase(client_id);
    service_est_.erase(client_id);
    // Departure frees nothing, but a slot may now be irrelevant to fairness
    // ordering; re-run scheduling for uniformity.
    schedule_locked();
    out = take_pending_locked();
  }
  dispatch(out);
}

void Scheduler::cancel_pending(int client_id) {
  PendingDispatch out;
  {
    util::MutexLock lock(mutex_);
    const auto it = std::remove_if(waiting_.begin(), waiting_.end(),
                                   [client_id](const Waiting& w) {
                                     return w.client_id == client_id;
                                   });
    if (it == waiting_.end()) return;
    waiting_.erase(it, waiting_.end());
    // Removing a (possibly head) entry may unblock everyone behind it.
    schedule_locked();
    out = take_pending_locked();
  }
  dispatch(out);
}

void Scheduler::on_request(int client_id, OpKind kind) {
  PendingDispatch out;
  {
    util::MutexLock lock(mutex_);
    MENOS_CHECK_MSG(demands_.find(client_id) != demands_.end(),
                    "request from unregistered client " << client_id);
    MENOS_CHECK_MSG(allocations_.find(client_id) == allocations_.end(),
                    "client " << client_id
                              << " requested while holding an allocation");
    for (const Waiting& w : waiting_) {
      MENOS_CHECK_MSG(w.client_id != client_id,
                      "client " << client_id
                                << " already has a pending request");
    }
    waiting_.push_back(Waiting{client_id, kind, next_seq_++, clock_()});
    ++stats_.requests;
    schedule_locked();
    out = take_pending_locked();
  }
  dispatch(out);
}

void Scheduler::on_complete(int client_id) {
  complete(std::span<const int>(&client_id, 1), /*must_hold=*/true);
}

void Scheduler::on_complete_group(const std::vector<int>& clients) {
  complete(clients, /*must_hold=*/false);
}

void Scheduler::complete(std::span<const int> clients, bool must_hold) {
  PendingDispatch out;
  {
    util::MutexLock lock(mutex_);
    for (int client_id : clients) {
      auto it = allocations_.find(client_id);
      if (it == allocations_.end()) {
        // A group member torn down mid-pass has already released its own
        // charge through its cleanup path; a solo completion must hold one.
        MENOS_CHECK_MSG(!must_hold, "completion from client "
                                        << client_id << " with no allocation");
        continue;
      }
      if (it->second.granted_at > 0.0) {
        update_estimate_locked(client_id, clock_() - it->second.granted_at);
      }
      free_[static_cast<std::size_t>(it->second.partition)] +=
          it->second.bytes;
      allocations_.erase(it);
    }
    // One pass after the whole group frees: the next held group sees all
    // the recovered memory at once and can form at full size.
    schedule_locked();
    out = take_pending_locked();
  }
  dispatch(out);
}

void Scheduler::reserve_persistent(int partition, std::size_t bytes) {
  PendingDispatch out;
  bool fits = false;
  std::size_t free_now = 0;
  {
    util::MutexLock lock(mutex_);
    MENOS_CHECK_MSG(partition >= 0 &&
                        partition < static_cast<int>(free_.size()),
                    "partition " << partition << " out of range");
    auto& free = free_[static_cast<std::size_t>(partition)];
    if (bytes > free && policy_ == Policy::SwapOnIdle) {
      // A new client's A + O does not fit; evict idle clients' state first.
      try_reclaim_locked(partition, bytes);
    }
    if (bytes <= free) {
      free -= bytes;
      capacity_[static_cast<std::size_t>(partition)] -= bytes;
      fits = true;
    }
    free_now = free;
    out = take_pending_locked();
  }
  // Dispatch even on the failure path so the pressure event is not lost —
  // the fleet reacts to exactly this kind of refusal.
  dispatch(out);
  if (!fits) {
    throw OutOfMemory("persistent reservation exceeds free partition memory",
                      bytes, free_now);
  }
}

void Scheduler::release_persistent(int partition, std::size_t bytes) {
  PendingDispatch out;
  {
    util::MutexLock lock(mutex_);
    MENOS_CHECK_MSG(partition >= 0 &&
                        partition < static_cast<int>(free_.size()),
                    "partition " << partition << " out of range");
    free_[static_cast<std::size_t>(partition)] += bytes;
    capacity_[static_cast<std::size_t>(partition)] += bytes;
    schedule_locked();
    out = take_pending_locked();
  }
  dispatch(out);
}

Scheduler::PendingDispatch Scheduler::take_pending_locked() {
  PendingDispatch out;
  out.grants.swap(pending_grants_);
  // A null callback can only coexist with zero grants (schedule_locked
  // bails out without one), so dispatching over an empty vector is safe.
  out.grant_callback = grant_callback_;
  out.pressure.swap(pending_pressure_);
  out.pressure_callback = pressure_callback_;
  return out;
}

void Scheduler::dispatch(PendingDispatch& pending) {
  for (const Grant& grant : pending.grants) pending.grant_callback(grant);
  if (pending.pressure_callback) {
    for (const PressureEvent& e : pending.pressure) {
      pending.pressure_callback(e);
    }
  }
}

std::size_t Scheduler::scan_order_locked(std::vector<std::size_t>& order) {
  // Only StragglerAware classifies; a zero median defers nobody, so every
  // other policy (and a homogeneous population) scans in FCFS order.
  const bool classify = policy_ == Policy::StragglerAware;
  const double median = classify ? estimate_median_locked() : 0.0;
  const double now = classify ? clock_() : 0.0;
  std::vector<std::size_t> deferred;
  order.reserve(waiting_.size());
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    const Waiting& w = waiting_[i];
    if (median > 0.0) {
      double est = 0.0;
      if (auto it = service_est_.find(w.client_id); it != service_est_.end()) {
        est = it->second;
      }
      if (est > straggler_ratio_ * median) {
        // Anti-starvation: a straggler that has already waited longer than
        // promote_slack x its own service time rejoins the fast scan at its
        // FCFS position instead of being deferred again.
        if (now - w.enqueued_at <= promote_slack_ * est) {
          deferred.push_back(i);
          continue;
        }
        ++stats_.straggler_promotions;
      }
    }
    order.push_back(i);
  }
  const std::size_t fast = order.size();
  order.insert(order.end(), deferred.begin(), deferred.end());
  return fast;
}

void Scheduler::charge_locked(int client_id, std::size_t bytes, int partition,
                              bool backfill) {
  free_[static_cast<std::size_t>(partition)] -= bytes;
  allocations_[client_id] = Allocation{bytes, partition, clock_()};
  ++stats_.grants;
  if (backfill) ++stats_.backfill_grants;
}

void Scheduler::schedule_locked() {
  if (!grant_callback_) return;
  std::vector<std::size_t> order;
  const std::size_t fast = scan_order_locked(order);
  // Queue index of the earliest-arrived deferred straggler (deferred
  // entries keep FCFS order): fast-class grants behind it are reorders.
  const std::size_t first_deferred =
      fast < order.size() ? order[fast] : waiting_.size();

  // Granted entries stay in waiting_ until the pass ends (one erase at the
  // end), so the coalescing member scan and this loop skip them by index.
  std::vector<bool> granted(waiting_.size(), false);
  bool head_blocked = false;      // an earlier-scanned entry still waits
  bool backward_blocked = false;  // an earlier backward is still waiting
  bool reclaim_dry = false;       // a reclaim this pass came up short
  // (batch_key, kind) classes held back this pass for a fuller group: once
  // a group leader holds, later same-class entries must not be granted
  // solo behind it (a fragmented sub-group would defeat the coalescing and
  // jump the leader).
  std::vector<std::pair<std::uint64_t, OpKind>> held;
  const auto is_held = [&held](std::uint64_t key, OpKind kind) {
    for (const auto& h : held) {
      if (h.first == key && h.second == kind) return true;
    }
    return false;
  };
  // One pass in scan order; every grant frees no memory, so a single pass
  // is complete (grants only shrink availability).
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t idx = order[pos];
    if (granted[idx]) continue;  // joined an earlier group grant
    const Waiting& w = waiting_[idx];
    const std::size_t bytes = demands_[w.client_id].bytes_for(w.kind);
    const std::uint64_t key = batch_key_of_locked(w.client_id);

    // Fairness gate (see header): a backward may not overtake an earlier
    // still-waiting backward; a held coalescing class stays held for the
    // whole pass.
    const bool gated = (w.kind == OpKind::Backward && backward_blocked) ||
                       (key != 0 && is_held(key, w.kind));
    std::optional<int> partition;
    if (!gated) partition = find_partition_locked(bytes);

    // SwapOnIdle: before declaring this request blocked, evict idle
    // clients' persistent state until it fits. One dry reclaim ends the
    // attempts for this pass — nothing idle is left to evict.
    if (!gated && !partition.has_value() && policy_ == Policy::SwapOnIdle &&
        !reclaim_dry) {
      // Target the partition with the most free bytes: it needs the least
      // eviction to cover the request.
      std::size_t target = 0;
      for (std::size_t p = 1; p < free_.size(); ++p) {
        if (free_[p] > free_[target]) target = p;
      }
      if (try_reclaim_locked(static_cast<int>(target), bytes)) {
        partition = static_cast<int>(target);
      } else {
        reclaim_dry = true;
      }
    }

    if (partition.has_value()) {
      const bool backfill = head_blocked || backward_blocked;
      if (policy_ != Policy::CoalescedBatch || key == 0) {
        charge_locked(w.client_id, bytes, *partition, backfill);
        // Did the reorder engage? A fast-class grant that jumped an
        // earlier-arrived deferred straggler.
        if (pos < fast && first_deferred < idx) ++stats_.straggler_reorders;
        pending_grants_.push_back(Grant{w.client_id, w.kind, *partition, {}});
        granted[idx] = true;
        continue;
      }
      if (try_coalesce_locked(idx, key, *partition, backfill, granted)) {
        continue;
      }
      // More compatible requests wait than currently fit: hold the whole
      // class back this pass so the group forms at full size once the
      // memory frees (see the header's no-stall argument).
      held.emplace_back(key, w.kind);
    }

    head_blocked = true;
    // Strict FCFS: quit the scheduling cycle (Alg 2 line 18).
    if (policy_ == Policy::FcfsOnly) break;
    if (w.kind == OpKind::Backward) backward_blocked = true;
  }

  std::size_t kept = 0;
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    if (!granted[i]) waiting_[kept++] = waiting_[i];
  }
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(kept),
                 waiting_.end());
  if (head_blocked) ++stats_.blocked_cycles;
}

void Scheduler::update_estimate_locked(int client_id, double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  auto [it, inserted] = service_est_.emplace(client_id, seconds);
  if (!inserted) {
    it->second = kServiceAlpha * seconds + (1.0 - kServiceAlpha) * it->second;
  }
}

double Scheduler::estimate_median_locked() const {
  if (service_est_.empty()) return 0.0;
  std::vector<double> vals;
  vals.reserve(service_est_.size());
  for (const auto& entry : service_est_) vals.push_back(entry.second);
  const std::size_t mid = (vals.size() - 1) / 2;  // lower median
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid),
                   vals.end());
  return vals[mid];
}

void Scheduler::record_service_time(int client_id, double seconds) {
  util::MutexLock lock(mutex_);
  update_estimate_locked(client_id, seconds);
}

double Scheduler::service_estimate(int client_id) const {
  util::MutexLock lock(mutex_);
  auto it = service_est_.find(client_id);
  return it == service_est_.end() ? 0.0 : it->second;
}

void Scheduler::set_straggler_ratio(double ratio) {
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(ratio > 1.0, "straggler ratio must be > 1");
  straggler_ratio_ = ratio;
}

void Scheduler::set_straggler_promote_slack(double slack) {
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(slack > 0.0, "straggler promote slack must be > 0");
  promote_slack_ = slack;
}

void Scheduler::set_clock(std::function<double()> clock) {
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(clock != nullptr, "scheduler clock must be callable");
  clock_ = std::move(clock);
}

std::uint64_t Scheduler::batch_key_of_locked(int client_id) const {
  auto it = batch_key_.find(client_id);
  return it == batch_key_.end() ? 0 : it->second;
}

bool Scheduler::try_coalesce_locked(std::size_t leader_idx, std::uint64_t key,
                                    int partition, bool leader_backfill,
                                    std::vector<bool>& granted) {
  const Waiting leader = waiting_[leader_idx];
  // Collect members in FCFS order: the leader, then every later waiting
  // entry of the same (kind, batch_key), skipping entries this pass already
  // granted (they are no longer waiting). The scan STOPS at the first
  // non-joining Backward — granting members past it would overtake an
  // earlier waiting backward, which the fairness contract forbids. A
  // skipped non-joining Forward marks every member gathered after it as a
  // backfill grant (they are granted ahead of an earlier request).
  struct Member {
    std::size_t idx;
    bool overtakes;
  };
  std::vector<Member> members{{leader_idx, false}};
  bool skipped = false;
  for (std::size_t j = leader_idx + 1;
       j < waiting_.size() && members.size() < max_group_; ++j) {
    if (granted[j]) continue;
    const Waiting& cand = waiting_[j];
    const bool joins = cand.kind == leader.kind &&
                       batch_key_of_locked(cand.client_id) == key;
    if (!joins) {
      if (cand.kind == OpKind::Backward) break;
      skipped = true;
      continue;
    }
    members.push_back(Member{j, skipped});
  }

  // fit: members (prefix, in order) whose summed demand fits the
  // partition's free memory now. fit_cap: how many an EMPTY partition
  // could ever hold — the group size worth waiting for. The leader alone
  // is known to fit, so fit >= 1 and target >= 1.
  const std::size_t cap = capacity_[static_cast<std::size_t>(partition)];
  const std::size_t free = free_[static_cast<std::size_t>(partition)];
  std::size_t fit = 0, fit_cap = 0, acc = 0;
  for (const Member& m : members) {
    acc += demands_[waiting_[m.idx].client_id].bytes_for(leader.kind);
    if (acc <= free) ++fit;
    if (acc <= cap) ++fit_cap;
  }
  const std::size_t target = std::min(members.size(), fit_cap);
  if (fit < target) return false;  // hold for a fuller group

  members.resize(target);
  Grant grant;
  grant.client_id = leader.client_id;
  grant.kind = leader.kind;
  grant.partition = partition;
  if (target > 1) {
    grant.group.reserve(target);
    for (const Member& m : members) {
      grant.group.push_back(waiting_[m.idx].client_id);
    }
  }
  for (const Member& m : members) {
    const int client_id = waiting_[m.idx].client_id;
    charge_locked(client_id, demands_[client_id].bytes_for(leader.kind),
                  partition, leader_backfill || m.overtakes);
    granted[m.idx] = true;
  }
  if (target > 1) {
    ++stats_.coalesced_groups;
    stats_.coalesced_members += target;
  }
  pending_grants_.push_back(std::move(grant));
  return true;
}

std::optional<int> Scheduler::find_partition_locked(std::size_t bytes) const {
  // Best fit: the partition with the least free memory that still fits, so
  // large holes stay available for backward passes.
  std::optional<int> best;
  std::size_t best_free = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i] >= bytes && free_[i] < best_free) {
      best = static_cast<int>(i);
      best_free = free_[i];
    }
  }
  return best;
}

std::size_t Scheduler::available(int partition) const {
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(partition >= 0 &&
                      partition < static_cast<int>(free_.size()),
                  "partition " << partition << " out of range");
  return free_[static_cast<std::size_t>(partition)];
}

std::size_t Scheduler::total_available() const {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (std::size_t f : free_) total += f;
  return total;
}

std::size_t Scheduler::allocated_to(int client_id) const {
  util::MutexLock lock(mutex_);
  auto it = allocations_.find(client_id);
  return it == allocations_.end() ? 0 : it->second.bytes;
}

std::size_t Scheduler::waiting_count() const {
  util::MutexLock lock(mutex_);
  return waiting_.size();
}

SchedulerStats Scheduler::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

int Scheduler::partition_count() const {
  util::MutexLock lock(mutex_);
  return static_cast<int>(capacity_.size());
}

}  // namespace menos::sched
