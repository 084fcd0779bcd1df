#include "mem/offload_engine.h"

#include "util/check.h"

namespace menos::mem {

OffloadEngine::OffloadEngine(gpusim::TransferModel transfer)
    : transfer_(transfer) {}

OffloadEngine::Unit& OffloadEngine::unit_locked(int id) {
  auto it = units_.find(id);
  MENOS_CHECK_MSG(it != units_.end(), "unknown residency unit " << id);
  return it->second;
}

void OffloadEngine::wait_while_moving_locked(Unit& unit) {
  while (unit.state == Residency::MovingIn) state_cv_.wait(mutex_);
}

void OffloadEngine::register_unit(int id, std::size_t bytes,
                                  UnitCallbacks callbacks) {
  MENOS_CHECK_MSG(callbacks.move != nullptr && callbacks.charge != nullptr,
                  "residency unit needs move and charge callbacks");
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(units_.find(id) == units_.end(),
                  "residency unit " << id << " already registered");
  Unit unit;
  unit.bytes = bytes;
  unit.callbacks = std::move(callbacks);
  unit.state = Residency::OnDevice;
  unit.last_used = ++clock_;
  units_.emplace(id, std::move(unit));
}

bool OffloadEngine::unregister_unit(int id) {
  util::MutexLock lock(mutex_);
  auto it = units_.find(id);
  if (it == units_.end()) return false;
  wait_while_moving_locked(it->second);
  const bool was_resident = it->second.state == Residency::OnDevice;
  units_.erase(it);
  return was_resident;
}

void OffloadEngine::begin_use(int id) {
  util::MutexLock lock(mutex_);
  Unit& unit = unit_locked(id);
  wait_while_moving_locked(unit);
  ++unit.busy;
  unit.last_used = ++clock_;
}

void OffloadEngine::end_use(int id) {
  util::MutexLock lock(mutex_);
  Unit& unit = unit_locked(id);
  MENOS_CHECK_MSG(unit.busy > 0, "end_use without begin_use on unit " << id);
  --unit.busy;
  unit.last_used = ++clock_;
}

void OffloadEngine::ensure_resident(int id) {
  UnitCallbacks callbacks;
  std::size_t bytes = 0;
  {
    util::MutexLock lock(mutex_);
    Unit& unit = unit_locked(id);
    wait_while_moving_locked(unit);
    if (unit.state == Residency::OnDevice) return;
    // MovingIn pins the unit: unregister_unit and release_unit wait for the
    // transition to settle, and evict_idle skips it.
    unit.state = Residency::MovingIn;
    callbacks = unit.callbacks;
    bytes = unit.bytes;
  }
  // Charge first (scheduler mutex; may evict OTHER units via the reclaim
  // callback — our unit is MovingIn, hence not a candidate), then move.
  // Neither call may happen with the engine mutex held (see header).
  try {
    callbacks.charge();
  } catch (...) {
    util::MutexLock lock(mutex_);
    unit_locked(id).state = Residency::OnHost;
    state_cv_.notify_all();
    throw;
  }
  callbacks.move(/*to_device=*/true);
  util::MutexLock lock(mutex_);
  Unit& unit = unit_locked(id);
  unit.state = Residency::OnDevice;
  unit.last_used = ++clock_;
  ++stats_.swap_ins;
  stats_.bytes_in += bytes;
  stats_.modeled_transfer_s += transfer_.seconds_for(bytes);
  state_cv_.notify_all();
}

ExportedUnit OffloadEngine::release_unit(int id) {
  util::MutexLock lock(mutex_);
  Unit& unit = unit_locked(id);
  wait_while_moving_locked(unit);
  MENOS_CHECK_MSG(unit.busy == 0,
                  "cannot release busy residency unit " << id);
  ExportedUnit out;
  out.bytes = unit.bytes;
  out.was_resident = unit.state == Residency::OnDevice;
  if (out.was_resident) {
    // Synchronous move-out, same rationale as evict_idle: the move
    // callback touches only devices/trace, never the engine or scheduler.
    unit.callbacks.move(/*to_device=*/false);
    ++stats_.swap_outs;
    stats_.bytes_out += unit.bytes;
    stats_.modeled_transfer_s += transfer_.seconds_for(unit.bytes);
  }
  units_.erase(id);
  state_cv_.notify_all();
  return out;
}

void OffloadEngine::adopt_unit(int id, const ExportedUnit& unit,
                               UnitCallbacks callbacks) {
  MENOS_CHECK_MSG(callbacks.move != nullptr && callbacks.charge != nullptr,
                  "residency unit needs move and charge callbacks");
  util::MutexLock lock(mutex_);
  MENOS_CHECK_MSG(units_.find(id) == units_.end(),
                  "residency unit " << id << " already registered");
  Unit adopted;
  adopted.bytes = unit.bytes;
  adopted.callbacks = std::move(callbacks);
  adopted.state = Residency::OnHost;  // lands uncharged, like post-eviction
  adopted.last_used = ++clock_;
  units_.emplace(id, std::move(adopted));
}

std::size_t OffloadEngine::evict_idle(std::size_t bytes_needed,
                                      int except_id) {
  util::MutexLock lock(mutex_);
  std::size_t freed = 0;
  while (freed < bytes_needed) {
    // Least-recently-used idle resident unit.
    Unit* victim = nullptr;
    for (auto& [id, unit] : units_) {
      if (id == except_id || unit.state != Residency::OnDevice ||
          unit.busy > 0) {
        continue;
      }
      if (victim == nullptr || unit.last_used < victim->last_used) {
        victim = &unit;
      }
    }
    if (victim == nullptr) break;  // nothing evictable left
    // Synchronous move-out with the engine mutex held: the scheduler is
    // mid-reclaim and the move callback touches only devices/trace (the
    // UnitCallbacks contract), so no lock cycle is possible.
    victim->callbacks.move(/*to_device=*/false);
    victim->state = Residency::OnHost;
    freed += victim->bytes;
    ++stats_.swap_outs;
    stats_.bytes_out += victim->bytes;
    stats_.modeled_transfer_s += transfer_.seconds_for(victim->bytes);
  }
  if (freed > 0) state_cv_.notify_all();
  return freed;
}

bool OffloadEngine::resident(int id) const {
  util::MutexLock lock(mutex_);
  auto it = units_.find(id);
  return it != units_.end() && it->second.state == Residency::OnDevice;
}

Residency OffloadEngine::residency(int id) const {
  util::MutexLock lock(mutex_);
  auto it = units_.find(id);
  MENOS_CHECK_MSG(it != units_.end(), "unknown residency unit " << id);
  return it->second.state;
}

std::size_t OffloadEngine::resident_bytes() const {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, unit] : units_) {
    if (unit.state == Residency::OnDevice) total += unit.bytes;
  }
  return total;
}

OffloadStats OffloadEngine::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace menos::mem
