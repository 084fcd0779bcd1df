// Host-offload residency engine — swap a client's persistent state
// (adapter + optimizer) between device and host so idle clients stop
// holding GPU capacity hostage.
//
// The paper's vanilla baseline swaps whole task copies; Menos' shared
// modes keep each client's A + O resident forever. This engine adds the
// missing middle ground for the Policy::SwapOnIdle scheduler: each
// session registers its persistent state as a *residency unit* and the
// scheduler evicts least-recently-used idle units when a request (or a new
// client's persistent reservation) would otherwise be declared blocked.
//
// The engine is deliberately scheduler- and tensor-agnostic: the owner
// supplies two callbacks per unit —
//   move(to_device)  physically migrate the unit's tensors (called with
//                    the engine mutex held on the eviction path, so it
//                    must not call back into the engine),
//   charge()         reserve the unit's bytes with the scheduler (called
//                    WITHOUT the engine mutex; may throw OutOfMemory) —
// and the scheduler itself credits bytes freed by eviction (its reclaim
// callback contract), so no release call exists here.
//
// Lock ordering (deadlock freedom): scheduler -> engine is the only
// permitted nesting. evict_idle() is called from the scheduler's reclaim
// callback with the scheduler mutex held and takes the engine mutex;
// therefore no engine method ever calls the scheduler while holding the
// engine mutex — ensure_resident() drops it before charge().
//
// Every move runs on its caller's thread: a swap-in on the owning
// session's strand (ensure_resident), a swap-out inside the scheduler's
// reclaim pass (evict_idle) or a migration export (release_unit). Transfer
// time is priced with the same gpusim::TransferModel constants the vanilla
// baseline and src/sim use, accumulated in stats().modeled_transfer_s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>

#include "gpusim/device.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::mem {

/// Where a unit's tensors currently live. MovingIn spans ensure_resident's
/// charge + move, which run without the engine mutex.
enum class Residency : std::uint8_t { OnDevice, OnHost, MovingIn };

struct UnitCallbacks {
  /// Physically migrate the unit's tensors (true = host -> device).
  /// Must not call back into the engine or the scheduler.
  std::function<void(bool to_device)> move;
  /// Reserve the unit's bytes with the scheduler before a move-in; may
  /// throw OutOfMemory. Called without the engine mutex.
  std::function<void()> charge;
};

/// A residency unit detached from its engine (release_unit), ready to be
/// adopted by another engine on a different shard. Carries accounting only
/// — the tensors themselves travel via the owner's move callback before
/// release and fresh callbacks at adoption.
struct ExportedUnit {
  std::size_t bytes = 0;
  /// True if the unit held its scheduler charge at release time (it was
  /// OnDevice before release_unit swapped it out): the caller must
  /// release_persistent those bytes on the source shard. False means the
  /// unit had already been evicted and its charge credited back.
  bool was_resident = false;
};

struct OffloadStats {
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;  ///< evictions and migration exports
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  double modeled_transfer_s = 0.0;  ///< priced with the TransferModel
};

class OffloadEngine {
 public:
  explicit OffloadEngine(gpusim::TransferModel transfer = {});

  OffloadEngine(const OffloadEngine&) = delete;
  OffloadEngine& operator=(const OffloadEngine&) = delete;

  /// Register `id`'s persistent state (`bytes` = A + O). The unit starts
  /// OnDevice with its scheduler charge already taken (the session just
  /// called reserve_persistent during its handshake).
  void register_unit(int id, std::size_t bytes, UnitCallbacks callbacks);

  /// Remove the unit (client departure). Waits for any in-flight move.
  /// Returns true if the unit was resident — i.e. its scheduler charge is
  /// still held and the caller must release_persistent it.
  bool unregister_unit(int id);

  /// Mark the unit busy (nests). A busy unit is never evicted; waits for
  /// any in-flight move first. Call before asking the scheduler for the
  /// iteration's memory so eviction cannot race the computation.
  void begin_use(int id);

  /// Drop one nesting level of busy; at zero the unit becomes an eviction
  /// candidate again and its LRU stamp is refreshed.
  void end_use(int id);

  /// Block until the unit is OnDevice, charging + moving it in if needed.
  /// Throws OutOfMemory if the scheduler cannot cover the charge even
  /// after its own reclaim pass.
  void ensure_resident(int id);

  /// Detach the unit for migration to another engine: wait for any
  /// in-flight move, swap the tensors out to host if resident (counted as
  /// a swap-out), and forget the unit. The unit must be idle (no busy
  /// pins). Returns the unit's accounting; if `was_resident` the caller
  /// still holds the scheduler charge and must release it on this shard.
  ExportedUnit release_unit(int id);

  /// Register a unit previously detached with release_unit on another
  /// engine. The unit's tensors must already live on the host; it starts
  /// OnHost with NO scheduler charge — the first ensure_resident() charges
  /// the destination shard and moves it in, exactly like an evicted unit
  /// coming back.
  void adopt_unit(int id, const ExportedUnit& unit, UnitCallbacks callbacks);

  /// Evict least-recently-used idle resident units (skipping `except_id`)
  /// until at least `bytes_needed` of charged bytes are freed, moving
  /// their tensors out synchronously. Returns the bytes actually freed.
  /// Designed to run inside the scheduler's reclaim callback with the
  /// scheduler mutex held: it does NOT touch the scheduler; the caller
  /// credits the returned bytes itself.
  std::size_t evict_idle(std::size_t bytes_needed, int except_id = -1);

  bool resident(int id) const;
  Residency residency(int id) const;
  std::size_t resident_bytes() const;
  OffloadStats stats() const;

 private:
  struct Unit {
    std::size_t bytes = 0;
    UnitCallbacks callbacks;
    Residency state = Residency::OnDevice;
    int busy = 0;                ///< begin_use nesting depth
    std::uint64_t last_used = 0; ///< LRU stamp (engine-local clock)
  };

  void wait_while_moving_locked(Unit& unit) MENOS_REQUIRES(mutex_);
  Unit& unit_locked(int id) MENOS_REQUIRES(mutex_);

  gpusim::TransferModel transfer_;

  mutable util::Mutex mutex_{"mem.offload", 40};
  util::CondVar state_cv_;  ///< signaled on every residency transition
  std::map<int, Unit> units_ MENOS_GUARDED_BY(mutex_);
  std::uint64_t clock_ MENOS_GUARDED_BY(mutex_) = 0;
  OffloadStats stats_ MENOS_GUARDED_BY(mutex_);
};

}  // namespace menos::mem
