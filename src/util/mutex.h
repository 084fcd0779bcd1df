// Annotated mutex primitives — the repo-wide replacement for raw
// std::mutex / std::condition_variable members.
//
// Clang's thread-safety analysis (util/thread_annotations.h) can only
// track locks whose acquire/release points carry attributes. libstdc++'s
// std::mutex has none, so a `std::lock_guard<std::mutex>` is invisible to
// the analysis and every MENOS_GUARDED_BY access would (correctly) be
// flagged as unprotected. Mutex/MutexLock/CondVar below are thin,
// zero-overhead-when-inlined wrappers whose methods are annotated, which
// makes the whole locking discipline machine-checkable. tools/menos_lint.py
// rejects raw std::mutex members in src/ for this reason.
//
// CondVar deliberately exposes only un-predicated wait(Mutex&): write the
// `while (!condition) cv.wait(mu);` loop in the calling function so the
// guarded reads in `condition` sit in an analysis context that can see the
// held lock (a predicate lambda would be analyzed as a separate, lockless
// function).
//
// Under MENOS_DEADLOCK_DETECT (CMake option, default ON in Debug) every
// *named* Mutex additionally reports its acquisitions to the lock-order
// graph in src/check/lock_order.h: a name interns a lock class, an
// optional rank declares its position in the repo-wide acquisition order
// (docs/ANALYSIS.md tabulates the conventions), and the first inverted
// acquisition aborts with both hold-stacks. tools/menos_lint.py rule
// `mutex-name` requires every Mutex member in src/ to be named.
//
// Every named Mutex also counts its contention per lock class: lock()
// first tries the lock, and only when that fails does it read the clock,
// park, and add one contended acquisition and its park time to the class.
// The uncontended path costs no atomic and no clock read.
// lock_contention() snapshots the counts (docs/ANALYSIS.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

#ifdef MENOS_DEADLOCK_DETECT
#include "check/lock_order.h"
#endif

namespace menos::util {

class CondVar;

/// Contention of one lock class: every Mutex constructed with its name.
struct LockContention {
  std::string name;
  std::uint64_t contended = 0;  ///< acquisitions whose first try failed
  double park_seconds = 0.0;    ///< summed wait of those acquisitions
};

/// Every lock class named so far, in order of first construction.
std::vector<LockContention> lock_contention();

namespace detail {

struct ContentionCounter {
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> park_ns{0};
};

/// The process-wide counter of lock class `name` (interned, never freed).
ContentionCounter* contention_counter(const char* name);

}  // namespace detail

/// Annotated standard mutex.
class MENOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  /// Named mutex: joins lock class `name` for deadlock detection. `rank`
  /// (0 = unranked) places the class in the global acquisition order —
  /// nonzero ranks must be acquired in ascending order.
  explicit Mutex(const char* name, int rank = 0)
      : counter_(detail::contention_counter(name))
#ifdef MENOS_DEADLOCK_DETECT
        , cls_(check::intern_lock_class(name, rank))
#endif
  {
    (void)rank;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MENOS_ACQUIRE() {
#ifdef MENOS_DEADLOCK_DETECT
    // Before m_.lock(): if this acquisition is about to deadlock for
    // real, the diagnostic must get out first.
    if (cls_ != nullptr) check::note_acquire(cls_, this);
#endif
    if (!m_.try_lock()) lock_contended();
  }

  void unlock() MENOS_RELEASE() {
#ifdef MENOS_DEADLOCK_DETECT
    if (cls_ != nullptr) check::note_release(cls_, this);
#endif
    m_.unlock();
  }

  bool try_lock() MENOS_TRY_ACQUIRE(true) {
    const bool acquired = m_.try_lock();
#ifdef MENOS_DEADLOCK_DETECT
    // A trylock cannot block, hence records no ordering edge — but the
    // class joins the held stack so later acquisitions order after it.
    if (acquired && cls_ != nullptr) check::note_try_acquire(cls_, this);
#endif
    return acquired;
  }

 private:
  friend class CondVar;

  void lock_contended() {
    if (counter_ == nullptr) {
      m_.lock();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    m_.lock();
    const auto parked = std::chrono::steady_clock::now() - start;
    counter_->contended.fetch_add(1, std::memory_order_relaxed);
    counter_->park_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(parked)
                .count()),
        std::memory_order_relaxed);
  }

  std::mutex m_;
  detail::ContentionCounter* counter_ = nullptr;  // unnamed: not counted
#ifdef MENOS_DEADLOCK_DETECT
  const check::LockClass* cls_ = nullptr;
#endif
};

/// RAII lock (std::lock_guard shape) understood by the analysis.
class MENOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MENOS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  /// Adopt an already-held mutex; the destructor still releases it.
  struct Adopt {};
  MutexLock(Mutex& mu, Adopt) MENOS_REQUIRES(mu) : mu_(mu) {}

  ~MutexLock() MENOS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex. wait() atomically releases and
/// reacquires `mu`; from the analysis' point of view the lock is held
/// throughout, which matches the invariant callers rely on.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) MENOS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.m_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  /// Timed wait. Returns false on timeout, true when notified (subject to
  /// spurious wakeups — callers keep their predicate loop either way).
  bool wait_for(Mutex& mu, double seconds) MENOS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.m_, std::adopt_lock);
    const auto status =
        cv_.wait_for(lock, std::chrono::duration<double>(seconds));
    lock.release();  // ownership stays with the caller's MutexLock
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace menos::util
