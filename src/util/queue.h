// Concurrency primitives shared by the runtime's server/client threads.
//
// All three classes use the annotated util::Mutex/CondVar wrappers so
// Clang's -Wthread-safety analysis verifies their locking discipline (see
// docs/ANALYSIS.md). Waits are written as explicit while-loops: the
// guarded reads in the predicate must sit in a function that the analysis
// can see holds the lock.
#pragma once

#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::util {

/// Unbounded MPMC blocking queue. close() wakes all waiters; pop() returns
/// nullopt once the queue is closed and drained, which is the shutdown
/// signal consumers should honour.
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueue an item. Throws nothing; pushing to a closed queue drops the
  /// item and returns false so producers can tell delivery from loss (the
  /// inproc transport's byte accounting depends on this), while shutdown
  /// races stay benign for producers that ignore the result.
  bool push(T item) {
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and empty.
  std::optional<T> pop() {
    MutexLock lock(mutex_);
    while (items_.empty() && !closed_) cv_.wait(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Like pop(), but gives up after `seconds`. Returns nullopt on timeout
  /// as well as on close-and-drained; callers that need to distinguish the
  /// two can check closed(). Used by connection receive timeouts.
  std::optional<T> pop_for(double seconds) {
    MutexLock lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (items_.empty() && !closed_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      cv_.wait_for(mutex_,
                   std::chrono::duration<double>(deadline - now).count());
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Close the queue: subsequent push() calls drop, waiters drain then get
  /// nullopt.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  mutable Mutex mutex_{"util.queue", 80};
  CondVar cv_;
  std::deque<T> items_ MENOS_GUARDED_BY(mutex_);
  bool closed_ MENOS_GUARDED_BY(mutex_) = false;
};

/// One-shot or resettable binary event ("manual-reset event" semantics).
class Notification {
 public:
  void notify() {
    {
      MutexLock lock(mutex_);
      notified_ = true;
    }
    cv_.notify_all();
  }

  void wait() {
    MutexLock lock(mutex_);
    while (!notified_) cv_.wait(mutex_);
  }

  /// Wait and atomically reset; used by serving sessions that are signalled
  /// once per scheduling grant.
  void wait_and_reset() {
    MutexLock lock(mutex_);
    while (!notified_) cv_.wait(mutex_);
    notified_ = false;
  }

  bool notified() const {
    MutexLock lock(mutex_);
    return notified_;
  }

 private:
  mutable Mutex mutex_{"util.notification", 82};
  CondVar cv_;
  bool notified_ MENOS_GUARDED_BY(mutex_) = false;
};

/// Go-style wait group for joining a dynamic set of worker threads.
class WaitGroup {
 public:
  void add(int n = 1) {
    MutexLock lock(mutex_);
    count_ += n;
  }

  void done() {
    // Notify under the lock: once count_ hits zero a waiter may return and
    // destroy this WaitGroup, so the condvar must not be touched after the
    // mutex drops.
    MutexLock lock(mutex_);
    --count_;
    cv_.notify_all();
  }

  void wait() {
    MutexLock lock(mutex_);
    while (count_ > 0) cv_.wait(mutex_);
  }

 private:
  Mutex mutex_{"util.waitgroup", 84};
  CondVar cv_;
  int count_ MENOS_GUARDED_BY(mutex_) = 0;
};

}  // namespace menos::util
