// Fixed-width task executor + serial strands for the event-driven serving
// core (docs/ARCHITECTURE.md).
//
// TaskPool is a fixed set of FIFO workers sharing one queue, the second of
// the process's two pools (util::ThreadPool runs the compute kernels):
// sessions become event handlers posted here instead of owning a thread
// each, so server concurrency is bounded by GPU memory (the paper's
// resource), not by OS thread count. Strand serializes the events of one
// session on top of the pool — per-session ordering without a per-session
// mutex or thread.
//
// This header is the only place outside util/thread_pool.* allowed to
// spawn threads (tools/menos_lint.py rule `raw-thread`).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::util {

/// Fixed pool of workers draining one FIFO task queue. Tasks posted after
/// stop_and_join() (or during it, once the queue drains) are dropped — by
/// then every producer has wound down and drops are stale by construction.
///
/// Dequeue order is FIFO unless a check::SchedulerHook is installed
/// (src/check/schedule.h): then each worker hands the hook the post-order
/// ids of every queued task and runs the one it picks — the seam the
/// seeded schedule-exploration tests drive to force rare interleavings.
class TaskPool {
 public:
  explicit TaskPool(int width);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue `task` (FIFO across the pool; no ordering between workers —
  /// use a Strand for serialized execution). An exception escaping a task
  /// is logged and dropped.
  void post(std::function<void()> task);

  /// Finish every queued task, then join the workers. Idempotent.
  void stop_and_join();

  /// Configured worker count; fixed at construction, always >= 1.
  int width() const noexcept { return width_; }

 private:
  /// A queued task and its monotonically increasing post sequence number
  /// (the id the scheduler hook keys its priorities on).
  struct Task {
    std::uint64_t id;
    std::function<void()> fn;
  };

  void worker_main();

  const int width_;
  Mutex mutex_{"util.taskpool", 70};
  CondVar cv_;
  std::deque<Task> tasks_ MENOS_GUARDED_BY(mutex_);
  std::uint64_t next_task_id_ MENOS_GUARDED_BY(mutex_) = 0;
  bool stopping_ MENOS_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Serial executor over a TaskPool (the asio "strand" idiom): tasks posted
/// to one Strand run in post order and never concurrently with each other,
/// while different Strands interleave freely across the pool's workers.
///
/// Copyable handle; the shared state is kept alive by any in-flight drain
/// task, so a Strand may be destroyed while its tasks are still queued
/// (they run to completion).
class Strand {
 public:
  explicit Strand(TaskPool& pool);

  void post(std::function<void()> task);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace menos::util
