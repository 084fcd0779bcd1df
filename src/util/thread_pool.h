// Process-wide fork/join thread pool behind the tensor compute kernels.
// It is one of the process's two pools; the other is the serving
// executor (util::TaskPool, util/executor.h), which runs session events.
// This one runs nothing but parallel_for ranges.
//
// Design constraints, in priority order:
//   1. Determinism. parallel_for partitions [begin, end) into disjoint
//      chunks and every index is visited by exactly one invocation of the
//      body, so a kernel that writes output[i] only from iteration i
//      produces bit-identical results for ANY thread count — including the
//      serial fallback. Nothing about chunk assignment leaks into results.
//   2. No surprises for the split runtime. Server/client session threads
//      already exist (see util/queue.h); the pool is a singleton sized by
//      MENOS_THREADS (default: hardware concurrency), and a call forks only
//      when its thread is alone: if any other thread is inside a
//      parallel_for body, serial or forked, the call runs its range
//      inline. Concurrent sessions then compute side by side, one core
//      each, instead of queueing behind one region or oversubscribing the
//      cores with pool workers — and compute never deadlocks on compute.
//   3. Lazy start. No worker threads exist until the first parallel_for
//      that actually wants them; MENOS_THREADS=1 never spawns any.
//
// Nested parallel_for calls (a kernel body calling another parallel kernel)
// degrade to serial execution on the calling thread, which keeps the pool
// reentrancy-safe without a work-stealing scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace menos::util {

class ThreadPool {
 public:
  using Index = std::int64_t;
  using Body = std::function<void(Index begin, Index end)>;

  /// The process-wide pool. First call reads MENOS_THREADS (unset, empty or
  /// "0" -> std::thread::hardware_concurrency(), clamped to >= 1).
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallel width, including the calling thread; always >= 1.
  int num_threads() const noexcept { return num_threads_; }

  /// Resize the pool (joins existing workers; they are respawned lazily).
  /// Must not be called concurrently with parallel_for. Intended for tests
  /// and tools; production sizing goes through MENOS_THREADS.
  void set_num_threads(int n);

  /// Invoke `body` over disjoint subranges covering [begin, end) exactly
  /// once. `grain` is the minimum chunk size (in indices) worth shipping to
  /// another thread; ranges at or below it, a pool of width 1, nested calls
  /// and calls made while another thread is inside a parallel_for body all
  /// run `body(begin, end)` on the calling thread. The first exception
  /// thrown by any chunk is rethrown on the calling thread after all chunks
  /// finish.
  void parallel_for(Index begin, Index end, Index grain, const Body& body);

 private:
  ThreadPool();

  struct Region;

  void stop_workers();
  void worker_main();
  static void run_chunks(Region& region);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // All fields below are guarded by an annotated util::Mutex in the .cc
  // (kept out of the header to avoid dragging locking headers into every
  // kernel TU; the MENOS_GUARDED_BY annotations live on State's members).
  struct State;
  std::unique_ptr<State> state_;
};

/// Pool width from the environment variable `name`: the whole string must
/// be a non-negative integer; unset, empty or "0" selects `fallback`. The
/// result is capped at 256. Anything else ("abc", "3x", "-1") throws,
/// naming `name`.
int env_width(const char* name, int fallback);

/// Convenience forwarder: menos::util::parallel_for(0, n, grain, body).
inline void parallel_for(ThreadPool::Index begin, ThreadPool::Index end,
                         ThreadPool::Index grain,
                         const ThreadPool::Body& body) {
  ThreadPool::instance().parallel_for(begin, end, grain, body);
}

}  // namespace menos::util
