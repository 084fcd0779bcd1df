#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::util {

namespace {

// True while this thread is executing chunks of some region (worker or
// submitting thread alike). A parallel_for issued from such a thread runs
// serially: the pool is flat, not recursive.
thread_local bool t_inside_region = false;

// Each chunk is at least `grain` indices; beyond that, aim for a few chunks
// per thread so the atomic chunk cursor load-balances uneven bodies.
constexpr ThreadPool::Index kChunksPerThread = 4;

}  // namespace

int env_width(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  long parsed = 0;
  if (raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    parsed = std::strtol(raw, &end, 10);
    if (end == raw || *end != '\0' || parsed < 0) {
      MENOS_CHECK_MSG(false, name << " must be a non-negative integer, got '"
                                  << raw << "'");
    }
  }
  return static_cast<int>(std::min<long>(parsed == 0 ? fallback : parsed, 256));
}

/// One fork/join dispatch. Heap-held via shared_ptr so a worker that wakes
/// late and finds every chunk already claimed can still touch the chunk
/// cursor safely after the submitter has moved on.
struct ThreadPool::Region {
  Index begin = 0;
  Index chunk = 1;
  Index end = 0;
  Index nchunks = 0;
  const Body* body = nullptr;  // valid until `completed` reaches nchunks

  std::atomic<Index> next{0};       // next unclaimed chunk
  std::atomic<Index> completed{0};  // chunks fully executed

  Mutex error_mutex{"util.threadpool.error", 48};
  std::exception_ptr first_error MENOS_GUARDED_BY(error_mutex);
};

struct ThreadPool::State {
  // Rank band 46..48 (docs/ANALYSIS.md): below the gpusim/mem allocator
  // locks; above mem.offload, whose move callbacks dispatch copies.
  Mutex mutex{"util.threadpool.state", 46};
  CondVar work_cv;      // workers wait here for a new epoch
  CondVar done_cv;      // submitter waits here for completion
  std::shared_ptr<Region> region MENOS_GUARDED_BY(mutex);
  std::uint64_t epoch MENOS_GUARDED_BY(mutex) = 0;
  bool stop MENOS_GUARDED_BY(mutex) = false;
  bool started MENOS_GUARDED_BY(mutex) = false;

  // Threads currently inside a top-level parallel_for body, serial or
  // forked. A call forks only when it finds this at zero: with several
  // callers already computing, the cores are taken, and workers would only
  // time-slice against them. It also serializes dispatches, since only a
  // caller that found zero publishes a region.
  std::atomic<int> callers{0};
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : state_(std::make_unique<State>()) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  num_threads_ = env_width("MENOS_THREADS", std::max(1, hw));
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::set_num_threads(int n) {
  MENOS_CHECK_MSG(n >= 1, "ThreadPool width must be >= 1, got " << n);
  stop_workers();
  num_threads_ = std::min(n, 256);
}

void ThreadPool::stop_workers() {
  {
    MutexLock lock(state_->mutex);
    if (!state_->started) return;
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  MutexLock lock(state_->mutex);
  state_->started = false;
  state_->stop = false;
}

void ThreadPool::run_chunks(Region& region) {
  const bool was_inside = t_inside_region;
  t_inside_region = true;
  for (;;) {
    const Index c = region.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= region.nchunks) break;
    const Index b = region.begin + c * region.chunk;
    const Index e = std::min(region.end, b + region.chunk);
    try {
      (*region.body)(b, e);
    } catch (...) {
      MutexLock lock(region.error_mutex);
      if (!region.first_error) region.first_error = std::current_exception();
    }
    region.completed.fetch_add(1, std::memory_order_acq_rel);
  }
  t_inside_region = was_inside;
}

void ThreadPool::worker_main() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Region> region;
    {
      MutexLock lock(state_->mutex);
      while (!state_->stop && state_->epoch == seen_epoch) {
        state_->work_cv.wait(state_->mutex);
      }
      if (state_->stop) return;
      seen_epoch = state_->epoch;
      region = state_->region;
    }
    if (!region) continue;
    run_chunks(*region);
    if (region->completed.load(std::memory_order_acquire) == region->nchunks) {
      // Take the mutex before notifying so the wakeup cannot slip into the
      // window between the submitter's predicate check and its sleep.
      MutexLock lock(state_->mutex);
      state_->done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(Index begin, Index end, Index grain,
                              const Body& body) {
  if (end <= begin) return;
  const Index range = end - begin;
  grain = std::max<Index>(grain, 1);

  // Serial fast paths: width-1 pool, nested call, tiny range, or another
  // thread already inside a parallel_for body (run our own range instead
  // of oversubscribing the cores). Being alone also makes this the only
  // dispatching thread: one region is in flight at a time.
  if (num_threads_ <= 1 || t_inside_region) {
    body(begin, end);
    return;
  }
  struct CallerScope {
    std::atomic<int>& callers;
    const bool alone = callers.fetch_add(1, std::memory_order_acq_rel) == 0;
    ~CallerScope() { callers.fetch_sub(1, std::memory_order_acq_rel); }
  } caller{state_->callers};
  const Index target_chunks =
      static_cast<Index>(num_threads_) * kChunksPerThread;
  const Index chunk =
      std::max(grain, (range + target_chunks - 1) / target_chunks);
  const Index nchunks = (range + chunk - 1) / chunk;
  if (range <= grain || !caller.alone || nchunks <= 1) {
    body(begin, end);
    return;
  }

  auto region = std::make_shared<Region>();
  region->begin = begin;
  region->end = end;
  region->chunk = chunk;
  region->nchunks = nchunks;
  region->body = &body;

  {
    MutexLock lock(state_->mutex);
    if (!state_->started) {
      // Lazy start: spawn the workers on the first dispatch that wants
      // them (width-1 pools and purely-serial programs never get here).
      state_->stop = false;
      state_->started = true;
      workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
      for (int i = 0; i < num_threads_ - 1; ++i) {
        workers_.emplace_back([this] { worker_main(); });
      }
    }
    state_->region = region;
    ++state_->epoch;
  }
  state_->work_cv.notify_all();

  run_chunks(*region);  // the submitting thread pulls chunks too

  {
    MutexLock lock(state_->mutex);
    while (region->completed.load(std::memory_order_acquire) !=
           region->nchunks) {
      state_->done_cv.wait(state_->mutex);
    }
    state_->region.reset();
  }

  std::exception_ptr first_error;
  {
    MutexLock lock(region->error_mutex);
    first_error = region->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace menos::util
