#include "util/mutex.h"

namespace menos::util {
namespace {

/// Lock classes in order of first construction. Mutexes are constructed on
/// hot paths (a thread-pool dispatch names one), so a lookup scans the
/// published entries without a lock; only an append takes `mutex`.
struct ContentionRegistry {
  static constexpr std::size_t kMaxClasses = 1024;  // the tree names ~40

  struct Entry {
    std::string name;
    detail::ContentionCounter counter;
  };

  // Unnamed, so taking it never counts into the registry it guards; it
  // serializes appends, and readers scan the entries published by `size`.
  Mutex mutex;  // NOLINT(mutex-name, mutex-annotation)
  std::atomic<std::size_t> size{0};
  Entry* entries[kMaxClasses] = {};  // entries[i] is immutable once i < size
};

// Leaked, counters included: mutexes with static storage duration are
// constructed during static init and locked during static teardown.
ContentionRegistry& registry() {
  static ContentionRegistry* r = new ContentionRegistry();
  return *r;
}

detail::ContentionCounter* find(const ContentionRegistry& r, std::size_t from,
                                 std::size_t to, const char* name) {
  for (std::size_t i = from; i < to; ++i) {
    if (r.entries[i]->name == name) return &r.entries[i]->counter;
  }
  return nullptr;
}

}  // namespace

namespace detail {

ContentionCounter* contention_counter(const char* name) {
  ContentionRegistry& r = registry();
  const std::size_t published = r.size.load(std::memory_order_acquire);
  if (ContentionCounter* c = find(r, 0, published, name)) return c;
  MutexLock lock(r.mutex);
  const std::size_t size = r.size.load(std::memory_order_relaxed);
  if (ContentionCounter* c = find(r, published, size, name)) return c;
  if (size == ContentionRegistry::kMaxClasses) return nullptr;  // uncounted
  r.entries[size] = new ContentionRegistry::Entry{name, {}};
  r.size.store(size + 1, std::memory_order_release);
  return &r.entries[size]->counter;
}

}  // namespace detail

std::vector<LockContention> lock_contention() {
  const ContentionRegistry& r = registry();
  const std::size_t size = r.size.load(std::memory_order_acquire);
  std::vector<LockContention> out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const ContentionRegistry::Entry& e = *r.entries[i];
    LockContention c;
    c.name = e.name;
    c.contended = e.counter.contended.load(std::memory_order_relaxed);
    c.park_seconds =
        static_cast<double>(e.counter.park_ns.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace menos::util
