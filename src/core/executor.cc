#include "core/executor.h"

#include <algorithm>
#include <thread>

#include "util/thread_pool.h"

namespace menos::core {

int Executor::resolve_width(int configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return util::env_width("MENOS_EXECUTOR_THREADS",
                         std::min(8, std::max(1, static_cast<int>(hw))));
}

}  // namespace menos::core
