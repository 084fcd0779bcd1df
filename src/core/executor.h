// Shared serving executor: the fixed worker pool that drives every
// ServingSession state machine (docs/ARCHITECTURE.md). Callers post to it
// and build strands on it directly; Server::stop (or the Fleet) drains it
// with stop_and_join once the last session has finished.
//
// Width resolution (resolve_width): an explicit ServerConfig value wins,
// then the MENOS_EXECUTOR_THREADS environment variable (so CI can force
// heavy interleaving on few workers), then min(8, hardware_concurrency).
#pragma once

#include "util/executor.h"

namespace menos::core {

class Executor : public util::TaskPool {
 public:
  /// `configured` <= 0 means "resolve from environment/hardware".
  explicit Executor(int configured_width = 0)
      : util::TaskPool(resolve_width(configured_width)) {}

  static int resolve_width(int configured);
};

}  // namespace menos::core
