// Prints one host-contention probe reading as JSON: the wall time of a
// fixed spin on bench::kProbeThreads threads over its time on one, and that
// one-thread time (bench_common.h). A ratio of ~1.0 means that many idle
// cores. Run it before and after each run of an A/B comparison whose
// program does not record the probe itself (perfbench), and report each
// pair with its readings.
#include <cstdio>

#include "bench_common.h"

int main() {
  const menos::bench::ProbeReading r = menos::bench::contention_probe();
  std::printf("{\"contention_probe\": {\"threads\": %d, \"ratio\": %.3f, "
              "\"alone_ms\": %.2f}}\n",
              menos::bench::kProbeThreads, r.ratio, r.alone_ms);
  return 0;
}
