// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of the paper: it prints the
// same rows/series the paper reports (virtual-time measurements from the
// simulated cluster) plus a paper-vs-measured comparison where the paper
// states a number. See EXPERIMENTS.md for the collected results.
#ifndef RDMADL_BENCH_BENCH_UTIL_H_
#define RDMADL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "src/train/ps_training.h"
#include "src/util/logging.h"

namespace rdmadl {
namespace bench {

inline void PrintHeader(const std::string& title, const std::string& description) {
  std::printf("\n=============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("=============================================================================\n");
}

inline void PrintRule() {
  std::printf("-----------------------------------------------------------------------------\n");
}

// Runs one PS-training configuration and returns the mean virtual step time
// in ms (negative on structured failure, e.g. the gRPC.RDMA >1 GB crash).
struct StepResult {
  double step_ms = -1.0;
  std::string error;
  // Tail of the driver's per-step latency histogram (every completed step of
  // the run, warm-up included) — meaningful once steps is large enough for a
  // tail to exist; the mean above is unaffected by reading them.
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  bool ok() const { return step_ms >= 0; }
};

inline StepResult MeasureConfig(train::TrainingConfig config, int warmup = 2, int steps = 3) {
  train::TrainingDriver driver(std::move(config));
  Status init = driver.Initialize(warmup);
  if (!init.ok()) {
    return StepResult{-1.0, init.ToString()};
  }
  auto ms = driver.MeasureStepTimeMs(steps);
  if (!ms.ok()) {
    return StepResult{-1.0, ms.status().ToString()};
  }
  StepResult result{*ms, ""};
  result.p50_ms = driver.step_latencies().P50() / 1e6;
  result.p99_ms = driver.step_latencies().P99() / 1e6;
  result.p999_ms = driver.step_latencies().P999() / 1e6;
  return result;
}

// Formats a throughput improvement "A over B" as the paper does (percent).
inline double ImprovementPct(double fast_ms, double slow_ms) {
  return (slow_ms / fast_ms - 1.0) * 100.0;
}

}  // namespace bench
}  // namespace rdmadl

#endif  // RDMADL_BENCH_BENCH_UTIL_H_
