// Elastic recovery MTTR study: how fast does training get back to useful
// work after a fail-stop crash, as a function of the checkpoint interval and
// the cluster size?
//
// For every (cluster size, checkpoint interval) point, one worker fail-stops
// mid-run and the elastic driver detects the death through missed leases,
// reconfigures over the survivors, restores the last checkpoint and finishes
// the run. Reported per point (all virtual time):
//
//   * detection latency — injected crash until the membership service
//     confirms the death (bounded by the lease parameters, independent of
//     the checkpoint interval);
//   * recovery time — confirmation until training resumes (channel recovery,
//     session rebuild, ring/shard reconfiguration, checkpoint restore);
//   * steps rolled back — completed work repeated because it postdated the
//     last checkpoint; this is the term the checkpoint interval trades
//     against snapshot overhead;
//   * run stretch — elapsed virtual time versus the same run without the
//     crash.
//
// The table is the whole stdout; the golden_bench_recovery ctest pins it
// (tests/golden/).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/models/model_spec.h"
#include "src/sim/fault.h"
#include "src/train/ps_training.h"

namespace rdmadl {
namespace bench {
namespace {

struct RecoveryPoint {
  double detection_ms = -1;
  double recovery_ms = -1;
  int steps_rolled_back = 0;
  double elapsed_ms = -1;
  double baseline_ms = -1;  // Same run, no crash.
  std::string error;
  bool ok() const { return error.empty(); }
};

train::TrainingConfig MakeConfig(int machines, int interval) {
  train::TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = machines;
  config.batch_size = 16;
  config.mechanism = train::MechanismKind::kRdmaZeroCopy;
  config.step_timeout_ns = 200'000'000;
  config.max_step_retries = 2;
  config.elastic = true;
  config.checkpoint_interval_steps = interval;
  return config;
}

RecoveryPoint MeasurePoint(int machines, int interval, int steps, bool crash) {
  RecoveryPoint point;
  train::TrainingDriver driver(MakeConfig(machines, interval));
  Status init = driver.Initialize();
  if (!init.ok()) {
    point.error = init.ToString();
    return point;
  }
  sim::FaultInjector injector(1);
  if (crash) {
    // The highest-numbered worker dies mid-run — several steps in, so the
    // checkpoint interval determines how much completed work rolls back.
    injector.CrashHost(machines - 1,
                       driver.cluster()->simulator()->Now() + 250'000'000);
    driver.cluster()->fabric()->SetFaultInjector(&injector);
  }
  auto report = driver.RunElastic(steps);
  if (!report.ok()) {
    point.error = report.status().ToString();
    return point;
  }
  point.detection_ms = report->last_detection_latency_ns / 1e6;
  point.recovery_ms = report->last_recovery_ns / 1e6;
  point.steps_rolled_back = report->steps_rolled_back;
  point.elapsed_ms = report->elapsed_ns / 1e6;
  return point;
}

void Run() {
  PrintHeader("Elastic recovery: MTTR vs checkpoint interval and cluster size",
              "One worker fail-stops mid-run; detection via missed leases, then\n"
              "reconfigure + rollback-to-checkpoint on the survivors (virtual time).");

  const int kSteps = 12;
  std::printf("%9s %9s | %13s %12s %12s | %11s %12s %9s\n", "machines", "ckpt_int",
              "detection_ms", "recovery_ms", "rolledback", "elapsed_ms", "baseline_ms",
              "stretch");
  PrintRule();
  for (int machines : {2, 4, 8}) {
    const RecoveryPoint baseline =
        MeasurePoint(machines, /*interval=*/5, kSteps, /*crash=*/false);
    for (int interval : {1, 2, 5, 10}) {
      RecoveryPoint p = MeasurePoint(machines, interval, kSteps, /*crash=*/true);
      p.baseline_ms = baseline.elapsed_ms;
      if (!p.ok()) {
        std::printf("%9d %9d | measurement failed: %s\n", machines, interval,
                    p.error.c_str());
        continue;
      }
      const double stretch =
          p.baseline_ms > 0 ? p.elapsed_ms / p.baseline_ms : -1.0;
      std::printf("%9d %9d | %13.3f %12.3f %12d | %11.2f %12.2f %8.2fx\n", machines,
                  interval, p.detection_ms, p.recovery_ms, p.steps_rolled_back,
                  p.elapsed_ms, p.baseline_ms, stretch);
    }
    PrintRule();
  }
  std::printf("\nDetection latency is set by the lease parameters (interval, timeout,\n"
              "misses-to-confirm), not the checkpoint interval; the checkpoint interval\n"
              "buys shorter rollback at the cost of per-interval snapshot time.\n");
}

}  // namespace
}  // namespace bench
}  // namespace rdmadl

int main() {
  rdmadl::bench::Run();
  return 0;
}
