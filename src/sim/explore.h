// sim::Explorer: a stateless (CHESS/Coyote-style) model checker for the
// deterministic discrete-event simulator.
//
// A run of the simulator is fully determined by its inputs, so the *only*
// legal alternative histories are (a) permutations of events that tie at the
// same virtual timestamp — the (time, seq) tie-break is a modeling artifact,
// not physics — and (b) bounded perturbations of delays at sites that declare
// themselves scheduling noise via Simulator::ScheduleAfterJittered (poll
// intervals, NIC processing overheads). The explorer re-runs a workload once
// per schedule: a ScheduleTrace records, for each tie of two or more events,
// which member dispatched first, plus a jitter seed. Depth-first enumeration
// over decision prefixes covers the schedule tree without revisits; replaying
// any trace reproduces its run bit-for-bit.
//
// Partial-order reduction: each event observed in a tie group accumulates a
// footprint — the (host, address range) set it touched, reported by shadow
// checkers (RdmaCheck) through OnExploreAccess. A branch that would merely
// commute events with disjoint footprints is pruned: the reordered run would
// re-observe the parent's states. This is the classic stateless-MC
// approximation (footprints come from the parent run's observation, and
// events invisible to the checker are conservatively treated as conflicting —
// an event with an empty footprint is never pruned against).
//
// Failures are classified (checker diagnostic, deadlock, livelock, timeout,
// plain error) into a stable `failure_class` string; a delta-debugging
// minimizer then shrinks the failing trace — shortest failing prefix, then
// canonicalizing choices back to 0 — to a minimal reproducer that can be
// dumped as a replayable JSON artifact.
#ifndef RDMADL_SRC_SIM_EXPLORE_H_
#define RDMADL_SRC_SIM_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace rdmadl {
namespace sim {

// One alternative history: at the k-th tie point of the run, dispatch the
// choices[k]-th member of the group (ascending-seq order); past the end of
// |choices| the canonical member (index 0) dispatches. jitter_seed != 0
// additionally perturbs every ScheduleAfterJittered delay by a deterministic
// draw in [-jitter_bound_ns, +jitter_bound_ns] (clamped so delays stay >= 0).
struct ScheduleTrace {
  std::vector<uint32_t> choices;
  uint64_t jitter_seed = 0;
  int64_t jitter_bound_ns = 0;
};

enum class StallKind {
  kNone = 0,
  kDeadlock,  // Event queue drained with the workload incomplete.
  kLivelock,  // Event cap hit: pollers rescheduling forever without progress.
  kTimeout,   // Virtual-time deadline elapsed with events still queued.
};
const char* StallKindName(StallKind kind);

// Typed stall diagnostic: what the run was waiting on when it stopped making
// progress (filled in by the check-layer harness from RdmaCheck's pending
// flag/WR shadow state).
struct StallDiagnostic {
  StallKind kind = StallKind::kNone;
  std::string message;
};

// What one replay produced. An empty failure_class means the run was clean;
// otherwise the class is a stable, schedule-independent label ("check:<kind>",
// "stall:deadlock", "fail:<status code>", ...) used to decide whether two
// schedules exhibit the same bug (the minimizer's equivalence relation).
struct RunReport {
  Status status = OkStatus();
  std::string failure_class;
  StallDiagnostic stall;
  std::string details;  // Full human-readable report (checker output etc).
};

// A workload builds its whole world on the supplied (fresh) simulator, runs
// it, and reports. It must be a pure function of the simulator's schedule:
// no wall-clock, no global mutable state carried across calls.
using ExploreWorkload = std::function<RunReport(Simulator&)>;

struct ExploreOptions {
  std::string name;        // For reports and artifacts.
  int max_schedules = 64;  // Replay budget for the enumeration phase.
  bool use_por = true;     // Prune commuting-only branches.
  // Jitter probes: schedules 2..2+jitter_schedules run the canonical choice
  // sequence under per-seed delay perturbation (and branch like any other).
  int jitter_schedules = 4;
  int64_t jitter_bound_ns = 200;
  bool minimize = true;  // Delta-debug the first failing trace (<= 96 replays).
  std::string artifact_path;  // Non-empty: dump the minimized repro as JSON.
};

struct ExploreStats {
  uint64_t schedules_run = 0;
  uint64_t decision_points = 0;   // Tie groups of arity >= 2 encountered.
  uint64_t naive_branches = 0;    // Sum over decision points of (arity - 1).
  uint64_t branches_pruned = 0;   // Dropped by partial-order reduction.
  uint64_t branches_enqueued = 0;
  uint64_t frontier_dropped = 0;  // Dropped because the frontier hit its cap.
  uint64_t max_tie_arity = 0;
  uint64_t minimize_runs = 0;
  // Wall-clock throughput; excluded from Summary() so two-run diffs of
  // explorer output stay byte-identical (report it to stderr only).
  double schedules_per_sec = 0.0;
};

struct ExploreResult {
  bool failure_found = false;
  RunReport first_failure;
  ScheduleTrace failing_trace;    // As first encountered.
  ScheduleTrace minimized_trace;  // After ddmin (== failing_trace if off).
  RunReport minimized_report;     // From replaying minimized_trace.
  ExploreStats stats;

  // Deterministic multi-line report (no wall-clock content).
  std::string Summary() const;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions options = ExploreOptions{});
  ~Explorer();

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  // Enumerates schedules until a failure is found or the budget is spent.
  ExploreResult Explore(const ExploreWorkload& workload);

  // Replays one schedule (e.g. a minimized artifact) and returns its report.
  RunReport Replay(const ExploreWorkload& workload, const ScheduleTrace& trace);

  // The explorer currently replaying a workload, if any (mirrors
  // RdmaCheck::Current): shadow checkers feed event footprints through this.
  static Explorer* Current() { return current_; }

  // Attributes [lo, hi) on |host| to the event being dispatched.
  void RecordAccess(int host, uint64_t lo, uint64_t hi);

  const ExploreOptions& options() const { return options_; }

 private:
  friend class ReplayPolicy;

  struct Decision {
    uint32_t arity = 0;
    uint32_t chosen = 0;
    std::vector<uint64_t> seqs;  // Ascending: the canonical group order.
  };
  struct AccessRange {
    int host = -1;
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  using Footprints = std::map<uint64_t, std::vector<AccessRange>>;  // By seq.
  struct RunOutcome {
    RunReport report;
    std::vector<Decision> decisions;
    Footprints footprints;
  };

  RunOutcome RunOne(const ExploreWorkload& workload, const ScheduleTrace& trace);
  // True if dispatching group member |alt| first provably commutes with every
  // member it overtakes (disjoint non-empty footprints).
  static bool IndependentOfEarlier(const Decision& decision, uint32_t alt,
                                   const Footprints& footprints);
  ScheduleTrace Minimize(const ExploreWorkload& workload, const ScheduleTrace& failing,
                         const std::string& failure_class, ExploreStats* stats);

  static Explorer* current_;

  ExploreOptions options_;
  // Set by ReplayPolicy for the duration of each event dispatch.
  std::vector<AccessRange>* current_event_accesses_ = nullptr;
};

// Hook for shadow checkers: attributes the access to the event currently
// being dispatched in an exploration replay. One pointer load when idle.
inline void OnExploreAccess(int host, uint64_t lo, uint64_t hi) {
  if (Explorer* e = Explorer::Current()) e->RecordAccess(host, lo, hi);
}

// RDMADL_EXPLORE=<bound> mirrors RDMADL_CHECK: 0 / unset / empty disables
// exploration (suites then run their canonical schedule once); a positive
// integer is the per-workload schedule budget.
int ExploreBoundFromEnv();

// ---- replayable artifacts -------------------------------------------------

// {"workload": ..., "choices": [...], "jitter_seed": N, "jitter_bound_ns": N,
//  "failure_class": ..., "status": ..., "stall": ...}
std::string TraceToJson(const std::string& workload_name, const ScheduleTrace& trace,
                        const RunReport& report);
StatusOr<ScheduleTrace> TraceFromJson(const std::string& json);
Status WriteTraceArtifact(const std::string& path, const std::string& workload_name,
                          const ScheduleTrace& trace, const RunReport& report);
StatusOr<ScheduleTrace> ReadTraceArtifact(const std::string& path);

}  // namespace sim
}  // namespace rdmadl

#endif  // RDMADL_SRC_SIM_EXPLORE_H_
