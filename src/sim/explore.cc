#include "src/sim/explore.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace sim {

Explorer* Explorer::current_ = nullptr;

const char* StallKindName(StallKind kind) {
  switch (kind) {
    case StallKind::kNone:
      return "none";
    case StallKind::kDeadlock:
      return "deadlock";
    case StallKind::kLivelock:
      return "livelock";
    case StallKind::kTimeout:
      return "timeout";
  }
  return "?";
}

int ExploreBoundFromEnv() {
  const char* env = std::getenv("RDMADL_EXPLORE");
  if (env == nullptr || *env == '\0') return 0;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<int>(value) : 0;
}

namespace {

// Extra replays the minimizer may spend on one failing trace.
constexpr uint64_t kMinimizeBudget = 96;

// Deterministic per-trace jitter stream (splitmix64): the same seed always
// perturbs the same ScheduleAfterJittered call sequence identically, which is
// what makes a jittered schedule replayable.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string ChoicesToString(const std::vector<uint32_t>& choices) {
  std::string out = "[";
  for (size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(choices[i]);
  }
  out += "]";
  return out;
}

// "52.3%" without float formatting (keeps Summary() byte-deterministic).
std::string Permille(uint64_t part, uint64_t whole) {
  if (whole == 0) return "0.0%";
  const uint64_t pm = part * 1000 / whole;
  return StrCat(pm / 10, ".", pm % 10, "%");
}

}  // namespace

// Drives one replay: forces the trace's choices at each tie point, records
// the decision log, watches tie-group members' footprints, and perturbs
// jitter-site delays from the trace's seed.
class ReplayPolicy : public SchedulePolicy {
 public:
  ReplayPolicy(const ScheduleTrace& trace, Explorer* explorer)
      : trace_(trace), explorer_(explorer), rng_state_(trace.jitter_seed) {}

  uint32_t PickTied(const std::vector<uint64_t>& seqs) override {
    Explorer::Decision decision;
    decision.arity = static_cast<uint32_t>(seqs.size());
    decision.seqs = seqs;
    uint32_t pick = 0;
    if (cursor_ < trace_.choices.size()) {
      pick = std::min(trace_.choices[cursor_], decision.arity - 1);
    }
    ++cursor_;
    decision.chosen = pick;
    // Every member of a tie group becomes footprint-watched: its accesses
    // (whenever it eventually dispatches in this run) feed the POR check for
    // branches of this decision point.
    for (uint64_t seq : seqs) footprints_.try_emplace(seq);
    decisions_.push_back(std::move(decision));
    return pick;
  }

  int64_t PerturbDelay(int64_t delay_ns) override {
    if (trace_.jitter_seed == 0 || trace_.jitter_bound_ns <= 0 || delay_ns <= 0) {
      return delay_ns;
    }
    // Uniform in [-bound, +bound], bound capped at the delay itself so the
    // perturbed delay stays non-negative (relative order with unrelated
    // events may change — that is the point — but time never runs backward).
    const int64_t bound = std::min(trace_.jitter_bound_ns, delay_ns);
    const int64_t delta =
        static_cast<int64_t>(NextRandom(&rng_state_) % (2 * bound + 1)) - bound;
    return delay_ns + delta;
  }

  void BeginEvent(int64_t /*time*/, uint64_t seq) override {
    auto it = footprints_.find(seq);
    explorer_->current_event_accesses_ = it == footprints_.end() ? nullptr : &it->second;
  }

  void EndEvent(int64_t /*time*/, uint64_t /*seq*/) override {
    explorer_->current_event_accesses_ = nullptr;
  }

  std::vector<Explorer::Decision> TakeDecisions() { return std::move(decisions_); }
  Explorer::Footprints TakeFootprints() { return std::move(footprints_); }

 private:
  const ScheduleTrace& trace_;
  Explorer* explorer_;
  uint64_t rng_state_;
  size_t cursor_ = 0;
  std::vector<Explorer::Decision> decisions_;
  Explorer::Footprints footprints_;
};

Explorer::Explorer(ExploreOptions options) : options_(std::move(options)) {}

Explorer::~Explorer() { CHECK(current_ != this) << "Explorer destroyed mid-replay"; }

void Explorer::RecordAccess(int host, uint64_t lo, uint64_t hi) {
  if (current_event_accesses_ == nullptr || lo >= hi) return;
  // Coalesce the common pattern of repeated identical reports (flag polls).
  for (const AccessRange& r : *current_event_accesses_) {
    if (r.host == host && r.lo == lo && r.hi == hi) return;
  }
  current_event_accesses_->push_back(AccessRange{host, lo, hi});
}

Explorer::RunOutcome Explorer::RunOne(const ExploreWorkload& workload,
                                      const ScheduleTrace& trace) {
  CHECK(current_ == nullptr) << "nested schedule exploration is not supported";
  ReplayPolicy policy(trace, this);
  RunOutcome out;
  {
    Simulator simulator;
    simulator.set_schedule_policy(&policy);
    current_ = this;
    out.report = workload(simulator);
    current_ = nullptr;
    current_event_accesses_ = nullptr;
    simulator.set_schedule_policy(nullptr);
  }
  out.decisions = policy.TakeDecisions();
  out.footprints = policy.TakeFootprints();
  return out;
}

RunReport Explorer::Replay(const ExploreWorkload& workload, const ScheduleTrace& trace) {
  return RunOne(workload, trace).report;
}

bool Explorer::IndependentOfEarlier(const Decision& decision, uint32_t alt,
                                    const Footprints& footprints) {
  const auto find = [&footprints](uint64_t seq) -> const std::vector<AccessRange>* {
    auto it = footprints.find(seq);
    return it == footprints.end() ? nullptr : &it->second;
  };
  // Dispatching member |alt| first reorders it ahead of members 0..alt-1
  // only (the rest keep their relative order). The branch is redundant when
  // |alt| commutes with each of them: all footprints known, non-empty, and
  // pairwise disjoint. An event the checkers saw nothing from is treated as
  // conflicting — its effects are unknown, so the branch is kept.
  const std::vector<AccessRange>* a = find(decision.seqs[alt]);
  if (a == nullptr || a->empty()) return false;
  for (uint32_t i = 0; i < alt; ++i) {
    const std::vector<AccessRange>* b = find(decision.seqs[i]);
    if (b == nullptr || b->empty()) return false;
    for (const AccessRange& ra : *a) {
      for (const AccessRange& rb : *b) {
        if (ra.host == rb.host && ra.lo < rb.hi && rb.lo < ra.hi) return false;
      }
    }
  }
  return true;
}

ExploreResult Explorer::Explore(const ExploreWorkload& workload) {
  ExploreResult result;
  ExploreStats& stats = result.stats;
  const auto wall_start = std::chrono::steady_clock::now();

  // LIFO frontier. The canonical schedule is pushed last so it runs first;
  // jitter probes follow, then DFS over tie-choice branches.
  std::vector<ScheduleTrace> frontier;
  for (int j = options_.jitter_schedules; j >= 1; --j) {
    ScheduleTrace probe;
    probe.jitter_seed = static_cast<uint64_t>(j);
    probe.jitter_bound_ns = options_.jitter_bound_ns;
    frontier.push_back(std::move(probe));
  }
  frontier.push_back(ScheduleTrace{});
  const size_t frontier_cap =
      std::max<size_t>(256, 8 * static_cast<size_t>(options_.max_schedules));

  while (!frontier.empty() &&
         stats.schedules_run < static_cast<uint64_t>(options_.max_schedules)) {
    ScheduleTrace trace = std::move(frontier.back());
    frontier.pop_back();
    RunOutcome out = RunOne(workload, trace);
    ++stats.schedules_run;
    if (!out.report.failure_class.empty()) {
      result.failure_found = true;
      result.first_failure = std::move(out.report);
      result.failing_trace = std::move(trace);
      break;
    }
    // Branch at every decision point this run reached beyond its forced
    // prefix. Points inside the prefix belong to ancestor runs (counting
    // them again would double-book the tree).
    for (size_t k = trace.choices.size(); k < out.decisions.size(); ++k) {
      const Decision& decision = out.decisions[k];
      ++stats.decision_points;
      stats.max_tie_arity = std::max<uint64_t>(stats.max_tie_arity, decision.arity);
      stats.naive_branches += decision.arity - 1;
      for (uint32_t alt = 1; alt < decision.arity; ++alt) {
        if (options_.use_por && IndependentOfEarlier(decision, alt, out.footprints)) {
          ++stats.branches_pruned;
          continue;
        }
        if (frontier.size() >= frontier_cap) {
          ++stats.frontier_dropped;
          continue;
        }
        ScheduleTrace child;
        child.jitter_seed = trace.jitter_seed;
        child.jitter_bound_ns = trace.jitter_bound_ns;
        child.choices.reserve(k + 1);
        for (size_t i = 0; i < k; ++i) child.choices.push_back(out.decisions[i].chosen);
        child.choices.push_back(alt);
        frontier.push_back(std::move(child));
        ++stats.branches_enqueued;
      }
    }
  }

  if (result.failure_found) {
    result.minimized_trace = result.failing_trace;
    if (options_.minimize) {
      result.minimized_trace =
          Minimize(workload, result.failing_trace, result.first_failure.failure_class, &stats);
    }
    result.minimized_report = Replay(workload, result.minimized_trace);
    if (!options_.artifact_path.empty()) {
      const Status written = WriteTraceArtifact(options_.artifact_path, options_.name,
                                                result.minimized_trace,
                                                result.minimized_report);
      if (!written.ok()) {
        LOG(ERROR) << "failed to write explore artifact: " << written;
      }
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const uint64_t total_runs =
      stats.schedules_run + stats.minimize_runs + (result.failure_found ? 1 : 0);
  stats.schedules_per_sec = wall_s > 0 ? static_cast<double>(total_runs) / wall_s : 0.0;
  return result;
}

ScheduleTrace Explorer::Minimize(const ExploreWorkload& workload, const ScheduleTrace& failing,
                                 const std::string& failure_class, ExploreStats* stats) {
  const auto fails = [&](const ScheduleTrace& candidate) {
    if (stats->minimize_runs >= kMinimizeBudget) return false;
    ++stats->minimize_runs;
    return RunOne(workload, candidate).report.failure_class == failure_class;
  };

  ScheduleTrace best = failing;
  // Pass 1: drop the jitter dimension when the tie choices alone reproduce.
  if (best.jitter_seed != 0) {
    ScheduleTrace candidate = best;
    candidate.jitter_seed = 0;
    candidate.jitter_bound_ns = 0;
    if (fails(candidate)) best = std::move(candidate);
  }
  // Pass 2: shortest failing prefix. Every successful probe verified the
  // truncated trace, so the final resize is to a verified-failing length.
  size_t lo = 0;
  size_t hi = best.choices.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    ScheduleTrace candidate = best;
    candidate.choices.resize(mid);
    if (fails(candidate)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  best.choices.resize(hi);
  // Pass 3: canonicalize choices back to 0 where the failure persists.
  for (size_t i = 0; i < best.choices.size(); ++i) {
    if (best.choices[i] == 0) continue;
    ScheduleTrace candidate = best;
    candidate.choices[i] = 0;
    if (fails(candidate)) best = std::move(candidate);
  }
  // Trailing zeros are the canonical default — dropping them changes nothing.
  while (!best.choices.empty() && best.choices.back() == 0) best.choices.pop_back();
  return best;
}

std::string ExploreResult::Summary() const {
  std::string out = StrCat("schedules run: ", stats.schedules_run, "\n");
  out += StrCat("decision points: ", stats.decision_points,
                " (max tie arity ", stats.max_tie_arity, ")\n");
  out += StrCat("naive branches: ", stats.naive_branches, ", por pruned: ",
                stats.branches_pruned, " (", Permille(stats.branches_pruned, stats.naive_branches),
                "), enqueued: ", stats.branches_enqueued, ", frontier dropped: ",
                stats.frontier_dropped, "\n");
  if (!failure_found) {
    out += "result: clean\n";
    return out;
  }
  out += StrCat("result: FAILURE class=", first_failure.failure_class, "\n");
  out += StrCat("failing trace: choices=", ChoicesToString(failing_trace.choices),
                " jitter_seed=", failing_trace.jitter_seed, "\n");
  out += StrCat("minimized (", stats.minimize_runs, " probe(s)): choices=",
                ChoicesToString(minimized_trace.choices), " jitter_seed=",
                minimized_trace.jitter_seed, " -> class=", minimized_report.failure_class,
                "\n");
  if (minimized_report.stall.kind != StallKind::kNone) {
    out += StrCat("stall: ", StallKindName(minimized_report.stall.kind), ": ",
                  minimized_report.stall.message, "\n");
  }
  return out;
}

// ---- replayable artifacts -------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string TraceToJson(const std::string& workload_name, const ScheduleTrace& trace,
                        const RunReport& report) {
  std::string json = "{\n";
  json += StrCat("  \"workload\": \"", JsonEscape(workload_name), "\",\n");
  json += "  \"choices\": [";
  for (size_t i = 0; i < trace.choices.size(); ++i) {
    if (i > 0) json += ", ";
    json += StrCat(trace.choices[i]);
  }
  json += "],\n";
  json += StrCat("  \"jitter_seed\": ", trace.jitter_seed, ",\n");
  json += StrCat("  \"jitter_bound_ns\": ", trace.jitter_bound_ns, ",\n");
  json += StrCat("  \"failure_class\": \"", JsonEscape(report.failure_class), "\",\n");
  json += StrCat("  \"status\": \"", JsonEscape(report.status.ToString()), "\",\n");
  json += StrCat("  \"stall\": \"", JsonEscape(StrCat(StallKindName(report.stall.kind),
                                                      report.stall.message.empty() ? "" : ": ",
                                                      report.stall.message)),
                 "\"\n");
  json += "}\n";
  return json;
}

StatusOr<ScheduleTrace> TraceFromJson(const std::string& json) {
  // Minimal parser for the artifact's own fixed shape: three known scalar
  // keys plus one flat integer array. Not a general JSON reader.
  const auto find_number = [&json](std::string_view key, int64_t* out) -> bool {
    const std::string needle = StrCat("\"", key, "\":");
    const size_t at = json.find(needle);
    if (at == std::string::npos) return false;
    *out = std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
    return true;
  };
  ScheduleTrace trace;
  const size_t choices_at = json.find("\"choices\":");
  if (choices_at == std::string::npos) {
    return Status(StatusCode::kInvalidArgument, "artifact has no \"choices\" key");
  }
  const size_t open = json.find('[', choices_at);
  const size_t close = json.find(']', choices_at);
  if (open == std::string::npos || close == std::string::npos || close < open) {
    return Status(StatusCode::kInvalidArgument, "malformed \"choices\" array");
  }
  std::istringstream items(json.substr(open + 1, close - open - 1));
  std::string item;
  while (std::getline(items, item, ',')) {
    if (item.find_first_not_of(" \t\n") == std::string::npos) continue;
    trace.choices.push_back(static_cast<uint32_t>(std::strtoul(item.c_str(), nullptr, 10)));
  }
  int64_t value = 0;
  if (find_number("jitter_seed", &value)) trace.jitter_seed = static_cast<uint64_t>(value);
  if (find_number("jitter_bound_ns", &value)) trace.jitter_bound_ns = value;
  return trace;
}

Status WriteTraceArtifact(const std::string& path, const std::string& workload_name,
                          const ScheduleTrace& trace, const RunReport& report) {
  std::ofstream out(path);
  if (!out) return Status(StatusCode::kInternal, StrCat("cannot open ", path));
  out << TraceToJson(workload_name, trace, report);
  out.close();
  if (!out) return Status(StatusCode::kInternal, StrCat("failed writing ", path));
  return OkStatus();
}

StatusOr<ScheduleTrace> ReadTraceArtifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status(StatusCode::kNotFound, StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TraceFromJson(buffer.str());
}

}  // namespace sim
}  // namespace rdmadl
