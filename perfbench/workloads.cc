// Benchmark binary: runs one named workload against the library's public API
// in a closed loop (one thread, each step issued after the previous one
// completes) and prints one JSON object of raw measurements on stdout.
// perfbench/run.py builds it, turns the samples into metrics and
// judges them; README.md in this directory defines every metric.
//
//   perfbench --workload NAME --seed N --seconds S
//               [--setup-reps K] [--steps N] [--trace-out PATH]
//
// Without --trace-out: K fresh set-ups (construction + warm-up step), then a
// timed window on the last one: the workload's counted steps, then more steps
// until S host seconds have passed (or exactly N steps with --steps).
// Virtual-clock values and counters cover the counted steps only, so they
// repeat exactly for a seed however fast the host is. With --trace-out: two
// fresh instances run the same steps, the second with sim::Tracer installed
// around its window; the trace is written to PATH and both instances'
// samples are printed, so the caller can assert that tracing left the model
// untouched.
//
// Every set-up and timed step is bracketed by runs of a fixed calibration
// kernel, so run.py can scale host times by how fast the host ran beside
// them (README.md, "Clocks").
//
// The seed is the workload's only input. It seeds the fault injector that is
// attached after the warm-up step (per-transfer link jitter on every
// workload, plus per-host compute stragglers on the congested one) and the
// data of the all-reduce correctness check. Set-up and the warm-up step run
// the seed-free configuration, which is what the history cross-check against
// BENCH_7.json needs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/collective/collective.h"
#include "src/device/rdma_device.h"
#include "src/models/model_spec.h"
#include "src/net/congestion.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/train/ps_training.h"
#include "src/util/status.h"

namespace rdmadl {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fixed host work shaped like the simulator's dispatch loop: a min-heap of
// std::function events, each doing string-keyed hash lookups and scheduling
// a successor. This code never changes with the library, so timing it beside
// every set-up and step tells how fast this host runs at that moment; the
// host-clock metrics are scaled by it (README.md, "Clocks").
class Calibration {
 public:
  Calibration() {
    const std::string pad(48, '/');
    for (int i = 0; i < kKeys; ++i) {
      keys_.push_back("worker:" + std::to_string(i % 16) + "/ps:" + std::to_string(i % 7) + pad +
                      "edge_" + std::to_string(i));
      table_[keys_.back()] = i;
    }
    Seconds();  // Untimed: first-touch page faults would inflate the first sample.
  }

  // Host seconds for one fixed run of the kernel.
  double Seconds() {
    struct Event {
      int64_t time;
      uint64_t seq;
      std::function<void()> cb;
      bool operator>(const Event& o) const {
        return time != o.time ? time > o.time : seq > o.seq;
      }
    };
    std::vector<Event> heap;
    uint64_t seq = 0;
    uint64_t x = 88172645463325252ull;
    const Clock::time_point start = Clock::now();
    std::function<void(int64_t)> schedule = [&](int64_t at) {
      heap.push_back(Event{at, seq++, [&, at] {
                             x ^= x << 13;
                             x ^= x >> 7;
                             x ^= x << 17;
                             for (uint64_t l = 0; l < kLookupsPerEvent; ++l) {
                               sink_ += table_.find(keys_[(x + l * 7919) % kKeys])->second;
                             }
                             schedule(at + static_cast<int64_t>(x % 1000));
                           }});
      std::push_heap(heap.begin(), heap.end(), std::greater<Event>{});
    };
    for (int i = 0; i < 64; ++i) schedule(i);
    for (int i = 0; i < kEvents; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<Event>{});
      Event event = std::move(heap.back());
      heap.pop_back();
      event.cb();
    }
    return SecondsSince(start);
  }

  int64_t sink() const { return sink_; }

 private:
  static constexpr int kKeys = 4096;
  static constexpr uint64_t kLookupsPerEvent = 4;
  static constexpr int kEvents = 50'000;

  std::vector<std::string> keys_;
  std::unordered_map<std::string, int64_t> table_;
  int64_t sink_ = 0;  // Keeps the lookups observable.
};

// A workload in its closed loop. Construct() builds everything up to the first
// step; Step() issues one step (a training step or one all-reduce) and runs
// the simulator until it completes.
class Workload {
 public:
  // |seed_spec| is what the seed draws once attached (jitter, stragglers);
  // |counted_steps| is how many timed steps the virtual-clock metrics and
  // counters cover.
  Workload(sim::StragglerSpec seed_spec, int counted_steps)
      : seed_spec_(seed_spec), counted_steps_(counted_steps) {}
  virtual ~Workload() = default;
  int counted_steps() const { return counted_steps_; }

  // Attaches a fault injector seeded with |seed| (after the warm-up step).
  // The base class owns it, so it outlives the fabric that points at it.
  void AttachSeed(uint64_t seed) {
    injector_ = std::make_unique<sim::FaultInjector>(seed);
    injector_->ConfigureStragglers(seed_spec_, num_hosts());
    fabric()->SetFaultInjector(injector_.get());
  }

  virtual Status Construct() = 0;
  virtual Status Step() = 0;
  virtual sim::Simulator* simulator() = 0;
  // Cumulative public counters; gauges are read as-is.
  virtual Counters ReadCounters() = 0;
  // Output checks after the timed window: name -> passed.
  virtual std::map<std::string, bool> Check(const Counters& window) = 0;

 protected:
  virtual net::Fabric* fabric() = 0;
  virtual int num_hosts() const = 0;

 private:
  const sim::StragglerSpec seed_spec_;
  const int counted_steps_;
  std::unique_ptr<sim::FaultInjector> injector_;
};

void AddNicAndFabric(rdma::RdmaFabric* rdma, net::Fabric* fabric, int hosts,
                     device::DeviceDirectory* directory, Counters* c) {
  double max_nic_qps = 0;
  for (int h = 0; h < hosts; ++h) {
    const rdma::NicDevice* nic = rdma->nic(h);
    const rdma::NicStats& s = nic->stats();
    (*c)["nic.wrs"] += static_cast<double>(s.writes + s.reads + s.sends);
    (*c)["nic.write_bytes"] += static_cast<double>(s.write_bytes);
    (*c)["nic.doorbells"] += static_cast<double>(s.doorbells);
    (*c)["nic.retransmissions"] += static_cast<double>(s.retransmissions);
    (*c)["nic.cnps"] += static_cast<double>(s.cnps_received);
    (*c)["nic.dcqcn_decreases"] += static_cast<double>(s.dcqcn_rate_decreases);
    (*c)["nic.pacing_ns"] += static_cast<double>(s.dcqcn_pacing_delay_ns_total);
    (*c)["nic.registrations"] += static_cast<double>(s.registrations);
    (*c)["nic.qps"] += nic->num_queue_pairs();
    max_nic_qps = std::max<double>(max_nic_qps, nic->num_queue_pairs());
  }
  (*c)["nic.max_qps"] = max_nic_qps;
  const rdma::QpPool* pool = directory->qp_pool();
  (*c)["pool.lanes"] = pool->num_lanes();
  (*c)["pool.hits"] = static_cast<double>(pool->stats().hits);
  (*c)["pool.creates"] = static_cast<double>(pool->stats().creates);
  const net::TransferStats& t = fabric->stats(net::Plane::kRdma);
  (*c)["net.transfers"] = static_cast<double>(t.transfers);
  (*c)["net.bytes"] = static_cast<double>(t.bytes);
  const net::CongestionStats cc = fabric->congestion_totals();
  (*c)["net.ecn_marks"] = static_cast<double>(cc.ecn_marks);
  (*c)["net.overflow_drops"] = static_cast<double>(cc.overflow_drops);
  (*c)["net.paused_ns"] = static_cast<double>(cc.paused_ns_total);
  (*c)["net.peak_backlog_ns"] = static_cast<double>(cc.peak_backlog_ns);
}

// Parameter-server training with one worker and one colocated PS per machine
// (paper §5), over the zero-copy RDMA mechanism.
class PsWorkload : public Workload {
 public:
  PsWorkload(train::TrainingConfig config, sim::StragglerSpec seed_spec, int counted_steps)
      : Workload(seed_spec, counted_steps), config_(std::move(config)) {}

  Status Construct() override {
    driver_ = std::make_unique<train::TrainingDriver>(config_);
    return driver_->Initialize(/*warmup_steps=*/0);
  }

  Status Step() override { return driver_->RunStep(); }

  sim::Simulator* simulator() override { return driver_->cluster()->simulator(); }

  Counters ReadCounters() override {
    Counters c;
    c["sim.events"] = static_cast<double>(simulator()->events_dispatched());
    for (const std::string& device : driver_->cluster()->device_names()) {
      const runtime::ExecutorStats& s = driver_->session()->executor_for(device)->stats();
      c["exec.nodes"] += static_cast<double>(s.nodes_executed);
      c["exec.polls"] += static_cast<double>(s.poll_attempts);
      c["exec.failed_polls"] += static_cast<double>(s.failed_polls);
    }
    const comm::ZeroCopyStats& z = driver_->zerocopy_mechanism()->stats();
    c["comm.zero_copy_sends"] = static_cast<double>(z.zero_copy_sends);
    c["comm.fallback_sends"] =
        static_cast<double>(z.staged_sends + z.degraded_sends + z.pcie_fallback_sends);
    c["comm.coalesced_sends"] = static_cast<double>(z.coalesced_sends);
    c["comm.striped_sends"] = static_cast<double>(z.striped_sends);
    runtime::Cluster* cluster = driver_->cluster();
    AddNicAndFabric(cluster->rdma_fabric(), cluster->fabric(), config_.num_machines,
                    cluster->directory(), &c);
    return c;
  }

  std::map<std::string, bool> Check(const Counters& window) override {
    const double sends = window.at("comm.zero_copy_sends") + window.at("comm.fallback_sends");
    return {
        {"zero_copy_share_is_1", sends > 0 && window.at("comm.zero_copy_sends") == sends},
        {"no_fallback_sends", window.at("comm.fallback_sends") == 0},
        {"no_overflow_drops", window.at("net.overflow_drops") == 0},
    };
  }

 private:
  net::Fabric* fabric() override { return driver_->cluster()->fabric(); }
  int num_hosts() const override { return config_.num_machines; }

  train::TrainingConfig config_;
  std::unique_ptr<train::TrainingDriver> driver_;
};

// A bare CollectiveGroup (virtual payloads) on a rack/spine fabric, one
// all-reduce per step.
class AllReduceWorkload : public Workload {
 public:
  AllReduceWorkload(int hosts, net::TopologyConfig topology, uint64_t elements,
                    sim::StragglerSpec seed_spec, int counted_steps)
      : Workload(seed_spec, counted_steps),
        hosts_(hosts),
        topology_(topology),
        elements_(elements) {}

  Status Construct() override {
    fabric_ = std::make_unique<net::Fabric>(&simulator_, net::CostModel{}, hosts_, topology_);
    rdma_ = std::make_unique<rdma::RdmaFabric>(fabric_.get());
    directory_ = std::make_unique<device::DeviceDirectory>(rdma_.get());
    collective::CollectiveOptions options;
    options.algorithm = collective::Algorithm::kAuto;
    options.materialize = false;
    std::vector<int> ids(hosts_);
    std::iota(ids.begin(), ids.end(), 0);
    auto group = collective::CollectiveGroup::Create(directory_.get(), ids, elements_, options);
    if (!group.ok()) return group.status();
    group_ = std::move(*group);
    return OkStatus();
  }

  Status Step() override {
    bool done = false;
    Status status = Internal("all-reduce never completed");
    group_->AllReduce(elements_, [&](const Status& s) {
      done = true;
      status = s;
    });
    RDMADL_RETURN_IF_ERROR(simulator_.RunUntilPredicate([&] { return done; }));
    return status;
  }

  sim::Simulator* simulator() override { return &simulator_; }

  Counters ReadCounters() override {
    Counters c;
    c["sim.events"] = static_cast<double>(simulator_.events_dispatched());
    const collective::CollectiveStats& s = group_->stats();
    c["coll.chunk_writes"] = static_cast<double>(s.ring_steps);
    c["coll.bytes"] = static_cast<double>(s.bytes_sent);
    c["coll.setup_rpcs"] = static_cast<double>(s.setup_rpcs);
    AddNicAndFabric(rdma_.get(), fabric_.get(), hosts_, directory_.get(), &c);
    return c;
  }

  std::map<std::string, bool> Check(const Counters& window) override {
    return {{"auto_resolves_to_hierarchical",
             group_->algorithm() == collective::Algorithm::kHierarchical}};
  }

 private:
  net::Fabric* fabric() override { return fabric_.get(); }
  int num_hosts() const override { return hosts_; }

  int hosts_;
  net::TopologyConfig topology_;
  uint64_t elements_;
  // Declaration order is teardown order, reversed: the group goes first.
  sim::Simulator simulator_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<rdma::RdmaFabric> rdma_;
  std::unique_ptr<device::DeviceDirectory> directory_;
  std::unique_ptr<collective::CollectiveGroup> group_;
};

// A small all-reduce with real memory at the all-reduce workload's scale and
// algorithm: integer-valued inputs drawn from |seed| keep every partial sum
// exact in float, so every rank's result must equal this program's own sum bit
// for bit. Runs on a fabric of its own, after the timed instance is gone.
bool MaterializedSumIsExact(int hosts, const net::TopologyConfig& topology, uint64_t seed) {
  constexpr uint64_t kCount = 4096;
  sim::Simulator simulator;
  net::Fabric fabric(&simulator, net::CostModel{}, hosts, topology);
  rdma::RdmaFabric rdma(&fabric);
  device::DeviceDirectory directory(&rdma);
  collective::CollectiveOptions options;
  options.algorithm = collective::Algorithm::kAuto;
  options.materialize = true;
  std::vector<int> ids(hosts);
  std::iota(ids.begin(), ids.end(), 0);
  auto group = collective::CollectiveGroup::Create(&directory, ids, kCount, options);
  if (!group.ok()) return false;
  if ((*group)->algorithm() != collective::Algorithm::kHierarchical) return false;
  sim::Rng rng(seed);
  std::vector<int64_t> expected(kCount, 0);
  for (int r = 0; r < hosts; ++r) {
    float* data = (*group)->data(r);
    for (uint64_t i = 0; i < kCount; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(17)) - 8;
      data[i] = static_cast<float>(v);
      expected[i] += v;
    }
  }
  bool done = false;
  Status status = Internal("materialized all-reduce never completed");
  (*group)->AllReduce(kCount, [&](const Status& s) {
    done = true;
    status = s;
  });
  if (!simulator.RunUntilPredicate([&] { return done; }).ok() || !status.ok()) return false;
  for (int r = 0; r < hosts; ++r) {
    const float* data = (*group)->data(r);
    for (uint64_t i = 0; i < kCount; ++i) {
      const float want = static_cast<float>(expected[i]);
      if (std::memcmp(&data[i], &want, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

net::CongestionConfig BoundedQueues() {
  net::CongestionConfig cc;
  cc.queue_capacity_bytes = 4ull << 20;
  cc.ecn_threshold_bytes = 512ull << 10;
  cc.pause_on_overflow = true;
  cc.dcqcn = true;
  return cc;
}

net::TopologyConfig Rack32Oversubscribed4() {
  net::TopologyConfig topology;
  topology.hosts_per_rack = 32;
  topology.oversubscription = 4.0;
  return topology;
}

constexpr int kAllReduceHosts = 1000;

// Seeded per-transfer link jitter in [0, max_ns).
sim::StragglerSpec Jitter(int64_t max_ns) {
  sim::StragglerSpec spec;
  spec.jitter_max_ns = max_ns;
  return spec;
}

// The three workloads; README.md says why each exists and why the jitter
// and counted steps differ.
std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ps-inception-8") {
    train::TrainingConfig config;
    config.model = models::InceptionV3();
    config.num_machines = 8;
    config.batch_size = 32;
    config.mechanism = train::MechanismKind::kRdmaZeroCopy;
    return std::make_unique<PsWorkload>(std::move(config), Jitter(200), /*counted_steps=*/5);
  }
  if (name == "allreduce-auto-1000") {
    return std::make_unique<AllReduceWorkload>(kAllReduceHosts, Rack32Oversubscribed4(),
                                               /*elements=*/uint64_t{1} << 20, Jitter(2),
                                               /*counted_steps=*/16);
  }
  if (name == "ps-vgg16-congested-16") {
    train::TrainingConfig config;
    config.model = models::Vgg16();
    config.num_machines = 16;
    config.batch_size = 32;
    config.mechanism = train::MechanismKind::kRdmaZeroCopy;
    config.topology.hosts_per_rack = 8;
    config.topology.oversubscription = 4.0;
    config.topology.congestion = BoundedQueues();
    config.cost.rdma_qp_engine_bytes_per_sec = 3.125e9;
    sim::StragglerSpec stragglers = Jitter(2'000);
    stragglers.straggler_probability = 0.2;
    stragglers.dilation_min = 1.1;
    stragglers.dilation_max = 1.4;
    return std::make_unique<PsWorkload>(std::move(config), stragglers, /*counted_steps=*/3);
  }
  return nullptr;
}

// Checks that need no live instance, run after the timed one is torn down.
std::map<std::string, bool> StandaloneChecks(const std::string& workload, uint64_t seed) {
  if (workload != "allreduce-auto-1000") return {};
  return {{"materialized_sum_bit_exact",
           MaterializedSumIsExact(kAllReduceHosts, Rack32Oversubscribed4(), seed)}};
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 16;
  int setup_reps = 3;
  int steps = 0;  // > 0: exactly this many timed steps instead of --seconds.
  std::string trace_out;
};

// One instance's measurements. Counters are read before the window, after
// its counted steps, and at its end.
struct Sample {
  std::vector<double> setup_s;      // Construction start -> warm-up step end.
  std::vector<double> construct_s;  // Construct() alone.
  std::vector<double> warmup_s;     // The first step alone.
  double warmup_virtual_ms = 0;     // Virtual time of the first step.
  std::vector<double> step_host_s;
  std::vector<double> step_virtual_ms;
  // Calibration kernel seconds before each set-up and after the last one,
  // and before each timed step and after the last one.
  std::vector<double> setup_calibration_s;
  std::vector<double> calibration_s;
  int counted_steps = 0;
  int steps_failed = 0;
  std::string failure;
  double window_host_s = 0;
  Counters after_warmup;
  Counters before;
  Counters counted;
  Counters after;
  std::map<std::string, bool> checks;
};

// Builds |reps| fresh instances, timing each set-up; returns the last one.
std::unique_ptr<Workload> SetUp(const std::string& name, int reps, Calibration* calibration,
                                Sample* sample) {
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < reps; ++rep) {
    workload.reset();
    workload = MakeWorkload(name);
    sample->setup_calibration_s.push_back(calibration->Seconds());
    const Clock::time_point start = Clock::now();
    Status status = workload->Construct();
    const double construct = SecondsSince(start);
    const int64_t virtual_start = status.ok() ? workload->simulator()->Now() : 0;
    if (status.ok()) status = workload->Step();
    if (!status.ok()) {
      sample->failure = status.ToString();
      return nullptr;
    }
    sample->setup_s.push_back(SecondsSince(start));
    sample->construct_s.push_back(construct);
    sample->warmup_s.push_back(sample->setup_s.back() - construct);
    sample->warmup_virtual_ms = (workload->simulator()->Now() - virtual_start) / 1e6;
  }
  sample->setup_calibration_s.push_back(calibration->Seconds());
  sample->after_warmup = workload->ReadCounters();
  return workload;
}

// The timed window: the workload's counted steps, then more closed-loop steps
// until |seconds| of host time are spent (or exactly |fixed_steps| in all).
// Virtual-clock metrics and counters cover the counted steps only, so they
// do not depend on how fast the host is.
void RunWindow(Workload* workload, uint64_t seed, int fixed_steps, double seconds,
               Calibration* calibration, Sample* sample) {
  workload->AttachSeed(seed);
  sim::Simulator* simulator = workload->simulator();
  sample->counted_steps = workload->counted_steps();
  if (fixed_steps > 0) sample->counted_steps = std::min(sample->counted_steps, fixed_steps);
  sample->before = workload->ReadCounters();
  const Clock::time_point window_start = Clock::now();
  for (int i = 0;; ++i) {
    if (i == sample->counted_steps) sample->counted = workload->ReadCounters();
    if (fixed_steps > 0 ? i >= fixed_steps
                        : (i >= sample->counted_steps && SecondsSince(window_start) >= seconds)) {
      break;
    }
    sample->calibration_s.push_back(calibration->Seconds());
    const int64_t virtual_start = simulator->Now();
    const Clock::time_point start = Clock::now();
    Status status = workload->Step();
    const double host_s = SecondsSince(start);
    if (!status.ok()) {
      ++sample->steps_failed;
      sample->failure = status.ToString();
      break;  // A failed step leaves the cluster mid-step: stop the loop.
    }
    sample->step_host_s.push_back(host_s);
    sample->step_virtual_ms.push_back((simulator->Now() - virtual_start) / 1e6);
  }
  sample->calibration_s.push_back(calibration->Seconds());
  sample->window_host_s = SecondsSince(window_start);
  sample->after = workload->ReadCounters();
  Counters window;
  for (const auto& [name, value] : sample->after) window[name] = value - sample->before[name];
  sample->checks = workload->Check(window);
}

// ---- JSON output ----

void PrintList(const char* name, const std::vector<double>& values) {
  std::printf("\"%s\":[", name);
  for (size_t i = 0; i < values.size(); ++i) std::printf("%s%.17g", i ? "," : "", values[i]);
  std::printf("]");
}

void PrintCounters(const char* name, const Counters& counters) {
  std::printf("\"%s\":{", name);
  bool first = true;
  for (const auto& [key, value] : counters) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", key.c_str(), value);
    first = false;
  }
  std::printf("}");
}

void PrintChecks(const char* name, const std::map<std::string, bool>& checks) {
  std::printf("\"%s\":{", name);
  bool first = true;
  for (const auto& [check, ok] : checks) {
    std::printf("%s\"%s\":%s", first ? "" : ",", check.c_str(), ok ? "true" : "false");
    first = false;
  }
  std::printf("}");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

void PrintSample(const char* name, const Sample& s) {
  std::printf("\"%s\":{", name);
  PrintList("setup_s", s.setup_s);
  std::printf(",");
  PrintList("construct_s", s.construct_s);
  std::printf(",");
  PrintList("warmup_s", s.warmup_s);
  std::printf(",\"warmup_virtual_ms\":%.17g,", s.warmup_virtual_ms);
  PrintList("step_host_s", s.step_host_s);
  std::printf(",");
  PrintList("step_virtual_ms", s.step_virtual_ms);
  std::printf(",");
  PrintList("setup_calibration_s", s.setup_calibration_s);
  std::printf(",");
  PrintList("calibration_s", s.calibration_s);
  std::printf(",\"counted_steps\":%d,\"steps_failed\":%d,\"failure\":\"%s\","
              "\"window_host_s\":%.17g,",
              s.counted_steps, s.steps_failed, JsonEscape(s.failure).c_str(), s.window_host_s);
  PrintCounters("after_warmup", s.after_warmup);
  std::printf(",");
  PrintCounters("before", s.before);
  std::printf(",");
  PrintCounters("counted", s.counted);
  std::printf(",");
  PrintCounters("after", s.after);
  std::printf(",");
  PrintChecks("checks", s.checks);
  std::printf("}");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

int Run(const Args& args) {
  if (MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Calibration calibration;
  std::vector<std::pair<const char*, Sample>> samples;
  if (args.trace_out.empty()) {
    Sample sample;
    if (auto workload = SetUp(args.workload, args.setup_reps, &calibration, &sample)) {
      RunWindow(workload.get(), args.seed, args.steps, args.seconds, &calibration, &sample);
    }
    samples.emplace_back("untraced", std::move(sample));
  } else {
    // The same steps twice from fresh instances; only the second is traced.
    Sample plain;
    int steps = 0;
    if (auto workload = SetUp(args.workload, 1, &calibration, &plain)) {
      RunWindow(workload.get(), args.seed, args.steps, args.seconds / 2, &calibration, &plain);
      steps = static_cast<int>(plain.step_host_s.size());
    }
    samples.emplace_back("untraced", std::move(plain));
    Sample traced;
    if (steps > 0) {
      if (auto workload = SetUp(args.workload, 1, &calibration, &traced)) {
        sim::Tracer tracer;
        sim::Tracer::Install(&tracer);
        RunWindow(workload.get(), args.seed, steps, 0, &calibration, &traced);
        sim::Tracer::Install(nullptr);
        const Status written = tracer.WriteJson(args.trace_out);
        if (!written.ok()) traced.failure = written.ToString();
      }
    }
    samples.emplace_back("traced", std::move(traced));
  }
  const std::map<std::string, bool> standalone = StandaloneChecks(args.workload, args.seed);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const auto& [name, sample] : samples) {
    PrintSample(name, sample);
    std::printf(",");
  }
  PrintChecks("standalone_checks", standalone);
  std::printf(",\"peak_rss_mb\":%.17g,\"calibration_sink\":%lld}\n", PeakRssMb(),
              static_cast<long long>(calibration.sink()));
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace rdmadl

int main(int argc, char** argv) {
  rdmadl::perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::max(1, std::atoi(value));
    } else if (flag == "--steps") {
      args.steps = std::atoi(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  return rdmadl::perfbench::Run(args);
}
