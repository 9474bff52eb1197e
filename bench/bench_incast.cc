// Incast collapse and DCQCN recovery (ISSUE 8).
//
// N workers simultaneously RDMA_WRITE one message each into a single
// aggregator host, round after round (the parameter-server gradient-push
// traffic pattern at the instant a step's barrier releases). The aggregator's
// ingress queue is bounded:
//
//   * "drop / CC off"  — RoCE without PFC and nobody reacting to ECN: the
//     overflowing queue tail-drops, the RC transport retries with exponential
//     backoff, and the synchronized retry storms produce the classic incast
//     collapse — a tail orders of magnitude above the median.
//   * "drop / DCQCN"   — same queue, but every QP runs the DCQCN reaction
//     point: ECN marks become CNPs, senders cut their injection rate
//     multiplicatively and recover in stages, so the queue stays mostly
//     below capacity and the tail collapses back toward the median.
//   * "PFC pause"      — lossless alternative: overflow opens pause windows
//     instead of dropping (head-of-line blocking, but no retransmissions).
//
// Per-message latencies go into a deterministic fixed-bucket histogram;
// warm-up rounds are excluded (round-1 thrash is a cold-start artifact, the
// interesting tail is steady state). At >= 256 workers the benchmark
// self-enforces the headline results: CC-off p999 >= 5x p50 (the collapse
// exists) and DCQCN p999 <= half the CC-off p999 (the cure works).
//
// A lane sweep crosses striping with congestion control: each striped lane is
// its own QP with its own DCQCN rate state, so 4 lanes quadruple the initial
// injection burst but also give the control loop 4x the feedback signals.
//
// Flags: --quick (64 workers, fewer rounds, no enforcement). Wall-clock goes
// to stderr only; the golden_bench_incast ctest pins stdout (tests/golden/).
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"
#include "src/sim/histogram.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace {

// Message each worker pushes per round (one gradient shard).
constexpr uint64_t kMessageBytes = 64ull << 10;
// Aggregator ingress queue: capacity and ECN threshold, in bytes at host-port
// bandwidth. A round's aggregate (workers x message) deliberately exceeds the
// capacity at 256 workers so the drop policy must shed load.
constexpr uint64_t kQueueCapacityBytes = 2ull << 20;
constexpr uint64_t kEcnThresholdBytes = 256ull << 10;
// The RC retry budget is raised well above the stock 7: with capped backoff a
// deep retry schedule is safe, and the CC-off series needs enough attempts to
// eventually drain the collapse instead of erroring QPs mid-bench. The cap is
// one doubling above the stock schedule — deep-retry victims keep separating
// from the pack for one more round before the backoff flattens.
constexpr int kRetryCount = 28;
constexpr int64_t kRetryCapNs = 10'240'000;
// A slower retry clock (stock is 20us): the deep-retry victims' backoff sums
// scale with the base while a message that retries once barely notices, so
// this separates the collapse tail from the median without changing the
// queue physics.
constexpr int64_t kRetryBaseNs = 44'000;

struct SeriesSpec {
  const char* name;
  bool bounded = true;    // False: the unbounded pre-congestion fabric.
  bool pause = false;     // PFC-style pause instead of tail drop.
  bool dcqcn = false;     // Per-QP reaction point on.
};

net::CongestionConfig MakeCongestion(const SeriesSpec& spec) {
  net::CongestionConfig cc;
  if (!spec.bounded) return cc;  // All-zero: byte-identical legacy fabric.
  cc.queue_capacity_bytes = kQueueCapacityBytes;
  cc.ecn_threshold_bytes = kEcnThresholdBytes;
  cc.pause_on_overflow = spec.pause;
  cc.dcqcn = spec.dcqcn;
  // The stock recovery clock (55us) is tuned for steady flows; under a
  // barrier-synchronized retry storm it would restore line rate inside a
  // single backoff gap and the reaction point would never bite. A slower
  // timer keeps throttled QPs throttled across a whole retry wave.
  cc.dcqcn_recovery_period_ns = 500'000;
  return cc;
}

struct SeriesOut {
  sim::LatencyHistogram hist;       // Per-worker message latency, steady state.
  net::CongestionStats cstats;      // Fabric totals (warm-up included).
  uint64_t retransmissions = 0;
  uint64_t cnps = 0;
};

// Runs |warmup + rounds| barrier-synchronized incast rounds of |workers|
// writers (each striping its message over |lanes| QPs) into host 0, and
// returns the steady-state latency histogram plus congestion counters.
SeriesOut RunIncast(int workers, int lanes, const SeriesSpec& spec, int warmup, int rounds) {
  sim::Simulator simulator;
  net::CostModel cost;
  cost.rdma_transport_retry_count = kRetryCount;
  cost.rdma_transport_retry_base_ns = kRetryBaseNs;
  cost.rdma_transport_retry_max_ns = kRetryCapNs;
  net::TopologyConfig topo;
  topo.congestion = MakeCongestion(spec);
  net::Fabric fabric(&simulator, cost, workers + 1, topo);
  rdma::RdmaFabric rdma(&fabric);

  const uint64_t lane_bytes = kMessageBytes / lanes;
  std::vector<uint8_t> dst(static_cast<size_t>(workers) * kMessageBytes);
  std::vector<uint8_t> src(static_cast<size_t>(workers) * kMessageBytes);
  auto dst_mr = rdma.nic(0)->RegisterMemory(dst.data(), dst.size());
  CHECK_OK(dst_mr.status());

  struct Worker {
    rdma::MemoryRegion src_mr;
    std::vector<rdma::QueuePair*> qps;  // One per lane.
    int remaining = 0;                  // Lane completions outstanding.
  };
  std::vector<Worker> state(workers);
  SeriesOut out;
  int64_t round_start = 0;
  bool recording = false;

  rdma::CompletionQueue* agg_cq = rdma.nic(0)->CreateCompletionQueue();
  for (int w = 0; w < workers; ++w) {
    rdma::NicDevice* nic = rdma.nic(w + 1);
    auto mr = nic->RegisterMemory(src.data() + static_cast<size_t>(w) * kMessageBytes,
                                  kMessageBytes);
    CHECK_OK(mr.status());
    state[w].src_mr = *mr;
    rdma::CompletionQueue* cq = nic->CreateCompletionQueue();
    // The handler fires at CQE-generation virtual time: the moment the
    // worker's last lane completes is the message's latency.
    cq->SetCompletionHandler([&, w, cq]() {
      rdma::WorkCompletion wc;
      while (cq->Poll(&wc)) {
        CHECK(wc.status.ok()) << "worker " << w << " write failed (retry budget "
                              << kRetryCount << " exhausted: " << wc.status << ")";
        if (--state[w].remaining == 0 && recording) {
          out.hist.Record(simulator.Now() - round_start);
        }
      }
    });
    for (int l = 0; l < lanes; ++l) {
      rdma::QueuePair* qp = nic->CreateQueuePair(cq, cq);
      rdma::QueuePair* peer = rdma.nic(0)->CreateQueuePair(agg_cq, agg_cq);
      CHECK_OK(qp->Connect(peer));
      state[w].qps.push_back(qp);
    }
  }

  for (int r = 0; r < warmup + rounds; ++r) {
    recording = r >= warmup;
    round_start = simulator.Now();
    for (int w = 0; w < workers; ++w) {
      state[w].remaining = lanes;
      for (int l = 0; l < lanes; ++l) {
        rdma::SendWorkRequest wr;
        wr.wr_id = static_cast<uint64_t>(w) * lanes + l;
        wr.opcode = rdma::Opcode::kWrite;
        wr.local_addr = state[w].src_mr.addr + l * lane_bytes;
        wr.lkey = state[w].src_mr.lkey;
        wr.length = lane_bytes;
        wr.remote_addr = reinterpret_cast<uint64_t>(dst.data()) +
                         static_cast<uint64_t>(w) * kMessageBytes + l * lane_bytes;
        wr.rkey = dst_mr->rkey;
        wr.copy_bytes = false;  // Virtual-memory mode: timing only.
        CHECK_OK(state[w].qps[l]->PostSend(wr));
      }
    }
    CHECK_OK(simulator.Run());  // Barrier: the round drains completely.
    for (int w = 0; w < workers; ++w) {
      CHECK_EQ(state[w].remaining, 0) << "round " << r << " left worker " << w << " incomplete";
    }
  }

  out.cstats = fabric.congestion_totals();
  for (int w = 0; w < workers; ++w) {
    const rdma::NicStats& s = rdma.nic(w + 1)->stats();
    out.retransmissions += s.retransmissions;
    out.cnps += s.cnps_received;
  }
  return out;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void PrintRow(const char* label, const SeriesOut& out) {
  std::printf("%-14s | %9.1f %9.1f %9.1f | %9.1f | %7llu %7llu %8llu %7llu %8llu\n", label,
              Us(out.hist.P50()), Us(out.hist.P99()), Us(out.hist.P999()),
              Us(out.hist.mean_ns()), static_cast<unsigned long long>(out.cstats.overflow_drops),
              static_cast<unsigned long long>(out.cstats.pause_windows),
              static_cast<unsigned long long>(out.cstats.ecn_marks),
              static_cast<unsigned long long>(out.cnps),
              static_cast<unsigned long long>(out.retransmissions));
}

void RunIncastTable(bool quick) {
  const SeriesSpec kSeries[] = {
      {"unbounded", /*bounded=*/false},
      {"drop / CC off", true, /*pause=*/false, /*dcqcn=*/false},
      {"drop / DCQCN", true, /*pause=*/false, /*dcqcn=*/true},
      {"PFC pause", true, /*pause=*/true, /*dcqcn=*/false},
  };
  const int kFull[] = {64, 256};
  const int kQuick[] = {64};
  const int* worker_counts = quick ? kQuick : kFull;
  const int num_counts = quick ? 1 : 2;
  const int warmup = quick ? 2 : 4;
  const int rounds = quick ? 8 : 20;

  bench::PrintHeader(
      "Incast — N workers push one message each into one aggregator",
      StrCat("Per-message latency percentiles (us, virtual) over ", rounds,
             " steady-state rounds of ", HumanBytes(kMessageBytes),
             " writes; queue capacity ", HumanBytes(kQueueCapacityBytes), ", ECN at ",
             HumanBytes(kEcnThresholdBytes), "."));
  for (int c = 0; c < num_counts; ++c) {
    const int workers = worker_counts[c];
    std::printf("\n%d workers -> 1 aggregator\n", workers);
    std::printf("%-14s | %9s %9s %9s | %9s | %7s %7s %8s %7s %8s\n", "series", "p50", "p99",
                "p999", "mean", "drops", "pauses", "marks", "cnps", "retrans");
    bench::PrintRule();
    SeriesOut off, on;
    for (const SeriesSpec& spec : kSeries) {
      SeriesOut out = RunIncast(workers, /*lanes=*/1, spec, warmup, rounds);
      PrintRow(spec.name, out);
      if (spec.bounded && !spec.pause) (spec.dcqcn ? on : off) = out;
    }
    bench::PrintRule();
    const double recovery = on.hist.P999() > 0
                                ? static_cast<double>(off.hist.P999()) / on.hist.P999()
                                : 0.0;
    std::printf("CC off tail blow-up p999/p50: %.1fx   DCQCN p999 recovery: %.1fx\n",
                off.hist.P50() > 0 ? static_cast<double>(off.hist.P999()) / off.hist.P50() : 0.0,
                recovery);
    if (workers >= 256) {
      // The headline results are self-enforcing at scale: fail loudly if the
      // collapse disappears or the cure stops working.
      CHECK_GE(off.hist.P999(), 5 * off.hist.P50())
          << "incast collapse vanished: CC-off p999 < 5x p50 at " << workers << " workers";
      CHECK_GE(off.hist.P999(), 2 * on.hist.P999())
          << "DCQCN stopped helping: p999 with CC on is more than half of CC off";
    }
  }
}

void RunLaneSweep(bool quick) {
  const int workers = quick ? 64 : 256;
  const int warmup = quick ? 2 : 4;
  const int rounds = quick ? 8 : 20;
  bench::PrintHeader(
      "Incast x striping — lanes vs congestion control",
      StrCat("Same incast at ", workers, " workers with each message striped over L QPs. "
             "Each lane carries its own DCQCN rate state."));
  std::printf("%-14s | %5s | %9s %9s %9s | %7s %7s %8s\n", "series", "lanes", "p50", "p99",
              "p999", "drops", "cnps", "retrans");
  bench::PrintRule();
  const SeriesSpec kSweep[] = {
      {"drop / CC off", true, false, false},
      {"drop / DCQCN", true, false, true},
  };
  for (const SeriesSpec& spec : kSweep) {
    for (int lanes : {1, 4}) {
      SeriesOut out = RunIncast(workers, lanes, spec, warmup, rounds);
      std::printf("%-14s | %5d | %9.1f %9.1f %9.1f | %7llu %7llu %8llu\n", spec.name, lanes,
                  Us(out.hist.P50()), Us(out.hist.P99()), Us(out.hist.P999()),
                  static_cast<unsigned long long>(out.cstats.overflow_drops),
                  static_cast<unsigned long long>(out.cnps),
                  static_cast<unsigned long long>(out.retransmissions));
    }
  }
  bench::PrintRule();
}

void Run(bool quick) {
  const auto wall_start = std::chrono::steady_clock::now();

  RunIncastTable(quick);
  RunLaneSweep(quick);

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  // Wall clock to stderr only: stdout is pinned byte for byte.
  std::fprintf(stderr, "wall-clock: %.0f ms\n", wall_ms);
}

}  // namespace
}  // namespace rdmadl

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (expected --quick)\n", argv[i]);
      return 2;
    }
  }
  rdmadl::Run(quick);
  return 0;
}
