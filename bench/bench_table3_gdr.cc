// Regenerates Table 3 (GPUDirect study, §3.5) as THREE series and adds the
// device-route sweeps of the SG-WR work:
//
//   * Table 3 — average mini-batch time (ms) for the six benchmark models
//     with worker tensors in GPU memory, across the transfer-route ladder:
//     staged (no GDR: PCIe staging copies both ways), GDR-host (GDR on but
//     device-to-device routes off — every GPU edge takes the dynamic
//     host-metadata protocol, the pre-SG behavior), and GDR-D2D (device
//     routes on: static GPU-to-GPU scatter/gather writes, host-polled flag).
//
//   * Payload-size sweep — a single worker-to-worker tensor edge measured in
//     virtual time per step for the same three routes. Self-gates (CHECKed in
//     this binary): at every point GDR-D2D <= GDR-host <= staged, and at
//     >= 8 MiB the device-to-device route beats staged by >= 2x.
//
//   * SG doorbell microbench — a 16-extent sharded send posted as 16 single
//     WRs vs one scatter/gather WR; the NIC's doorbell counter must drop by
//     >= 4x (it drops 16x: one doorbell for the whole list).
//
// Flags: --quick (smaller size set, fewer steps). All stdout is virtual-time
// derived; the golden_bench_table3_gdr ctest pins it (tests/golden/).
//
// Paper (ms, improvement): AlexNet 178.5->135.2 (32 %), FCN-5 157.0->101.9
// (54 %), VGGNet 690.1->610.4 (13 %), Inception 172.5->171.9 (0.4 %), LSTM
// 84.4->68.1 (24 %), GRU 62.3->52.6 (19 %).
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/models/model_spec.h"
#include "src/runtime/session.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace {

using graph::Graph;
using graph::Node;
using tensor::TensorShape;

// The three transfer routes of the GPUDirect ladder, in ascending order of
// directness.
enum class GdrRoute { kStaged, kGdrHost, kGdrD2d };

void ApplyRoute(GdrRoute route, train::TrainingConfig* config) {
  config->tensors_on_gpu = true;
  config->gpudirect = route != GdrRoute::kStaged;
  config->gdr_device_routes = route == GdrRoute::kGdrD2d;
}

// ---------------------------------------------------------------------------
// Table 3: full-model mini-batch times across the three routes.

void RunTable3(bool quick) {
  bench::PrintHeader(
      "Table 3 — GPUDirect RDMA (8 workers, batch 32)",
      "Average mini-batch time (ms): PCIe staging vs GDR host-metadata vs GDR "
      "device-to-device SG routes.");
  std::printf("%-14s | %9s %9s %9s %7s | %8s %8s %7s\n", "Benchmark", "staged", "GDR-host",
              "GDR-D2D", "improv", "paper", "paper+G", "paper%");
  bench::PrintRule();
  struct PaperRow {
    const char* name;
    double rdma, gdr;
  };
  const PaperRow kPaper[] = {{"AlexNet", 178.5, 135.2},  {"Inception-v3", 172.5, 171.9},
                             {"VGGNet-16", 690.1, 610.4}, {"LSTM", 84.4, 68.1},
                             {"GRU", 62.3, 52.6},         {"FCN-5", 157.0, 101.9}};
  for (const models::ModelSpec& model : models::AllBenchmarkModels()) {
    double ms[3];
    for (int r = 0; r < 3; ++r) {
      train::TrainingConfig config;
      config.model = model;
      config.num_machines = 8;
      config.batch_size = 32;
      config.mechanism = train::MechanismKind::kRdmaZeroCopy;
      ApplyRoute(static_cast<GdrRoute>(r), &config);
      bench::StepResult result = bench::MeasureConfig(config, quick ? 1 : 2, quick ? 2 : 3);
      CHECK(result.ok()) << result.error;
      ms[r] = result.step_ms;
    }
    const PaperRow* paper = nullptr;
    for (const PaperRow& row : kPaper) {
      if (model.name == row.name) paper = &row;
    }
    std::printf("%-14s | %9.1f %9.1f %9.1f %6.0f%% | %8.1f %8.1f %6.0f%%\n",
                model.name.c_str(), ms[0], ms[1], ms[2],
                bench::ImprovementPct(ms[2], ms[0]), paper->rdma, paper->gdr,
                bench::ImprovementPct(paper->gdr, paper->rdma));
  }
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// Payload-size sweep: one worker-to-worker edge, virtual us per step.

double MeasureRoute(GdrRoute route, uint64_t bytes, int steps) {
  runtime::ClusterOptions cluster_options;
  cluster_options.num_machines = 2;
  cluster_options.mode = ops::ComputeMode::kSimulated;
  cluster_options.rdma_arena_bytes = 4ull << 30;
  cluster_options.worker_tensors_on_gpu = true;
  cluster_options.worker_gpudirect = route != GdrRoute::kStaged;
  runtime::Cluster cluster(cluster_options);
  CHECK_OK(cluster.AddProcess("worker:0", 0).status());
  CHECK_OK(cluster.AddProcess("worker:1", 1).status());

  Graph graph;
  Node* src = *graph.AddNode("payload", "Variable", std::vector<Node*>{});
  src->SetAttr("shape", TensorShape{static_cast<int64_t>(bytes / 4)});
  src->set_device("worker:0");
  Node* consume = *graph.AddNode("reduce_max", "ReduceMax", {src});
  consume->set_device("worker:1");

  comm::ZeroCopyOptions options;
  options.gdr_device_routes = route == GdrRoute::kGdrD2d;
  comm::ZeroCopyRdmaMechanism mechanism(&cluster, options);
  runtime::DistributedSession session(&cluster, &mechanism, &graph,
                                      runtime::SessionOptions{});
  CHECK_OK(session.Setup());
  CHECK_OK(session.RunStep());  // Allocation-tracing warm-up.
  const int64_t start = cluster.simulator()->Now();
  for (int i = 0; i < steps; ++i) CHECK_OK(session.RunStep());
  const double us = static_cast<double>(cluster.simulator()->Now() - start) / steps / 1e3;
  // Route sanity: the D2D series must actually ride the SG device route.
  if (route == GdrRoute::kGdrD2d && bytes > (1ull << 20)) {
    CHECK_GT(mechanism.stats().sg_sends, 0)
        << "device route did not take scatter/gather posting at " << bytes << " bytes";
    CHECK_GT(mechanism.stats().device_zero_copy_sends, 0);
  }
  if (route == GdrRoute::kStaged) {
    CHECK_GT(mechanism.stats().pcie_copies, 0) << "staged route skipped PCIe staging";
  }
  return us;
}

void RunGdrSweep(bool quick) {
  bench::PrintHeader(
      "GDR route sweep — one worker-to-worker tensor edge (virtual us/step)",
      "staged (PCIe both ways) vs GDR-host (dynamic host-metadata protocol) vs "
      "GDR-D2D (static GPU-to-GPU SG write).");
  std::printf("%-9s | %12s %12s %12s | %9s %9s\n", "size", "staged", "GDR-host", "GDR-D2D",
              "D2D/stgd", "D2D/host");
  bench::PrintRule();
  const uint64_t kFull[] = {256ull << 10, 1ull << 20, 4ull << 20,
                            8ull << 20,   16ull << 20, 64ull << 20};
  const uint64_t kQuick[] = {1ull << 20, 8ull << 20};
  const uint64_t* sizes = quick ? kQuick : kFull;
  const int num_sizes = quick ? 2 : 6;
  const int steps = quick ? 3 : 5;
  for (int s = 0; s < num_sizes; ++s) {
    const uint64_t bytes = sizes[s];
    double us[3];
    for (int r = 0; r < 3; ++r) {
      us[r] = MeasureRoute(static_cast<GdrRoute>(r), bytes, steps);
    }
    std::printf("%-9s | %12.1f %12.1f %12.1f | %8.1fx %8.1fx\n", HumanBytes(bytes).c_str(),
                us[0], us[1], us[2], us[0] / us[2], us[1] / us[2]);
    // Self-gates: the ladder must be ordered at every size, and the device
    // route must beat staged by >= 2x once the payload is >= 8 MiB.
    CHECK_LE(us[2], us[1] * 1.001)
        << "GDR-D2D slower than GDR-host at " << HumanBytes(bytes);
    CHECK_LE(us[1], us[0] * 1.001)
        << "GDR-host slower than staged at " << HumanBytes(bytes);
    if (bytes >= (8ull << 20)) {
      CHECK_GE(us[0] / us[2], 2.0)
          << "device-to-device route under 2x over staged at " << HumanBytes(bytes);
    }
  }
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// SG doorbell microbench: 16-extent sharded send, multi-WR vs one SG-WR.

void RunSgDoorbells() {
  bench::PrintHeader("Scatter/gather doorbells — 16-extent sharded send",
                     "NIC doorbells rung: 16 single WRs vs one SG-WR carrying all "
                     "16 extents (one doorbell, one CQE).");
  constexpr int kExtents = 16;
  constexpr uint64_t kExtentBytes = 64 << 10;
  uint64_t doorbells[2];  // [0] multi-WR, [1] SG-WR.
  for (int mode = 0; mode < 2; ++mode) {
    sim::Simulator simulator;
    net::CostModel cost;
    net::Fabric fabric(&simulator, cost, 2);
    rdma::RdmaFabric rdma(&fabric);
    device::DeviceDirectory directory(&rdma);
    auto src_dev = device::RdmaDevice::Create(&directory, 2, 2, Endpoint{0, 7000});
    auto dst_dev = device::RdmaDevice::Create(&directory, 2, 2, Endpoint{1, 7000});
    CHECK(src_dev.ok() && dst_dev.ok());
    auto src = (*src_dev)->AllocateMemRegion(kExtents * kExtentBytes);
    auto dst = (*dst_dev)->AllocateMemRegion(kExtents * kExtentBytes);
    CHECK(src.ok() && dst.ok());
    std::memset(src->data(), 0x5A, kExtents * kExtentBytes);
    auto chan = (*src_dev)->GetChannel(Endpoint{1, 7000}, 0);
    CHECK(chan.ok());

    const uint64_t before = (*src_dev)->nic()->stats().doorbells;
    int completions = 0;
    if (mode == 0) {
      // Sharded posting: one WR (and one doorbell) per extent.
      for (int i = 0; i < kExtents; ++i) {
        (*chan)->Memcpy(src->data() + i * kExtentBytes, src->lkey(),
                        dst->Remote().addr + i * kExtentBytes, dst->rkey(), kExtentBytes,
                        device::Direction::kLocalToRemote,
                        [&completions](const Status& s) {
                          CHECK_OK(s);
                          ++completions;
                        });
      }
      CHECK_OK(simulator.RunUntilPredicate([&] { return completions == kExtents; }));
    } else {
      // The same 16 extents in ONE scatter/gather WR.
      std::vector<rdma::SgExtent> extents;
      extents.reserve(kExtents);
      for (int i = 0; i < kExtents; ++i) {
        extents.push_back(rdma::SgExtent{
            reinterpret_cast<uint64_t>(src->data() + i * kExtentBytes),
            dst->Remote().addr + i * kExtentBytes, kExtentBytes});
      }
      (*chan)->MemcpyScatter(std::move(extents), src->lkey(), dst->rkey(),
                             [&completions](const Status& s) {
                               CHECK_OK(s);
                               ++completions;
                             });
      CHECK_OK(simulator.RunUntilPredicate([&] { return completions == 1; }));
    }
    doorbells[mode] = (*src_dev)->nic()->stats().doorbells - before;
    CHECK_EQ(std::memcmp(dst->data(), src->data(), kExtents * kExtentBytes), 0);
  }
  const double ratio = static_cast<double>(doorbells[0]) / doorbells[1];
  std::printf("%-24s %8llu doorbells\n", "16 single WRs:",
              static_cast<unsigned long long>(doorbells[0]));
  std::printf("%-24s %8llu doorbells\n", "1 SG-WR (16 extents):",
              static_cast<unsigned long long>(doorbells[1]));
  std::printf("%-24s %7.1fx fewer\n", "reduction:", ratio);
  bench::PrintRule();
  CHECK_GE(ratio, 4.0) << "SG-WR posting must cut doorbells >= 4x on a 16-extent send";
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
  rdmadl::RunTable3(quick);
  rdmadl::RunGdrSweep(quick);
  rdmadl::RunSgDoorbells();
  return 0;
}
