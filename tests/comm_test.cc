// Detailed transfer-mechanism tests: protocol selection, GPU staging vs
// GPUDirect, RPC fragmentation, arena hygiene, and failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/check/testing.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"

namespace rdmadl {
namespace comm {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

using graph::Graph;
using graph::Node;
using runtime::Cluster;
using runtime::ClusterOptions;
using runtime::DistributedSession;
using runtime::SessionOptions;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

std::unique_ptr<Cluster> MakeCluster(int machines, ops::ComputeMode mode,
                                     bool workers_on_gpu = false, bool gdr = false) {
  ClusterOptions options;
  options.num_machines = machines;
  options.mode = mode;
  options.process_defaults.rdma_arena_bytes =
      mode == ops::ComputeMode::kReal ? (16ull << 20) : (4ull << 30);
  options.process_defaults.seed = 7;
  options.worker_tensors_on_gpu = workers_on_gpu;
  options.worker_gpudirect = gdr;
  auto cluster = std::make_unique<Cluster>(options);
  CHECK_OK(cluster->AddProcess("ps:0", 0).status());
  for (int m = 1; m < machines; ++m) {
    CHECK_OK(cluster->AddProcess(StrCat("worker:", m - 1), m).status());
  }
  return cluster;
}

// ps:0 variable -> consumer on worker:0; returns the graph.
std::unique_ptr<Graph> WeightConsumerGraph(uint64_t elements) {
  ops::RegisterStandardOps();
  auto graph = std::make_unique<Graph>();
  Node* w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{static_cast<int64_t>(elements)});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  Node* consume = *graph->AddNode("consume", "ReduceSum", {w});
  consume->set_device("worker:0");
  return graph;
}

// worker:0 produces -> ps:0 consumes (gradient direction).
std::unique_ptr<Graph> GradientGraph(uint64_t elements) {
  ops::RegisterStandardOps();
  auto graph = std::make_unique<Graph>();
  Node* g = *graph->AddNode("g", "Const", std::vector<Node*>{});
  g->SetAttr("shape", TensorShape{static_cast<int64_t>(elements)});
  g->SetAttr("fill_value", 0.5);
  g->set_device("worker:0");
  Node* consume = *graph->AddNode("consume", "ReduceSum", {g});
  consume->set_device("ps:0");
  return graph;
}

TEST(ZeroCopyProtocolTest, StaticShapeUsesStaticProtocol) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(1024);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().static_transfers, 1);
  EXPECT_EQ(mech.stats().dynamic_transfers, 0);
}

TEST(ZeroCopyProtocolTest, RealModeBytesArriveIntact) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(4096);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  // Checksum: sum at the consumer must equal the sum of the source variable.
  const Tensor& w = cluster->host("ps:0")->resources()->GetVariable("w");
  double expected = 0;
  for (int64_t i = 0; i < w.num_elements(); ++i) expected += w.at<float>(i);
  const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
  EXPECT_NEAR(out->at<float>(0), expected, 1e-2);
}

TEST(ZeroCopyProtocolTest, StagingBuffersReturnToArenaEachStep) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = GradientGraph(8192);
  ZeroCopyOptions options;
  options.graph_analysis = false;  // Force a staging copy every step.
  ZeroCopyRdmaMechanism mech(cluster.get(), options);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  auto arena = cluster->host("worker:0")->rdma_arena();
  ASSERT_TRUE(arena.ok());
  for (int step = 0; step < 4; ++step) {
    const int64_t before = (*arena)->allocator->stats().bytes_in_use;
    ASSERT_TRUE(session.RunStep().ok());
    // Static staging is freed when its write completes; usage must not grow
    // step over step.
    EXPECT_LE((*arena)->allocator->stats().bytes_in_use, before + 1);
  }
  EXPECT_EQ(mech.stats().staged_sends, 4);
}

TEST(ZeroCopyProtocolTest, ForceDynamicCarriesRealMetadata) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(2048);
  ZeroCopyOptions options;
  options.force_dynamic = true;
  ZeroCopyRdmaMechanism mech(cluster.get(), options);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.RunStep().ok());
  }
  EXPECT_EQ(mech.stats().dynamic_transfers, 3);
  // Dynamic receive allocates fresh storage per step from the RDMA arena and
  // frees it at step end: no monotonic growth.
  auto arena = cluster->host("worker:0")->rdma_arena();
  ASSERT_TRUE(arena.ok());
  EXPECT_LT((*arena)->allocator->stats().bytes_in_use, 64 * 1024);
}

TEST(ZeroCopyProtocolTest, GpuWithoutGdrPaysPcieStaging) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, /*gpu=*/true, /*gdr=*/false);
  auto graph = GradientGraph(1 << 20);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GT(mech.stats().pcie_copies, 0);
  EXPECT_GT(mech.stats().pcie_bytes, 0u);
}

TEST(ZeroCopyProtocolTest, GdrSkipsPcieAndUsesDynamicProtocol) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, /*gpu=*/true, /*gdr=*/true);
  auto graph = GradientGraph(1 << 20);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().pcie_copies, 0);
  // §3.5: GPUDirect edges always use the dynamic protocol.
  EXPECT_EQ(mech.stats().static_transfers, 0);
  EXPECT_EQ(mech.stats().dynamic_transfers, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 1);  // Straight from GPU memory.
}

TEST(ZeroCopyProtocolTest, GdrIsFasterThanStaging) {
  auto time_one = [](bool gdr) {
    auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, true, gdr);
    auto graph = GradientGraph(16 << 20);
    ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
    DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_LT(time_one(true), time_one(false));
}

TEST(ZeroCopyProtocolTest, ManyWorkersShareOnePs) {
  auto cluster = MakeCluster(4, ops::ComputeMode::kReal);
  ops::RegisterStandardOps();
  Graph graph;
  Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{512});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  for (int i = 0; i < 3; ++i) {
    Node* consume = *graph.AddNode(StrCat("consume", i), "ReduceSum", {w});
    consume->set_device(StrCat("worker:", i));
  }
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_EQ(session.transfer_edges().size(), 3u);  // One edge per destination.
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().static_transfers, 3);
  // All three workers computed the same checksum.
  const Tensor* out0 = session.executor_for("worker:0")->OutputOf("consume0");
  const Tensor* out1 = session.executor_for("worker:1")->OutputOf("consume1");
  const Tensor* out2 = session.executor_for("worker:2")->OutputOf("consume2");
  EXPECT_EQ(out0->at<float>(0), out1->at<float>(0));
  EXPECT_EQ(out1->at<float>(0), out2->at<float>(0));
}

TEST(ZeroCopyProtocolTest, SetupRegistersFewMemoryRegions) {
  // §3.4: one big registration, not one per tensor. After setup + steps, the
  // NIC should hold only a handful of MRs (arena, meta arena, RPC slabs).
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(65536);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(session.RunStep().ok());
  EXPECT_LE(cluster->host("ps:0")->rdma_device()->nic()->num_registered_regions(), 8);
  EXPECT_LE(cluster->host("worker:0")->rdma_device()->nic()->num_registered_regions(), 8);
}

// ---------------------------------------------------------------------------
// Send's source classes, pinned: each row places the outgoing tensor in one
// kind of memory and drives Send directly, once per step (twice for the MR
// cache: a miss, then a hit on the same buffer), under the static and the
// dynamic protocol. Per send it records the returned blocking ns and the
// virtual ns, from the Send call, at which the receiver's TryRecv succeeds;
// per row the ZeroCopyStats deltas and the edge's final ladder rung.
// ---------------------------------------------------------------------------

enum class SourceClass {
  kRegisteredHostArena,   // Sender's RDMA arena: zero-copy in place.
  kUnregisteredStaged,    // Plain heap, MR cache off: staging copy.
  kUnregisteredMrCache,   // Plain heap, MR cache on: miss, then hit.
  kGpuWithoutGdr,         // GPU arena, no GDR: PCIe DMA into host staging.
  kGpuWithGdr,            // GDR-registered GPU arena: zero-copy in place.
  kSenderArenaExhausted,  // No staging room: demoted, served degraded.
};

struct SourceCase {
  SourceClass source;
  bool dynamic;  // ZeroCopyOptions::force_dynamic.
};

struct SendDeltas {
  int64_t zero_copy_sends = 0;
  int64_t device_zero_copy_sends = 0;
  int64_t staged_sends = 0;
  uint64_t staged_bytes = 0;
  int64_t pcie_copies = 0;
  uint64_t pcie_bytes = 0;
  int64_t mr_cache_sends = 0;
  int64_t mr_cache_hits = 0;
  int64_t mr_cache_misses = 0;
  int64_t degraded_sends = 0;
  int64_t ladder_demotions = 0;
  int64_t static_transfers = 0;
  int64_t dynamic_transfers = 0;
  int64_t coalesced_sends = 0;

  bool operator==(const SendDeltas&) const = default;
};

SendDeltas Delta(const ZeroCopyStats& after, const ZeroCopyStats& before) {
  SendDeltas d;
  d.zero_copy_sends = after.zero_copy_sends - before.zero_copy_sends;
  d.device_zero_copy_sends = after.device_zero_copy_sends - before.device_zero_copy_sends;
  d.staged_sends = after.staged_sends - before.staged_sends;
  d.staged_bytes = after.staged_bytes - before.staged_bytes;
  d.pcie_copies = after.pcie_copies - before.pcie_copies;
  d.pcie_bytes = after.pcie_bytes - before.pcie_bytes;
  d.mr_cache_sends = after.mr_cache_sends - before.mr_cache_sends;
  d.mr_cache_hits = after.mr_cache_hits - before.mr_cache_hits;
  d.mr_cache_misses = after.mr_cache_misses - before.mr_cache_misses;
  d.degraded_sends = after.degraded_sends - before.degraded_sends;
  d.ladder_demotions = after.ladder_demotions - before.ladder_demotions;
  d.static_transfers = after.static_transfers - before.static_transfers;
  d.dynamic_transfers = after.dynamic_transfers - before.dynamic_transfers;
  d.coalesced_sends = after.coalesced_sends - before.coalesced_sends;
  return d;
}

std::ostream& operator<<(std::ostream& os, const SendDeltas& d) {
  return os << "{zc=" << d.zero_copy_sends << " dev_zc=" << d.device_zero_copy_sends
            << " staged=" << d.staged_sends << "/" << d.staged_bytes << "B pcie=" << d.pcie_copies
            << "/" << d.pcie_bytes << "B mr=" << d.mr_cache_sends << " hit=" << d.mr_cache_hits
            << " miss=" << d.mr_cache_misses << " degraded=" << d.degraded_sends
            << " demoted=" << d.ladder_demotions << " static=" << d.static_transfers
            << " dynamic=" << d.dynamic_transfers << " coalesced=" << d.coalesced_sends << "}";
}

struct SourceOutcome {
  std::vector<int64_t> blocking_ns;  // Send's return value, per send.
  std::vector<int64_t> recv_ns;      // TryRecv success, from the Send call.
  SendDeltas deltas;
  EdgePath path = EdgePath::kZeroCopy;
};

constexpr int64_t kSourceElements = 4096;  // 16 KiB: above the coalescing threshold.
constexpr uint64_t kSourceBytes = kSourceElements * sizeof(float);

// Pinned virtual times, per source class. Registered sources post at once;
// the host staging copy holds the sender 1609 ns and delays the post by as
// much; the first MR-cache send pins its 4 pages for 40880 ns and the second
// hits; the PCIe DMA delays the post 2938 ns without holding the sender; the
// degraded path blocks for serialization.
SourceOutcome ExpectedSourceOutcome(const SourceCase& c) {
  // The payload write takes the direct route; only the dynamic protocol's
  // small metadata block is coalesced. A GDR sender always runs the dynamic
  // protocol (§3.5), so both columns of that row coincide.
  const bool dynamic = c.dynamic || c.source == SourceClass::kGpuWithGdr;
  const int64_t in_place_ns = dynamic ? 6'167 : 4'515;
  SourceOutcome out;
  SendDeltas& d = out.deltas;
  (dynamic ? d.dynamic_transfers : d.static_transfers) = 1;
  d.coalesced_sends = dynamic ? 1 : 0;
  switch (c.source) {
    case SourceClass::kRegisteredHostArena:
      out.blocking_ns = {0};
      out.recv_ns = {in_place_ns};
      d.zero_copy_sends = 1;
      break;
    case SourceClass::kUnregisteredStaged:
      out.blocking_ns = {1'609};
      out.recv_ns = {dynamic ? 7'776 : 6'124};
      d.staged_sends = 1;
      d.staged_bytes = kSourceBytes;
      break;
    case SourceClass::kUnregisteredMrCache:
      out.blocking_ns = {40'880, 0};
      out.recv_ns = {dynamic ? 47'047 : 45'395, in_place_ns};
      d.zero_copy_sends = 2;
      d.mr_cache_sends = 2;
      d.mr_cache_hits = 1;
      d.mr_cache_misses = 1;
      d.coalesced_sends *= 2;
      (dynamic ? d.dynamic_transfers : d.static_transfers) = 2;
      break;
    case SourceClass::kGpuWithoutGdr:
      out.blocking_ns = {0};
      out.recv_ns = {dynamic ? 9'105 : 7'453};
      d.pcie_copies = 1;
      d.pcie_bytes = kSourceBytes;
      break;
    case SourceClass::kGpuWithGdr:
      out.blocking_ns = {0};
      out.recv_ns = {in_place_ns};
      d.zero_copy_sends = 1;
      d.device_zero_copy_sends = 1;
      break;
    case SourceClass::kSenderArenaExhausted:
      out.blocking_ns = {111'927};
      out.recv_ns = {187'955};
      d.degraded_sends = 1;
      d.ladder_demotions = 1;
      d.coalesced_sends = 0;
      out.path = EdgePath::kDegraded;
      break;
  }
  return out;
}

class SendSourceTest : public ::testing::TestWithParam<SourceCase> {};

TEST_P(SendSourceTest, PinsBlockingStatsPathAndArrival) {
  const SourceCase& c = GetParam();
  // Unregistered host memory, page-aligned so that an MR-cache registration
  // covers exactly the tensor's pages wherever the heap puts the backing.
  // Declared first: the mechanism holds the sent tensor until it is destroyed.
  constexpr uintptr_t kPage = 4096;
  std::vector<uint8_t> host_backing(kSourceBytes + kPage);
  void* host_buffer = host_backing.data() +
                      (kPage - reinterpret_cast<uintptr_t>(host_backing.data()) % kPage) % kPage;
  const bool gpu =
      c.source == SourceClass::kGpuWithoutGdr || c.source == SourceClass::kGpuWithGdr;
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal, gpu,
                             /*gdr=*/c.source == SourceClass::kGpuWithGdr);
  auto graph = GradientGraph(kSourceElements);  // worker:0 -> ps:0.
  ZeroCopyOptions options;
  options.force_dynamic = c.dynamic;
  options.use_mr_cache = c.source == SourceClass::kUnregisteredMrCache;
  ZeroCopyRdmaMechanism mech(cluster.get(), options);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const graph::TransferEdge& edge = session.transfer_edges()[0];

  runtime::HostRuntime* worker = cluster->host("worker:0");
  Tensor source(std::make_shared<tensor::Buffer>(host_buffer, kSourceBytes), DType::kFloat32,
                TensorShape{kSourceElements});
  if (c.source == SourceClass::kRegisteredHostArena) {
    source = Tensor((*worker->rdma_arena())->allocator.get(), DType::kFloat32,
                    TensorShape{kSourceElements});
  } else if (gpu) {
    source = Tensor((*worker->gpu_arena())->allocator.get(), DType::kFloat32,
                    TensorShape{kSourceElements});
  }
  std::fill_n(source.data<float>(), kSourceElements, 0.25f);

  // Leave no hole in the sender's arena big enough for a staging copy.
  std::vector<void*> burned;
  if (c.source == SourceClass::kSenderArenaExhausted) {
    tensor::Allocator* arena = (*worker->rdma_arena())->allocator.get();
    for (void* p; (p = arena->Allocate(kSourceBytes)) != nullptr;) burned.push_back(p);
  }

  const int sends = c.source == SourceClass::kUnregisteredMrCache ? 2 : 1;
  const ZeroCopyStats before = mech.stats();
  SourceOutcome got;
  sim::Simulator* simulator = cluster->simulator();
  for (int step = 0; step < sends; ++step) {
    mech.BeginStep(step);
    const int64_t start = simulator->Now();
    bool sent = false;
    got.blocking_ns.push_back(mech.Send(edge, source, [&sent](Status s) {
      CHECK_OK(s);
      sent = true;
    }));
    Tensor received;
    int64_t recv_ns = -1;
    ASSERT_TRUE(simulator
                    ->RunUntilPredicate([&] {
                      if (recv_ns < 0 && mech.TryRecv(edge, &received)) {
                        recv_ns = simulator->Now() - start;
                      }
                      return sent && recv_ns >= 0;
                    })
                    .ok());
    got.recv_ns.push_back(recv_ns);
    ASSERT_EQ(received.num_elements(), kSourceElements);
  }
  got.deltas = Delta(mech.stats(), before);
  got.path = mech.edge_path(edge.key);

  const SourceOutcome want = ExpectedSourceOutcome(c);
  EXPECT_EQ(got.blocking_ns, want.blocking_ns);
  EXPECT_EQ(got.recv_ns, want.recv_ns);
  EXPECT_EQ(got.deltas, want.deltas);
  EXPECT_EQ(got.path, want.path);

  tensor::Allocator* arena = (*worker->rdma_arena())->allocator.get();
  for (void* p : burned) arena->Deallocate(p);
}

std::vector<SourceCase> AllSourceCases() {
  std::vector<SourceCase> cases;
  for (SourceClass source :
       {SourceClass::kRegisteredHostArena, SourceClass::kUnregisteredStaged,
        SourceClass::kUnregisteredMrCache, SourceClass::kGpuWithoutGdr,
        SourceClass::kGpuWithGdr, SourceClass::kSenderArenaExhausted}) {
    for (bool dynamic : {false, true}) cases.push_back({source, dynamic});
  }
  return cases;
}

std::string SourceCaseLabel(const SourceCase& c) {
  static const char* const kSources[] = {"RegisteredHostArena", "UnregisteredStaged",
                                         "UnregisteredMrCache", "GpuWithoutGdr",
                                         "GpuWithGdr",          "SenderArenaExhausted"};
  return std::string(kSources[static_cast<int>(c.source)]) + (c.dynamic ? "Dynamic" : "Static");
}

void PrintTo(const SourceCase& c, std::ostream* os) { *os << SourceCaseLabel(c); }

INSTANTIATE_TEST_SUITE_P(DecisionTable, SendSourceTest, ::testing::ValuesIn(AllSourceCases()),
                         [](const auto& info) { return SourceCaseLabel(info.param); });

TEST(RpcMechanismDetailTest, LargeMessagesFragmentOnRingBuffer) {
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.cost.rpc_ring_buffer_bytes = 64 * 1024;  // Small ring for the test.
  options.process_defaults.rdma_arena_bytes = 16ull << 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  auto graph = GradientGraph(1 << 16);  // 256 KB message over a 64 KB ring.
  RpcMechanism mech(&cluster, net::Plane::kTcp);
  DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().messages, 1);
  EXPECT_EQ(mech.stats().fragments, 4);
  // Fragmentation copies on both sides: > one message's worth.
  EXPECT_GT(mech.stats().copied_bytes, uint64_t{1} << 18);
  // Data integrity across fragmentation.
  const Tensor* out = session.executor_for("ps:0")->OutputOf("consume");
  EXPECT_NEAR(out->at<float>(0), 0.5 * (1 << 16), 1.0);
}

TEST(RpcMechanismDetailTest, SmallMessageSingleFragment) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = GradientGraph(64);
  RpcMechanism mech(cluster.get(), net::Plane::kRdma);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().fragments, 1);
}

TEST(RpcMechanismDetailTest, TcpHasNoSizeLimit) {
  // Only the gRPC.RDMA transport crashed on >1 GB; TCP carried them (slowly).
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kSimulated;  // 2 GB tensor: virtual memory.
  options.cost.rpc_rdma_max_message_bytes = 1ull << 30;
  options.process_defaults.rdma_arena_bytes = 16ull << 30;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  auto graph = GradientGraph(1ull << 29);  // 2 GB of float32.
  RpcMechanism mech(&cluster, net::Plane::kTcp);
  DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  EXPECT_TRUE(session.RunStep().ok());
}

TEST(MechanismTimingTest, DynamicProtocolSlowerThanStatic) {
  // The §3.3 path pays metadata write + allocation + read round trip.
  auto time_one = [](bool force_dynamic) {
    auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
    auto graph = WeightConsumerGraph(1 << 18);
    ZeroCopyOptions options;
    options.force_dynamic = force_dynamic;
    ZeroCopyRdmaMechanism mech(cluster.get(), options);
    DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_GT(time_one(true), time_one(false));
}

TEST(MechanismTimingTest, LoopbackFasterThanCrossMachine) {
  // Worker and PS on the same machine (the 1-server distributed case of
  // Figure 11) short-cuts through loopback.
  auto time_one = [](int machines) {
    ClusterOptions options;
    options.num_machines = machines;
    options.mode = ops::ComputeMode::kReal;
    options.process_defaults.rdma_arena_bytes = 32ull << 20;
    Cluster cluster(options);
    CHECK_OK(cluster.AddProcess("ps:0", 0).status());
    CHECK_OK(cluster.AddProcess("worker:0", machines - 1).status());
    auto graph = WeightConsumerGraph(1 << 20);
    ZeroCopyRdmaMechanism mech(&cluster, ZeroCopyOptions{});
    DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_LT(time_one(1), time_one(2));
}

}  // namespace
}  // namespace comm
}  // namespace rdmadl
