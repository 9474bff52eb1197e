// End-to-end tests of the distributed runtime: executor scheduling, session
// step loop, and all transfer mechanisms in real-memory mode (bytes actually
// cross the simulated wire and numerics must survive).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/check/explore.h"
#include "src/check/mutation.h"
#include "src/check/testing.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"
#include "src/sim/explore.h"

namespace rdmadl {
namespace runtime {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

using graph::Graph;
using graph::Node;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

std::unique_ptr<Cluster> MakeCluster(int machines) {
  ClusterOptions options;
  options.num_machines = machines;
  options.mode = ops::ComputeMode::kReal;
  options.rdma_arena_bytes = 8ull << 20;
  options.seed = 99;
  return std::make_unique<Cluster>(options);
}

// Builds the canonical PS/worker graph of Figure 3, small enough for real
// math:  ps:0 holds w [4,4]; worker computes g = Identity(MatMul(w, x)) and
// ships it back; ps applies SGD. The Identity exercises the allocation-site
// tracer (the transferred buffer is allocated by MatMul, not by _Send's
// direct predecessor).
struct PsWorkerGraph {
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  Node* w = nullptr;
  Node* apply = nullptr;
};

PsWorkerGraph BuildPsWorkerGraph() {
  ops::RegisterStandardOps();
  PsWorkerGraph g;
  Graph* graph = g.graph.get();
  g.w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
  g.w->SetAttr("shape", TensorShape{4, 4});
  g.w->SetAttr("init", std::string("uniform"));
  g.w->SetAttr("init_scale", 0.5);
  g.w->set_device("ps:0");

  Node* x = *graph->AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{4, 4});
  x->set_device("worker:0");

  Node* h = *graph->AddNode("h", "MatMul", {g.w, x});
  h->set_device("worker:0");
  Node* pass = *graph->AddNode("pass", "Identity", {h});
  pass->set_device("worker:0");

  g.apply = *graph->AddNode("apply", "ApplySgd", {g.w, pass});
  g.apply->SetAttr("learning_rate", 0.25);
  g.apply->set_device("ps:0");
  return g;
}

Tensor Ones(const TensorShape& shape) {
  Tensor t(tensor::CpuAllocator::Get(), DType::kFloat32, shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) t.at<float>(i) = 1.0f;
  return t;
}

// Runs |steps| steps of the PS/worker graph under |mechanism|, returning the
// final weights.
StatusOr<std::vector<float>> RunTraining(Cluster* cluster, TransferMechanism* mechanism,
                                         int steps) {
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster, mechanism, g.graph.get(), SessionOptions{});
  RDMADL_RETURN_IF_ERROR(session.Setup());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});
  for (int i = 0; i < steps; ++i) {
    RDMADL_RETURN_IF_ERROR(session.RunStep(feeds));
  }
  const Tensor& w = cluster->host("ps:0")->resources()->GetVariable("w");
  std::vector<float> out(w.num_elements());
  for (int64_t i = 0; i < w.num_elements(); ++i) out[i] = w.at<float>(i);
  return out;
}

TEST(SessionTest, SingleDeviceGraphRuns) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  ops::RegisterStandardOps();
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{8});
  a->SetAttr("fill_value", 3.0);
  a->set_device("worker:0");
  Node* b = *graph.AddNode("b", "ReduceSum", {a});
  b->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  const Tensor* out = session.executor_for("worker:0")->OutputOf("b");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->at<float>(0), 24.0f);
  EXPECT_GT(session.last_step_duration_ns(), 0);
}

TEST(SessionTest, StepDurationReflectsCostAnnotations) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  a->SetAttr("cost_ns", 5'000'000.0);  // 5 ms of simulated compute.
  a->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GE(session.last_step_duration_ns(), 5'000'000);
  EXPECT_LT(session.last_step_duration_ns(), 6'000'000);
}

TEST(SessionTest, BatchMultiplierScalesCompute) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  a->SetAttr("cost_ns", 1'000'000.0);
  a->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  SessionOptions options;
  options.executor.batch_multiplier = 4.0;
  DistributedSession session(cluster.get(), &mech, &graph, options);
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GE(session.last_step_duration_ns(), 4'000'000);
}

TEST(SessionTest, ComputeSerializationModes) {
  // Cost-annotated ops model GPU kernels: with serialize_compute (the
  // default) they run one at a time on the device; with it off they overlap
  // across executor workers.
  auto run = [](bool serialize) {
    auto cluster = MakeCluster(1);
    CHECK_OK(cluster->AddProcess("worker:0", 0).status());
    Graph graph;
    for (int i = 0; i < 4; ++i) {
      Node* n = *graph.AddNode(StrCat("c", i), "Const", std::vector<Node*>{});
      n->SetAttr("shape", TensorShape{1});
      n->SetAttr("cost_ns", 1'000'000.0);
      n->set_device("worker:0");
    }
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
    SessionOptions options;
    options.executor.num_workers = 4;
    options.executor.serialize_compute = serialize;
    DistributedSession session(cluster.get(), &mech, &graph, options);
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_GE(run(true), 4'000'000);   // Serial on the device.
  EXPECT_LT(run(false), 2'000'000);  // Overlapped on CPU workers.
}

TEST(SessionTest, MissingPlacementFailsSetup) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  EXPECT_FALSE(session.Setup().ok());
}

class MechanismEquivalenceTest : public ::testing::Test {};

TEST_F(MechanismEquivalenceTest, AllMechanismsProduceIdenticalTraining) {
  // The acid test: four transport stacks, byte-identical results. Any copy,
  // flag, ordering, or rendezvous bug shows up as weight divergence.
  std::vector<std::vector<float>> results;
  std::vector<std::string> names;

  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
    EXPECT_GT(mech.stats().static_transfers, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions opts;
    opts.graph_analysis = false;  // RDMA.cp
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), opts);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
    EXPECT_GT(mech.stats().staged_sends, 0);
    EXPECT_EQ(mech.stats().zero_copy_sends, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions opts;
    opts.force_dynamic = true;  // §3.3 protocol on static shapes.
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), opts);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back("RDMA.zerocp-dynamic");
    EXPECT_GT(mech.stats().dynamic_transfers, 0);
    EXPECT_EQ(mech.stats().static_transfers, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism mech(cluster.get(), net::Plane::kTcp);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism mech(cluster.get(), net::Plane::kRdma);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
  }

  // Training must have moved the weights at all.
  bool moved = false;
  for (float v : results[0]) {
    if (std::abs(v) > 1e-6) moved = true;
  }
  EXPECT_TRUE(moved);

  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    for (size_t j = 0; j < results[0].size(); ++j) {
      EXPECT_EQ(results[i][j], results[0][j])
          << names[i] << " diverged from " << names[0] << " at weight " << j;
    }
  }
}

TEST_F(MechanismEquivalenceTest, ZeroCopyIsFasterThanBaselines) {
  // Figure 8/9 shape at miniature scale: zerocp < cp < gRPC.RDMA < gRPC.TCP
  // in per-step time. Use a larger weight so transfer time dominates.
  auto build = [](Cluster* cluster) {
    ops::RegisterStandardOps();
    auto graph = std::make_unique<Graph>();
    Node* w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
    w->SetAttr("shape", TensorShape{512, 512});  // 1 MB
    w->SetAttr("init", std::string("zeros"));
    w->set_device("ps:0");
    Node* g = *graph->AddNode("g", "Identity", {w});
    g->set_device("worker:0");
    Node* apply = *graph->AddNode("apply", "ApplySgd", {w, g});
    apply->SetAttr("learning_rate", 0.0);
    apply->set_device("ps:0");
    return graph;
  };
  auto time_with = [&](TransferMechanism* mech, Cluster* cluster) -> int64_t {
    auto graph = build(cluster);
    DistributedSession session(cluster, mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());  // Warm-up (tracing step for zerocp).
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };

  int64_t t_zerocp, t_cp, t_rpc_rdma, t_rpc_tcp;
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyRdmaMechanism m(c.get(), comm::ZeroCopyOptions{});
    t_zerocp = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions o;
    o.graph_analysis = false;
    comm::ZeroCopyRdmaMechanism m(c.get(), o);
    t_cp = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism m(c.get(), net::Plane::kRdma);
    t_rpc_rdma = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism m(c.get(), net::Plane::kTcp);
    t_rpc_tcp = time_with(&m, c.get());
  }
  EXPECT_LT(t_zerocp, t_cp);
  EXPECT_LT(t_cp, t_rpc_rdma);
  EXPECT_LT(t_rpc_rdma, t_rpc_tcp);
}

TEST(ZeroCopyAnalysisTest, TracerPromotesAllocationSiteAfterFirstStep) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});

  // Step 0: the worker's gradient buffer (allocated by MatMul, hidden behind
  // Identity) is not yet known to be hot -> staged copy. The PS's weight is a
  // static producer -> zero-copy from the start.
  ASSERT_TRUE(session.RunStep(feeds).ok());
  EXPECT_EQ(mech.stats().staged_sends, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 1);

  // Step 1+: the tracer promoted MatMul's allocation site into set S; the
  // gradient is now allocated in the RDMA arena -> both directions zero-copy.
  ASSERT_TRUE(session.RunStep(feeds).ok());
  EXPECT_EQ(mech.stats().staged_sends, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 3);
}

TEST(ZeroCopyAnalysisTest, DynamicShapeUsesDynamicProtocol) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  ops::RegisterStandardOps();
  Graph graph;
  // x has an unknown batch dimension -> h's shape is dynamic -> §3.3 path.
  Node* x = *graph.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{tensor::kUnknownDim, 4});
  x->set_device("worker:0");
  Node* w = *graph.AddNode("w", "Const", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{4, 2});
  w->SetAttr("fill_value", 1.0);
  w->set_device("worker:0");
  Node* h = *graph.AddNode("h", "MatMul", {x, w});
  h->set_device("worker:0");
  Node* sum = *graph.AddNode("sum", "ReduceSum", {h});
  sum->set_device("ps:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());

  // Vary the batch size across steps, as an RNN with variable-length
  // sequences would (§3.3's motivation).
  for (int batch : {2, 5, 3}) {
    std::unordered_map<std::string, Tensor> feeds;
    feeds["x"] = Ones(TensorShape{batch, 4});
    ASSERT_TRUE(session.RunStep(feeds).ok());
    const Tensor* out = session.executor_for("ps:0")->OutputOf("sum");
    ASSERT_NE(out, nullptr);
    // sum(ones[batch,4] x ones[4,2]) = batch * 2 * 4.
    EXPECT_EQ(out->at<float>(0), static_cast<float>(batch * 8));
  }
  EXPECT_EQ(mech.stats().dynamic_transfers, 3);
  EXPECT_EQ(mech.stats().static_transfers, 0);
}

TEST(RpcMechanismTest, RdmaVariantCrashesAboveOneGigabyte) {
  // Reproduces TF r1.2's documented gRPC.RDMA failure (missing Figure 8
  // point) without allocating a real gigabyte: shrink the limit.
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.cost.rpc_rdma_max_message_bytes = 1024;  // Scaled-down limit.
  options.rdma_arena_bytes = 8ull << 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());

  ops::RegisterStandardOps();
  Graph graph;
  Node* w = *graph.AddNode("w", "Const", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{1024});  // 4 KB > the shrunken limit.
  w->set_device("worker:0");
  Node* sum = *graph.AddNode("sum", "ReduceSum", {w});
  sum->set_device("ps:0");

  comm::RpcMechanism mech(&cluster, net::Plane::kRdma);
  DistributedSession session(&cluster, &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  Status status = session.RunStep();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1 GB"), std::string::npos);
}

TEST(ExecutorStatsTest, PollingAsyncRecvPollsMoreThanOnce) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});
  ASSERT_TRUE(session.RunStep(feeds).ok());
  const ExecutorStats& stats = session.executor_for("worker:0")->stats();
  // The weight tensor takes ~microseconds to arrive; the polling-async recv
  // must have re-polled (failed polls re-enqueue at the queue tail, §4).
  EXPECT_GT(stats.poll_attempts, 1);
  EXPECT_GT(stats.failed_polls, 0);
}

// Polling-async semantics pinned to exact virtual-clock values. One executor
// worker per process; on the worker, two compute nodes that each hold the
// worker (serialize_compute off) head the ready queue, so the two polled
// _Recvs queued behind the second one are not polled until it starts. One
// _Recv is a GPU-staged static edge (busy while the PCIe copy runs), the other
// a dynamic-protocol edge (busy while its payload is read). The ps polls the
// worker's result over a plain static edge. Which polls run, and when, fixes
// every number below.
TEST(ExecutorStatsTest, PollingAsyncSemanticsArePinned) {
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.rdma_arena_bytes = 8ull << 20;
  options.seed = 99;
  options.worker_tensors_on_gpu = true;  // Static edges into the worker stage over PCIe.
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());

  ops::RegisterStandardOps();
  Graph graph;
  for (const auto& [name, cost] : {std::pair{"busy0", 40'000.0}, {"busy1", 20'000.0}}) {
    Node* n = *graph.AddNode(name, "Const", std::vector<Node*>{});
    n->SetAttr("shape", TensorShape{1});
    n->SetAttr("cost_ns", cost);
    n->set_device("worker:0");
  }
  Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{64, 64});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  Node* d = *graph.AddNode("d", "Placeholder", std::vector<Node*>{});
  d->SetAttr("shape", TensorShape{tensor::kUnknownDim, 8});
  d->set_device("ps:0");
  Node* sw = *graph.AddNode("sw", "ReduceSum", {w});
  sw->set_device("worker:0");
  Node* sd = *graph.AddNode("sd", "ReduceSum", {d});
  sd->set_device("worker:0");
  Node* total = *graph.AddNode("total", "Add", {sw, sd});
  total->set_device("worker:0");
  Node* out = *graph.AddNode("out", "Identity", {total});
  out->set_device("ps:0");

  comm::ZeroCopyRdmaMechanism mech(&cluster, comm::ZeroCopyOptions{});
  SessionOptions session_options;
  session_options.executor.num_workers = 1;
  session_options.executor.serialize_compute = false;
  DistributedSession session(&cluster, &mech, &graph, session_options);
  ASSERT_TRUE(session.Setup().ok());

  struct Recv {
    Executor* executor;
    std::string node;
  };
  std::vector<Recv> recvs;
  for (const graph::TransferEdge& edge : session.transfer_edges()) {
    recvs.push_back({session.executor_for(edge.dst_device), edge.recv_node});
  }
  ASSERT_EQ(recvs.size(), 3u);

  struct StepRecord {
    int64_t step_ns = 0;
    std::vector<int64_t> recv_done_ns;  // Per transfer edge, from step start.
    ExecutorStats worker;
    ExecutorStats ps;
  };
  // Drives one step by hand (what RunStep does) so every _Recv's completion
  // instant can be read between events.
  auto run_step = [&](int64_t step, int64_t rows) {
    std::unordered_map<std::string, Tensor> feeds;
    feeds["d"] = Ones(TensorShape{rows, 8});
    sim::Simulator* simulator = cluster.simulator();
    const int64_t start = simulator->Now();
    StepRecord record;
    record.recv_done_ns.assign(recvs.size(), -1);
    mech.BeginStep(step);
    int pending = 0;
    for (const std::string device : {"ps:0", "worker:0"}) {
      ++pending;
      session.executor_for(device)->RunStepAsync(&feeds, [&pending](Status s) {
        CHECK_OK(s);
        --pending;
      });
    }
    CHECK_OK(simulator->RunUntilPredicate([&] {
      for (size_t i = 0; i < recvs.size(); ++i) {
        if (record.recv_done_ns[i] < 0 && recvs[i].executor->OutputOf(recvs[i].node)->valid()) {
          record.recv_done_ns[i] = simulator->Now() - start;
        }
      }
      return pending == 0;
    }));
    record.step_ns = simulator->Now() - start;
    record.worker = session.executor_for("worker:0")->stats();
    record.ps = session.executor_for("ps:0")->stats();
    return record;
  };

  // Transfer edges in partition order: w -> worker (static, GPU-staged),
  // d -> worker (dynamic), total -> ps (static). On the worker, busy0 holds
  // the only worker until 41.5 us; both arrivals are then seen on the first
  // poll, each edge stays busy (PCIe staging, RDMA read) across the next
  // poll, and both are consumed on the third. Stats are cumulative.
  const StepRecord first = run_step(0, 3);
  EXPECT_EQ(first.step_ns, 82'580);
  EXPECT_EQ(first.recv_done_ns, (std::vector<int64_t>{44'580, 44'580, 81'080}));
  EXPECT_EQ(first.worker.poll_attempts, 6);
  EXPECT_EQ(first.worker.failed_polls, 4);
  EXPECT_EQ(first.ps.poll_attempts, 12);
  EXPECT_EQ(first.ps.failed_polls, 11);

  const StepRecord second = run_step(1, 5);
  EXPECT_EQ(second.step_ns, 82'580);
  EXPECT_EQ(second.recv_done_ns, (std::vector<int64_t>{44'580, 44'580, 81'080}));
  EXPECT_EQ(second.worker.poll_attempts, 12);
  EXPECT_EQ(second.worker.failed_polls, 8);
  EXPECT_EQ(second.ps.poll_attempts, 24);
  EXPECT_EQ(second.ps.failed_polls, 22);

  // Both received tensors reached the worker intact: sum(w) + sum(ones[5, 8]),
  // and the worker's sum came back to the ps through GPU->host staging.
  const Tensor& weights = cluster.host("ps:0")->resources()->GetVariable("w");
  float expected = 5 * 8;
  for (int64_t i = 0; i < weights.num_elements(); ++i) expected += weights.at<float>(i);
  EXPECT_NEAR(session.executor_for("worker:0")->OutputOf("total")->at<float>(0), expected, 1e-3);
  EXPECT_NEAR(session.executor_for("ps:0")->OutputOf("out")->at<float>(0), expected, 1e-3);
}

// An executor hooks each allocation-tracing wrapper once, not once per node:
// after the first step it no longer touches the host's wrappers, so a hook
// installed there later stays in place and sees the next step's allocations.
TEST(ExecutorStatsTest, AllocationHookIsInstalledOncePerWrapper) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});
  ASSERT_TRUE(session.RunStep(feeds).ok());
  ASSERT_TRUE(session.RunStep(feeds).ok());

  HostRuntime* worker = cluster->host("worker:0");
  int observed = 0;
  for (tensor::Allocator* base : std::vector<tensor::Allocator*>{
           worker->default_allocator(), worker->rdma_arena().value()->allocator.get()}) {
    worker->tracing_allocator(base)->set_alloc_hook([&observed](void*, size_t) { ++observed; });
  }
  ASSERT_TRUE(session.RunStep(feeds).ok());
  EXPECT_GT(observed, 0);
}

// The executor-side seam of the premature-flag-trust mutation: a polled
// _Recv of a 2-host zero-copy PS step acts on a zero flag byte. The explorer
// must classify the run by the checker's diagnostic, exactly as it does for
// the collective flag pollers.
TEST(ExecutorMutationTest, ExplorerCatchesPrematureFlagTrustOnPolledRecv) {
  check::ScopedMutation mutation(check::kPrematureFlagTrust);
  sim::ExploreOptions options;
  options.name = "executor-premature-flag-trust";
  options.max_schedules = 8;
  sim::Explorer explorer(options);
  sim::ExploreResult result =
      explorer.Explore(check::CheckedWorkload([](sim::Simulator& simulator) -> Status {
        // The cluster owns its simulator; the explorer's schedule policy
        // drives it instead of the fresh one handed in.
        auto cluster = MakeCluster(2);
        cluster->simulator()->set_schedule_policy(simulator.schedule_policy());
        RDMADL_RETURN_IF_ERROR(cluster->AddProcess("ps:0", 0).status());
        RDMADL_RETURN_IF_ERROR(cluster->AddProcess("worker:0", 1).status());
        comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
        PsWorkerGraph g = BuildPsWorkerGraph();
        DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
        RDMADL_RETURN_IF_ERROR(session.Setup());
        std::unordered_map<std::string, Tensor> feeds;
        feeds["x"] = Ones(TensorShape{4, 4});
        return session.RunStep(feeds);
      }));
  ASSERT_TRUE(result.failure_found) << result.Summary();
  EXPECT_EQ(result.first_failure.failure_class, "check:premature-flag-read")
      << result.first_failure.details;
  EXPECT_EQ(result.minimized_report.failure_class, "check:premature-flag-read");
}

}  // namespace
}  // namespace runtime
}  // namespace rdmadl
