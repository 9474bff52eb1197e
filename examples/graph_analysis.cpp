// The RDMA-aware graph analyzer (§3.4) in action.
//
// Builds a graph where the tensor reaching a cross-server _Send was NOT
// allocated by the send's direct predecessor (an Identity chain passes the
// buffer through), then watches what the analyzer does step by step:
//
//   step 0: allocation-site tracing — the transferred buffer is staged
//           (one extra copy) while the tracer maps addresses to nodes;
//   step 1+: the true allocating node is in set S, its output lands in the
//           pre-registered RDMA arena, and the copy disappears.
//
// Run: ./build/examples/graph_analysis
#include <cstdio>
#include <memory>

#include "src/analyzer/shape_inference.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"

using namespace rdmadl;  // NOLINT: example brevity.
using graph::Graph;
using graph::Node;
using tensor::Tensor;
using tensor::TensorShape;

int main() {
  runtime::ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.rdma_arena_bytes = 8ull << 20;
  runtime::Cluster cluster(options);
  CHECK_OK(cluster.AddProcess("ps:0", 0).status());
  CHECK_OK(cluster.AddProcess("worker:0", 1).status());
  ops::RegisterStandardOps();

  // worker: producer -> Identity -> Identity -> (cross-server edge) -> ps.
  // The Identities alias the producer's buffer; only dynamic tracing can tell
  // that "producer" is the node whose allocation must become RDMA-accessible.
  Graph graph;
  Node* producer = *graph.AddNode("producer", "Const", std::vector<Node*>{});
  producer->SetAttr("shape", TensorShape{256, 256});
  producer->SetAttr("fill_value", 1.0);
  producer->set_device("worker:0");
  Node* alias1 = *graph.AddNode("alias1", "Identity", {producer});
  alias1->set_device("worker:0");
  Node* alias2 = *graph.AddNode("alias2", "Identity", {alias1});
  alias2->set_device("worker:0");
  Node* consumer = *graph.AddNode("consumer", "ReduceSum", {alias2});
  consumer->set_device("ps:0");

  // Static shape inference (the §3.4 "preallocate data buffers" pass).
  CHECK_OK(analyzer::RunShapeInference(&graph));
  analyzer::ShapeInferenceStats stats = analyzer::ComputeShapeStats(graph);
  std::printf("shape inference: %d/%d nodes statically shaped -> static placement (§3.2)\n",
              stats.static_nodes, stats.total_nodes);

  comm::ZeroCopyRdmaMechanism mechanism(&cluster, comm::ZeroCopyOptions{});
  runtime::DistributedSession session(&cluster, &mechanism, &graph,
                                      runtime::SessionOptions{});
  CHECK_OK(session.Setup());
  std::printf("setup: receive tensor preallocated in ps:0's RDMA arena, address\n");
  std::printf("       distributed to worker:0 over the device library's vanilla RPC\n\n");

  int64_t prev_staged = 0, prev_zero = 0;
  for (int step = 0; step < 4; ++step) {
    CHECK_OK(session.RunStep());
    const auto& s = mechanism.stats();
    std::printf("step %d: %s send  (staged so far: %lld, zero-copy so far: %lld)\n", step,
                s.staged_sends > prev_staged ? "STAGED+COPY" : "ZERO-COPY  ",
                static_cast<long long>(s.staged_sends),
                static_cast<long long>(s.zero_copy_sends));
    prev_staged = s.staged_sends;
    prev_zero = s.zero_copy_sends;
    (void)prev_zero;
    // Correctness every step: sum of 256x256 ones.
    const Tensor* out = session.executor_for("ps:0")->OutputOf("consumer");
    CHECK_EQ(out->at<float>(0), 256.0f * 256.0f);
  }

  std::printf("\nstep 0 paid the copy while the tracer learned that 'producer' allocates\n");
  std::printf("the transferred buffer; every later step is zero-copy. Total staged bytes:\n");
  std::printf("%lld (exactly one 256 KB tensor).\n",
              static_cast<long long>(mechanism.stats().staged_bytes));
  return 0;
}
