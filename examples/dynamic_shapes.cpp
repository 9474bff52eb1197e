// Transfer with dynamic allocation (§3.3): variable-length mini-batches.
//
// An RNN-style workload where the batch's sequence length changes every
// iteration, so the tensor crossing the wire has a different shape each step.
// Static placement is impossible; the mechanism falls back to the dynamic
// protocol: a fixed-size metadata block (the rank never changes) is written
// by the sender, the receiver polls its flag, allocates storage of the right
// shape from its RDMA arena, and pulls the payload with a one-sided read.
//
// Run: ./build/examples/dynamic_shapes
#include <cstdio>

#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"

using namespace rdmadl;  // NOLINT: example brevity.
using graph::Graph;
using graph::Node;
using tensor::DType;
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

  // The worker embeds a variable-length token batch and ships the activations
  // to a consumer on the other server.
  constexpr int64_t kFeatures = 64;
  Graph graph;
  Node* tokens = *graph.AddNode("tokens", "Placeholder", std::vector<Node*>{});
  tokens->SetAttr("shape", TensorShape{tensor::kUnknownDim, kFeatures});  // Length unknown.
  tokens->set_device("worker:0");
  Node* weights = *graph.AddNode("weights", "Const", std::vector<Node*>{});
  weights->SetAttr("shape", TensorShape{kFeatures, kFeatures});
  weights->SetAttr("fill_value", 0.5);
  weights->set_device("worker:0");
  Node* hidden = *graph.AddNode("hidden", "MatMul", {tokens, weights});
  hidden->set_device("worker:0");
  Node* pooled = *graph.AddNode("pooled", "ReduceSum", {hidden});
  pooled->set_device("ps:0");

  comm::ZeroCopyRdmaMechanism mechanism(&cluster, comm::ZeroCopyOptions{});
  runtime::DistributedSession session(&cluster, &mechanism, &graph,
                                      runtime::SessionOptions{});
  CHECK_OK(session.Setup());
  CHECK_EQ(session.transfer_edges().size(), 1u);
  std::printf("edge %s: shape %s at setup time -> dynamic protocol (§3.3)\n",
              session.transfer_edges()[0].key.c_str(),
              session.transfer_edges()[0].shape.ToString().c_str());

  // Mini-batches with different sequence lengths, like an NLP workload.
  const int lengths[] = {5, 23, 11, 64, 3, 40};
  for (int length : lengths) {
    Tensor batch(tensor::CpuAllocator::Get(), DType::kFloat32,
                 TensorShape{length, kFeatures});
    for (int64_t i = 0; i < batch.num_elements(); ++i) batch.at<float>(i) = 1.0f;
    std::unordered_map<std::string, Tensor> feeds{{"tokens", batch}};
    CHECK_OK(session.RunStep(feeds));
    const Tensor* out = session.executor_for("ps:0")->OutputOf("pooled");
    // sum over [length x 64] of (64 * 0.5) = length * 64 * 32.
    const float expected = static_cast<float>(length) * kFeatures * (kFeatures * 0.5f);
    CHECK_EQ(out->at<float>(0), expected);
    std::printf("  length %2d -> transferred [%d,%ld] (%6ld bytes), checksum OK\n", length,
                length, kFeatures, length * kFeatures * 4l);
  }

  std::printf("\n%lld dynamic transfers, %lld static — the metadata block is %s\n",
              static_cast<long long>(mechanism.stats().dynamic_transfers),
              static_cast<long long>(mechanism.stats().static_transfers),
              "fixed-size because the tensor rank never changes (§3.3).");
  return 0;
}
