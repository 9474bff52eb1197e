// Distributed training end-to-end: a real two-layer MLP classifier trained
// data-parallel across two simulated machines (Figure 3's architecture:
// parameters on a PS process, compute on a worker process), with full numeric
// computation — every weight and gradient really crosses the simulated RDMA
// fabric through the zero-copy mechanism, and the loss really goes down.
//
// Also trains the identical model with gRPC-over-TCP and prints the virtual
// wall-clock both need, showing the communication gap on an intact workload.
//
// Run: ./build/examples/distributed_training
#include <cstdio>
#include <memory>

#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"
#include "src/sim/rng.h"

using namespace rdmadl;  // NOLINT: example brevity.
using graph::Graph;
using graph::Node;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

namespace {

constexpr int kBatch = 32;
constexpr int kInputDim = 16;
constexpr int kHidden = 32;
constexpr int kClasses = 4;
constexpr int kSteps = 60;

// Builds: worker computes  h = relu(x W1 + b1), logits = h W2 + b2,
// loss = softmax xent; gradients flow back to the PS where SGD applies them.
// The backward pass is hand-constructed from the gradient kernels.
struct Mlp {
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  Node* loss = nullptr;
};

Node* Var(Graph* g, const std::string& name, TensorShape shape, double scale) {
  Node* v = *g->AddNode(name, "Variable", std::vector<Node*>{});
  v->SetAttr("shape", std::move(shape));
  v->SetAttr("init", std::string("uniform"));
  v->SetAttr("init_scale", scale);
  v->set_device("ps:0");
  return v;
}

Node* Op(Graph* g, const std::string& name, const std::string& op, std::vector<Node*> in) {
  Node* n = *g->AddNode(name, op, std::move(in));
  n->set_device("worker:0");
  return n;
}

Mlp BuildMlp() {
  ops::RegisterStandardOps();
  Mlp m;
  Graph* g = m.graph.get();
  Node* w1 = Var(g, "w1", TensorShape{kInputDim, kHidden}, 0.3);
  Node* b1 = Var(g, "b1", TensorShape{kHidden}, 0.0);
  Node* w2 = Var(g, "w2", TensorShape{kHidden, kClasses}, 0.3);
  Node* b2 = Var(g, "b2", TensorShape{kClasses}, 0.0);

  Node* x = Op(g, "x", "Placeholder", {});
  x->SetAttr("shape", TensorShape{kBatch, kInputDim});
  Node* y = Op(g, "y", "Placeholder", {});
  y->SetAttr("shape", TensorShape{kBatch, kClasses});

  // Forward.
  Node* z1 = Op(g, "z1", "MatMul", {x, w1});
  Node* z1b = Op(g, "z1b", "BiasAdd", {z1, b1});
  Node* h = Op(g, "h", "Relu", {z1b});
  Node* z2 = Op(g, "z2", "MatMul", {h, w2});
  Node* logits = Op(g, "logits", "BiasAdd", {z2, b2});
  m.loss = Op(g, "loss", "SoftmaxXentLoss", {logits, y});

  // Backward (hand-derived).
  Node* dlogits = Op(g, "dlogits", "SoftmaxXentGrad", {logits, y});
  Node* db2 = Op(g, "db2", "BiasAddGrad", {dlogits});
  Node* dw2 = Op(g, "dw2", "MatMul", {h, dlogits});
  dw2->SetAttr("transpose_a", true);
  Node* dh = Op(g, "dh", "MatMul", {dlogits, w2});
  dh->SetAttr("transpose_b", true);
  Node* dz1 = Op(g, "dz1", "ReluGrad", {h, dh});
  Node* db1 = Op(g, "db1", "BiasAddGrad", {dz1});
  Node* dw1 = Op(g, "dw1", "MatMul", {x, dz1});
  dw1->SetAttr("transpose_a", true);

  // SGD on the PS.
  const std::pair<Node*, Node*> updates[] = {{w1, dw1}, {b1, db1}, {w2, dw2}, {b2, db2}};
  for (auto [var, grad] : updates) {
    Node* apply = *g->AddNode("apply_" + var->name(), "ApplySgd",
                              std::vector<Node*>{var, grad});
    apply->SetAttr("learning_rate", 0.5);
    apply->set_device("ps:0");
  }
  return m;
}

// A learnable synthetic task: class = argmax over kClasses fixed random
// projections of x.
void FillBatch(sim::Rng* rng, Tensor* x, Tensor* y) {
  static float projections[kClasses][kInputDim];
  static bool init = false;
  if (!init) {
    sim::Rng proj_rng(7);
    for (auto& row : projections) {
      for (float& v : row) v = static_cast<float>(proj_rng.Normal());
    }
    init = true;
  }
  for (int b = 0; b < kBatch; ++b) {
    float best = -1e30f;
    int label = 0;
    for (int i = 0; i < kInputDim; ++i) {
      x->at<float>(b * kInputDim + i) = static_cast<float>(rng->Normal());
    }
    for (int c = 0; c < kClasses; ++c) {
      float score = 0;
      for (int i = 0; i < kInputDim; ++i) {
        score += projections[c][i] * x->at<float>(b * kInputDim + i);
      }
      if (score > best) {
        best = score;
        label = c;
      }
    }
    for (int c = 0; c < kClasses; ++c) y->at<float>(b * kClasses + c) = (c == label) ? 1 : 0;
  }
}

struct RunResult {
  double first_loss, last_loss;
  double virtual_ms;
};

RunResult Train(runtime::TransferMechanism* mechanism, runtime::Cluster* cluster) {
  Mlp mlp = BuildMlp();
  runtime::DistributedSession session(cluster, mechanism, mlp.graph.get(),
                                      runtime::SessionOptions{});
  CHECK_OK(session.Setup());

  Tensor x(tensor::CpuAllocator::Get(), DType::kFloat32, TensorShape{kBatch, kInputDim});
  Tensor y(tensor::CpuAllocator::Get(), DType::kFloat32, TensorShape{kBatch, kClasses});
  std::unordered_map<std::string, Tensor> feeds{{"x", x}, {"y", y}};
  sim::Rng rng(1234);

  RunResult result{0, 0, 0};
  const int64_t start = cluster->simulator()->Now();
  for (int step = 0; step < kSteps; ++step) {
    FillBatch(&rng, &x, &y);
    CHECK_OK(session.RunStep(feeds));
    const Tensor* loss = session.executor_for("worker:0")->OutputOf("loss");
    const double value = loss->at<float>(0);
    if (step == 0) result.first_loss = value;
    result.last_loss = value;
    if (step % 10 == 0) {
      std::printf("  step %2d  loss %.4f\n", step, value);
    }
  }
  result.virtual_ms = (cluster->simulator()->Now() - start) / 1e6;
  return result;
}

std::unique_ptr<runtime::Cluster> MakeCluster() {
  runtime::ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;  // Full numerics.
  options.rdma_arena_bytes = 8ull << 20;
  options.seed = 42;
  auto cluster = std::make_unique<runtime::Cluster>(options);
  CHECK_OK(cluster->AddProcess("ps:0", 0).status());
  CHECK_OK(cluster->AddProcess("worker:0", 1).status());
  return cluster;
}

}  // namespace

int main() {
  std::printf("Training a real MLP classifier across 2 simulated machines\n");
  std::printf("(params on ps:0, compute on worker:0; every tensor crosses the wire)\n\n");

  std::printf("[RDMA.zerocp] — the paper's zero-copy mechanism\n");
  auto cluster_rdma = MakeCluster();
  comm::ZeroCopyRdmaMechanism zerocp(cluster_rdma.get(), comm::ZeroCopyOptions{});
  RunResult rdma = Train(&zerocp, cluster_rdma.get());

  std::printf("\n[gRPC.TCP] — TensorFlow's default transport\n");
  auto cluster_tcp = MakeCluster();
  comm::RpcMechanism rpc(cluster_tcp.get(), net::Plane::kTcp);
  RunResult tcp = Train(&rpc, cluster_tcp.get());

  std::printf("\nresults after %d steps (identical seeds -> identical math):\n", kSteps);
  std::printf("  loss: %.4f -> %.4f (both mechanisms, bit-identical)\n", rdma.first_loss,
              rdma.last_loss);
  CHECK_EQ(rdma.last_loss, tcp.last_loss);
  std::printf("  virtual training time: RDMA.zerocp %.2f ms vs gRPC.TCP %.2f ms (%.1fx)\n",
              rdma.virtual_ms, tcp.virtual_ms, tcp.virtual_ms / rdma.virtual_ms);
  std::printf("  zero-copy sends: %lld, staged: %lld (step 0 traces allocation sites)\n",
              static_cast<long long>(zerocp.stats().zero_copy_sends),
              static_cast<long long>(zerocp.stats().staged_sends));
  CHECK(rdma.last_loss < rdma.first_loss * 0.5) << "training did not converge";
  return 0;
}
