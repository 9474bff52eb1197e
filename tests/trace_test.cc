#include <gtest/gtest.h>

#include <memory>
#include <fstream>

#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"
#include "src/sim/trace.h"

namespace rdmadl {
namespace sim {
namespace {

TEST(TracerTest, RecordsSpansAndInstants) {
  Tracer tracer;
  tracer.AddSpan("gpu", "matmul", 1000, 5000);
  tracer.AddInstant("net", "flag", 7000);
  EXPECT_EQ(tracer.num_events(), 2u);
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\":\"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);  // 4000 ns = 4 us.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TracerTest, EscapesNames) {
  Tracer tracer;
  tracer.AddInstant("t", "quote\"back\\slash", 0);
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TracerTest, EscapesControlCharacters) {
  // RFC 8259: all control characters below 0x20 must be escaped, not emitted
  // raw — a raw newline or tab in a span name breaks chrome://tracing.
  Tracer tracer;
  tracer.AddInstant("t", std::string("a\nb\tc\rd\x01") + "e\x1f" + "f", 0);
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("a\\nb\\tc\\rd\\u0001e\\u001ff"), std::string::npos);
  // No raw control bytes survive anywhere in the output.
  for (char c : json) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n') << static_cast<int>(c);
  }
}

TEST(TracerTest, HelpersNoOpWithoutInstall) {
  Tracer::Install(nullptr);
  TraceSpan("t", "x", 0, 1);  // Must not crash.
  TraceInstant("t", "y", 0);
}

TEST(TracerTest, WriteJsonRoundTrips) {
  Tracer tracer;
  tracer.AddSpan("a", "b", 0, 10);
  const std::string path = "/tmp/rdmadl_trace_test.json";
  ASSERT_TRUE(tracer.WriteJson(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
}

TEST(TracerIntegrationTest, DistributedStepEmitsComputeAndSendSpans) {
  Tracer tracer;
  Tracer::Install(&tracer);

  runtime::ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.rdma_arena_bytes = 8ull << 20;
  runtime::Cluster cluster(options);
  CHECK_OK(cluster.AddProcess("ps:0", 0).status());
  CHECK_OK(cluster.AddProcess("worker:0", 1).status());
  ops::RegisterStandardOps();
  graph::Graph graph;
  graph::Node* w = *graph.AddNode("w", "Variable", std::vector<graph::Node*>{});
  w->SetAttr("shape", tensor::TensorShape{1024});
  w->SetAttr("cost_ns", 50'000.0);
  w->set_device("ps:0");
  graph::Node* consume = *graph.AddNode("consume", "ReduceSum", {w});
  consume->SetAttr("cost_ns", 50'000.0);
  consume->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(&cluster, comm::ZeroCopyOptions{});
  runtime::DistributedSession session(&cluster, &mech, &graph, runtime::SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  Tracer::Install(nullptr);

  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("ps:0 compute"), std::string::npos);
  EXPECT_NE(json.find("worker:0 compute"), std::string::npos);
  EXPECT_NE(json.find("ps:0 send"), std::string::npos);
  EXPECT_GT(tracer.num_events(), 2u);
}

TEST(RoceTest, RocePresetRunsEndToEndAndIsSlightlySlower) {
  auto time_with = [](const net::CostModel& cost) {
    runtime::ClusterOptions options;
    options.num_machines = 2;
    options.mode = ops::ComputeMode::kReal;
    options.cost = cost;
    options.rdma_arena_bytes = 32ull << 20;
    runtime::Cluster cluster(options);
    CHECK_OK(cluster.AddProcess("ps:0", 0).status());
    CHECK_OK(cluster.AddProcess("worker:0", 1).status());
    ops::RegisterStandardOps();
    graph::Graph graph;
    graph::Node* w = *graph.AddNode("w", "Variable", std::vector<graph::Node*>{});
    w->SetAttr("shape", tensor::TensorShape{1 << 20});
    w->set_device("ps:0");
    graph::Node* consume = *graph.AddNode("consume", "ReduceMax", {w});
    consume->set_device("worker:0");
    comm::ZeroCopyRdmaMechanism mech(&cluster, comm::ZeroCopyOptions{});
    runtime::DistributedSession session(&cluster, &mech, &graph,
                                        runtime::SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  const int64_t ib = time_with(net::CostModel{});
  const int64_t roce = time_with(net::RoceCostModel());
  EXPECT_GT(roce, ib);
  EXPECT_LT(roce, ib * 2);  // Same order of magnitude: it works, just slower.
}

}  // namespace
}  // namespace sim
}  // namespace rdmadl
