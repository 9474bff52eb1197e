#include "src/collective/collective.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/check/mutation.h"
#include "src/check/testing.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"

namespace rdmadl {
namespace collective {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

// A self-contained simulated cluster sized for one test (flat fabric unless a
// topology is given).
struct World {
  explicit World(int num_hosts, const net::TopologyConfig& topo = {},
                 const net::CostModel& cost_model = {})
      : cost(cost_model), fabric(&simulator, cost, num_hosts, topo), rdma(&fabric),
        directory(&rdma) {}

  std::unique_ptr<CollectiveGroup> MakeGroup(int n, uint64_t max_elements,
                                             CollectiveOptions options = {}) {
    std::vector<int> hosts;
    for (int i = 0; i < n; ++i) hosts.push_back(i);
    auto group = CollectiveGroup::Create(&directory, hosts, max_elements, options);
    CHECK(group.ok()) << group.status();
    return std::move(group).value();
  }

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

// Integer-valued per-rank inputs so float sums are exact: rank r element i
// holds (r + 1) * ((i % 7) + 1).
void FillInputs(CollectiveGroup* group, uint64_t count) {
  for (int r = 0; r < group->size(); ++r) {
    float* data = group->data(r);
    ASSERT_NE(data, nullptr);
    for (uint64_t i = 0; i < group->max_elements(); ++i) {
      data[i] = i < count ? static_cast<float>((r + 1) * (i % 7 + 1)) : -1.0f;
    }
  }
}

float ExpectedSum(int n, uint64_t i) {
  return static_cast<float>((i % 7 + 1) * n * (n + 1) / 2);
}

Status RunOp(World* world, const std::function<void(DoneCallback)>& op) {
  bool fired = false;
  Status status = Internal("done callback never ran");
  op([&](const Status& s) {
    fired = true;
    status = s;
  });
  Status run = world->simulator.Run();
  CHECK_OK(run);
  CHECK(fired);
  return status;
}

TEST(CollectiveTest, RingAllReduceSumsExactlyAcrossGroupSizes) {
  for (int n : {2, 4, 8}) {
    World world(n);
    const uint64_t count = 1024;
    auto group = world.MakeGroup(n, count);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < n; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(n, i)) << "n=" << n << " rank=" << r << " i=" << i;
      }
    }
    EXPECT_EQ(group->stats().allreduces, 1);
    EXPECT_GT(world.simulator.Now(), 0);
  }
}

TEST(CollectiveTest, RingAllReduceHandlesUnevenAndTinyCounts) {
  // Counts that are not divisible by N, smaller than N (empty ring chunks),
  // and not divisible by the lane count all must still sum exactly.
  for (uint64_t count : {1031ull, 10ull, 3ull, 1ull}) {
    World world(4);
    auto group = world.MakeGroup(4, 2048);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok())
        << "count=" << count;
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "count=" << count << " rank=" << r;
      }
      // Elements beyond |count| are untouched.
      EXPECT_EQ(data[count], -1.0f);
    }
  }
}

TEST(CollectiveTest, RingAllReduceAcrossPipelineDepths) {
  for (int depth : {1, 3, 8}) {
    World world(4);
    CollectiveOptions options;
    options.pipeline_depth = depth;
    const uint64_t count = 997;  // Prime: uneven against every lane count.
    auto group = world.MakeGroup(4, count, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "depth=" << depth << " rank=" << r;
      }
    }
  }
}

TEST(CollectiveTest, ReduceScatterLeavesRankOwningItsChunk) {
  World world(4);
  const uint64_t count = 1030;  // 1030 % 4 != 0.
  auto group = world.MakeGroup(4, count);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->ReduceScatter(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const auto [offset, length] = group->Chunk(count, r);
    const float* data = group->data(r);
    for (uint64_t i = offset; i < offset + length; ++i) {
      ASSERT_EQ(data[i], ExpectedSum(4, i)) << "rank=" << r << " i=" << i;
    }
  }
  EXPECT_EQ(group->stats().reduce_scatters, 1);
}

TEST(CollectiveTest, AllGatherDistributesEveryChunk) {
  World world(4);
  const uint64_t count = 1030;
  auto group = world.MakeGroup(4, count);
  // Rank r starts with only its own chunk valid.
  for (int r = 0; r < 4; ++r) {
    float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) data[i] = -7.0f;
    const auto [offset, length] = group->Chunk(count, r);
    for (uint64_t i = offset; i < offset + length; ++i) {
      data[i] = static_cast<float>(1000 * r + i % 100);
    }
  }
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllGather(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const float* data = group->data(r);
    for (int owner = 0; owner < 4; ++owner) {
      const auto [offset, length] = group->Chunk(count, owner);
      for (uint64_t i = offset; i < offset + length; ++i) {
        ASSERT_EQ(data[i], static_cast<float>(1000 * owner + i % 100))
            << "rank=" << r << " owner=" << owner;
      }
    }
  }
  EXPECT_EQ(group->stats().all_gathers, 1);
}

TEST(CollectiveTest, BroadcastFromNonzeroRoot) {
  World world(5);
  const uint64_t count = 333;
  auto group = world.MakeGroup(5, count);
  for (int r = 0; r < 5; ++r) {
    float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      data[i] = r == 2 ? static_cast<float>(3 * i + 1) : 0.0f;
    }
  }
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->Broadcast(/*root=*/2, count, std::move(done));
              }).ok());
  for (int r = 0; r < 5; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], static_cast<float>(3 * i + 1)) << "rank=" << r << " i=" << i;
    }
  }
  EXPECT_EQ(group->stats().broadcasts, 1);
}

TEST(CollectiveTest, NaiveGatherAlgorithmSumsExactly) {
  World world(4);
  CollectiveOptions options;
  options.algorithm = Algorithm::kNaiveGather;
  const uint64_t count = 513;
  auto group = world.MakeGroup(4, count, options);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedSum(4, i)) << "rank=" << r << " i=" << i;
    }
  }
}

TEST(CollectiveTest, TcpStagingTransportSumsExactly) {
  World world(4);
  CollectiveOptions options;
  options.transport = Transport::kTcpStaging;
  const uint64_t count = 777;
  auto group = world.MakeGroup(4, count, options);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedSum(4, i)) << "rank=" << r << " i=" << i;
    }
  }
}

TEST(CollectiveTest, TcpStagingIsSlowerThanZeroCopyRing) {
  const uint64_t count = 1u << 20;  // 4 MB.
  int64_t elapsed[2] = {0, 0};
  const Transport transports[2] = {Transport::kRdmaZeroCopy, Transport::kTcpStaging};
  for (int i = 0; i < 2; ++i) {
    World world(8);
    CollectiveOptions options;
    options.transport = transports[i];
    options.materialize = false;
    auto group = world.MakeGroup(8, count, options);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    elapsed[i] = world.simulator.Now();
  }
  EXPECT_LT(elapsed[0], elapsed[1]);
}

TEST(CollectiveTest, RingBeatsNaiveGatherOnLargeTensors) {
  const uint64_t count = 1u << 20;
  int64_t elapsed[2] = {0, 0};
  const Algorithm algorithms[2] = {Algorithm::kRing, Algorithm::kNaiveGather};
  for (int i = 0; i < 2; ++i) {
    World world(8);
    CollectiveOptions options;
    options.algorithm = algorithms[i];
    options.materialize = false;
    auto group = world.MakeGroup(8, count, options);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    elapsed[i] = world.simulator.Now();
  }
  EXPECT_LT(elapsed[0], elapsed[1]);
}

TEST(CollectiveTest, VirtualModeRunsWithoutMaterializing) {
  World world(8);
  CollectiveOptions options;
  options.materialize = false;
  const uint64_t count = 1u << 22;  // 16 MB per rank, never allocated.
  auto group = world.MakeGroup(8, count, options);
  EXPECT_EQ(group->data(0), nullptr);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  // Ring traffic: every rank sends 2(N-1) chunks of ~count/N elements.
  const uint64_t expected = 2ull * 7 * count * 4;  // Sum over the 8 ranks.
  EXPECT_NEAR(static_cast<double>(group->stats().bytes_sent),
              static_cast<double>(expected), static_cast<double>(expected) / 100);
  EXPECT_GT(world.simulator.Now(), 0);
}

TEST(CollectiveTest, TrivialAndInvalidOps) {
  World world(4);
  auto group = world.MakeGroup(4, 128);

  // Zero-element op completes immediately.
  EXPECT_TRUE(
      RunOp(&world, [&](DoneCallback done) { group->AllReduce(0, std::move(done)); }).ok());

  // Count above capacity is rejected.
  Status status = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(4096, std::move(done));
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Bad broadcast root is rejected.
  status = RunOp(&world, [&](DoneCallback done) {
    group->Broadcast(/*root=*/9, 16, std::move(done));
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // A second collective while one is in flight is rejected.
  Status second = OkStatus();
  bool first_done = false;
  group->AllReduce(128, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    first_done = true;
  });
  group->AllReduce(128, [&](const Status& s) { second = s; });
  CHECK_OK(world.simulator.Run());
  EXPECT_TRUE(first_done);
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
}

TEST(CollectiveTest, SingleRankGroupIsImmediate) {
  World world(1);
  auto group = world.MakeGroup(1, 64);
  float* data = group->data(0);
  for (int i = 0; i < 64; ++i) data[i] = static_cast<float>(i);
  EXPECT_TRUE(
      RunOp(&world, [&](DoneCallback done) { group->AllReduce(64, std::move(done)); }).ok());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(data[i], static_cast<float>(i));
}

TEST(CollectiveTest, CreateValidatesArguments) {
  World world(4);
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {}, 16).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 1}, 0).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 9}, 16).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 1, 1}, 16).ok());
}

// Out-of-range sizes are typed errors naming the field, never silently
// clamped into a different configuration.
TEST(CollectiveTest, CreateRejectsOutOfRangeSizes) {
  World world(2);
  const struct {
    const char* field;
    int pipeline_depth;
    int num_cqs;
  } kRows[] = {{"pipeline_depth", 0, 2},
               {"pipeline_depth", 65, 2},
               {"num_cqs", 4, 0},
               {"num_cqs", 4, 17}};
  for (const auto& row : kRows) {
    CollectiveOptions options;
    options.pipeline_depth = row.pipeline_depth;
    options.num_cqs = row.num_cqs;
    auto group = CollectiveGroup::Create(&world.directory, {0, 1}, 16, options);
    ASSERT_FALSE(group.ok()) << row.field;
    EXPECT_EQ(group.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(group.status().message().find(row.field), std::string::npos) << group.status();
  }
}

TEST(CollectiveTest, BackToBackCollectivesReuseTheGroup) {
  World world(4);
  const uint64_t count = 256;
  auto group = world.MakeGroup(4, count);
  for (int round = 0; round < 3; ++round) {
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "round=" << round;
      }
    }
  }
  EXPECT_EQ(group->stats().allreduces, 3);
  // Address distribution ran exactly once, at the first collective, and only
  // over the ring-successor pairs the schedules write on (one per rank) —
  // not all n*(n-1) pairs.
  EXPECT_EQ(group->stats().setup_rpcs, 4);
}

// Every schedule declares the flags it polls before it posts, so a plain
// RdmaCheck (no polled-flag tracking) reports a poller that trusts a flag
// byte no write has covered yet.
TEST(CollectiveCheckTest, PrematureFlagTrustIsReportedOnEverySchedule) {
  const struct {
    const char* name;
    Algorithm algorithm;
    Transport transport;
    bool broadcast;
  } kRows[] = {{"ring zero-copy", Algorithm::kRing, Transport::kRdmaZeroCopy, false},
               {"ring tcp", Algorithm::kRing, Transport::kTcpStaging, false},
               {"naive gather", Algorithm::kNaiveGather, Transport::kRdmaZeroCopy, false},
               {"broadcast", Algorithm::kRing, Transport::kRdmaZeroCopy, true}};
  for (const auto& row : kRows) {
    check::RdmaCheck checker;  // Installed before the world, so it sees every MR.
    World world(4);
    CollectiveOptions options;
    options.algorithm = row.algorithm;
    options.transport = row.transport;
    const uint64_t count = 1031;
    auto group = world.MakeGroup(4, count, options);
    FillInputs(group.get(), count);
    {
      // The op's status is beside the point: trusted too early, pollers fold
      // and forward whatever the slots hold.
      check::ScopedMutation mutation(check::kPrematureFlagTrust);
      (void)RunOp(&world, [&](DoneCallback done) {
        if (row.broadcast) {
          group->Broadcast(/*root=*/0, count, std::move(done));
        } else {
          group->AllReduce(count, std::move(done));
        }
      });
    }
    EXPECT_GT(checker.count(check::DiagKind::kPrematureFlagRead), 0)
        << row.name << ":\n"
        << checker.Report();
  }
}

// ---------------------------------------------------------------------------
// Virtual-time decision table: every schedule x transport shape pinned to the
// nanosecond, with the chunk-post counters and the materialized result. A
// refactor that reorders same-time events, moves a slot or a flag, or changes
// what a schedule posts shows up here as a moved row.

enum class OpKind { kAllReduce, kReduceScatter, kAllGather, kBroadcast };

struct TimingCase {
  std::string name;
  OpKind op = OpKind::kAllReduce;
  Algorithm algorithm = Algorithm::kRing;
  Transport transport = Transport::kRdmaZeroCopy;
  int hosts = 4;
  int hosts_per_rack = 0;  // 0 = flat fabric.
  bool switch_reduce = false;
  int pipeline_depth = 4;
  // Finite per-QP engine rate and a 4 KiB stripe threshold, so chunks stripe.
  bool striped = false;
  uint64_t count = 1031;
  // Pinned outcome.
  int64_t done_ns = 0;
  int64_t ring_steps = 0;
  uint64_t bytes_sent = 0;
};

constexpr int kBroadcastRoot = 1;

// Inputs whose expected outputs the op defines: FillInputs for the reducing
// ops, chunk r only on rank r for AllGather, the root's vector for Broadcast.
void FillTimingInputs(CollectiveGroup* group, const TimingCase& c) {
  if (c.op == OpKind::kAllReduce || c.op == OpKind::kReduceScatter) {
    FillInputs(group, c.count);
    return;
  }
  for (int r = 0; r < group->size(); ++r) {
    float* data = group->data(r);
    for (uint64_t i = 0; i < c.count; ++i) {
      data[i] = c.op == OpKind::kBroadcast && r == kBroadcastRoot
                    ? static_cast<float>(3 * i + 1)
                    : -7.0f;
    }
    if (c.op == OpKind::kAllGather) {
      const auto [offset, length] = group->Chunk(c.count, r);
      for (uint64_t i = offset; i < offset + length; ++i) {
        data[i] = static_cast<float>(1000 * r + i % 100);
      }
    }
  }
}

// The value element |i| of |rank| must hold after the op, or NaN where the
// op leaves it unspecified (a reduce-scatter's chunks owned by other ranks).
float ExpectedValue(const CollectiveGroup& group, const TimingCase& c, int rank, uint64_t i) {
  const int n = group.size();
  switch (c.op) {
    case OpKind::kAllReduce:
      return ExpectedSum(n, i);
    case OpKind::kReduceScatter: {
      const auto [offset, length] = group.Chunk(c.count, rank);
      return i >= offset && i < offset + length ? ExpectedSum(n, i) : NAN;
    }
    case OpKind::kAllGather:
      for (int owner = 0; owner < n; ++owner) {
        const auto [offset, length] = group.Chunk(c.count, owner);
        if (i >= offset && i < offset + length) {
          return static_cast<float>(1000 * owner + i % 100);
        }
      }
      return NAN;
    case OpKind::kBroadcast:
      return static_cast<float>(3 * i + 1);
  }
  return NAN;
}

class CollectiveTimingTest : public ::testing::TestWithParam<TimingCase> {};

TEST_P(CollectiveTimingTest, PinsCompletionTimeStatsAndSum) {
  const TimingCase& c = GetParam();
  net::TopologyConfig topo;
  topo.hosts_per_rack = c.hosts_per_rack;
  topo.oversubscription = c.hosts_per_rack > 0 ? 4.0 : 1.0;
  topo.switch_reduce = c.switch_reduce;
  topo.switch_reduce_window_bytes = 1024;  // Multi-round lanes with a ragged tail.
  net::CostModel cost;
  if (c.striped) cost.rdma_qp_engine_bytes_per_sec = 12e9;
  World world(c.hosts, topo, cost);

  CollectiveOptions options;
  options.algorithm = c.algorithm;
  options.transport = c.transport;
  options.pipeline_depth = c.pipeline_depth;
  if (c.striped) options.stripe_threshold_bytes = 4 << 10;
  auto group = world.MakeGroup(c.hosts, c.count, options);
  ASSERT_EQ(group->algorithm(), c.algorithm);
  FillTimingInputs(group.get(), c);

  const CollectiveStats before = group->stats();
  int64_t done_ns = -1;
  auto on_done = [&](DoneCallback done) {
    return [&done_ns, &world, done = std::move(done)](const Status& s) {
      done_ns = world.simulator.Now();
      done(s);
    };
  };
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                switch (c.op) {
                  case OpKind::kAllReduce:
                    group->AllReduce(c.count, on_done(std::move(done)));
                    break;
                  case OpKind::kReduceScatter:
                    group->ReduceScatter(c.count, on_done(std::move(done)));
                    break;
                  case OpKind::kAllGather:
                    group->AllGather(c.count, on_done(std::move(done)));
                    break;
                  case OpKind::kBroadcast:
                    group->Broadcast(kBroadcastRoot, c.count, on_done(std::move(done)));
                    break;
                }
              }).ok());
  const CollectiveStats& after = group->stats();
  EXPECT_EQ(done_ns, c.done_ns);
  EXPECT_EQ(after.ring_steps - before.ring_steps, c.ring_steps);
  EXPECT_EQ(after.bytes_sent - before.bytes_sent, c.bytes_sent);

  for (int r = 0; r < group->size(); ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < c.count; ++i) {
      const float want = ExpectedValue(*group, c, r, i);
      if (std::isnan(want)) continue;
      ASSERT_EQ(data[i], want) << c.name << " rank=" << r << " i=" << i;
    }
  }
}

std::vector<TimingCase> AllTimingCases() {
  std::vector<TimingCase> cases;
  auto add = [&cases](TimingCase c, int64_t done_ns, int64_t ring_steps, uint64_t bytes_sent) {
    c.done_ns = done_ns;
    c.ring_steps = ring_steps;
    c.bytes_sent = bytes_sent;
    cases.push_back(std::move(c));
  };
  const struct {
    const char* name;
    OpKind op;
  } kRingOps[] = {{"AllReduce", OpKind::kAllReduce},
                  {"ReduceScatter", OpKind::kReduceScatter},
                  {"AllGather", OpKind::kAllGather},
                  {"Broadcast", OpKind::kBroadcast}};
  const struct {
    const char* name;
    Transport transport;
  } kTransports[] = {{"ZeroCopy", Transport::kRdmaZeroCopy}, {"Tcp", Transport::kTcpStaging}};
  // Expected {done_ns, ring_steps, bytes_sent}, in kRingOps x kTransports order.
  const int64_t kRing[][3] = {
      {38026, 96, 24744}, {870586, 96, 24744},  // AllReduce.
      {20261, 12, 12372}, {438581, 12, 12372},  // ReduceScatter.
      {20108, 12, 12372}, {438428, 12, 12372},  // AllGather.
      {44388, 24, 12372}, {440348, 24, 12372},  // Broadcast.
  };
  int row = 0;
  for (const auto& op : kRingOps) {
    for (const auto& transport : kTransports) {
      TimingCase c;
      c.name = std::string("Ring") + op.name + transport.name;
      c.op = op.op;
      c.transport = transport.transport;
      add(c, kRing[row][0], kRing[row][1], static_cast<uint64_t>(kRing[row][2]));
      ++row;
    }
  }
  for (const auto& transport : kTransports) {
    TimingCase c;
    c.name = std::string("NaiveGather") + transport.name;
    c.algorithm = Algorithm::kNaiveGather;
    c.transport = transport.transport;
    add(c, c.transport == Transport::kTcpStaging ? 327228 : 21708, 6, 24744);
  }
  TimingCase depth1;
  depth1.name = "RingAllReduceDepth1";
  depth1.pipeline_depth = 1;
  add(depth1, 38141, 24, 24744);
  TimingCase striped;
  striped.name = "RingAllReduceStriped";
  striped.striped = true;
  striped.count = 16384;  // 4 KiB ring chunks per lane.
  add(striped, 83160, 96, 393216);

  // Hierarchical: an uneven two-rack fill (4 + 2) and an uneven three-rack
  // fill (4 + 4 + 2), whose leader ring runs more than one step per phase.
  TimingCase hier;
  hier.algorithm = Algorithm::kHierarchical;
  hier.hosts = 6;
  hier.hosts_per_rack = 4;
  hier.name = "HierarchicalUnevenTwoRacks";
  add(hier, 54868, 48, 41240);
  hier.name = "HierarchicalUnevenTwoRacksDepth1";
  hier.pipeline_depth = 1;
  add(hier, 70948, 12, 41240);
  hier.pipeline_depth = 4;
  hier.hosts = 10;
  hier.name = "HierarchicalUnevenThreeRacks";
  add(hier, 70948, 104, 74232);
  hier.name = "HierarchicalUnevenThreeRacksTcp";
  hier.transport = Transport::kTcpStaging;
  add(hier, 1164388, 104, 74232);
  hier.name = "HierarchicalUnevenThreeRacksStriped";
  hier.transport = Transport::kRdmaZeroCopy;
  hier.striped = true;
  hier.count = 16384;
  add(hier, 119188, 104, 1179648);

  TimingCase innet;
  innet.name = "InNetworkSwitchReduce";
  innet.algorithm = Algorithm::kInNetwork;
  innet.hosts = 8;
  innet.hosts_per_rack = 4;
  innet.switch_reduce = true;
  // Every member uploads each of its lanes' 2 windows: 8 x 4 x 2 chunk writes.
  add(innet, 22788, 64, 32992);
  return cases;
}

void PrintTo(const TimingCase& c, std::ostream* os) { *os << c.name; }

INSTANTIATE_TEST_SUITE_P(DecisionTable, CollectiveTimingTest,
                         ::testing::ValuesIn(AllTimingCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace collective
}  // namespace rdmadl
