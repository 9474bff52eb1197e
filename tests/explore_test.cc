// Schedule-space model checker (ISSUE 9): tie-permutation replay semantics,
// DFS enumeration, partial-order reduction, the seeded protocol mutations the
// explorer must catch (self-validation), the deadlock/livelock stall detector
// with its typed "what was the run waiting on" diagnostic, delta-debugging
// trace minimization, and replayable JSON artifacts.
#include "src/sim/explore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/check/explore.h"
#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/check/testing.h"
#include "src/collective/collective.h"
#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"
#include "src/net/fabric.h"
#include "src/rdma/verbs.h"
#include "src/sim/fault.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace sim {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

// A cluster built on an externally-owned simulator: exploration workloads
// rebuild their whole world on the fresh simulator of every replay, so a
// ScheduleTrace is the only state that survives between runs.
struct ExploreWorld {
  ExploreWorld(Simulator& simulator, int num_hosts, const net::CostModel& cost_model = {})
      : cost(cost_model), fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}

  std::unique_ptr<device::RdmaDevice> MakeDevice(int host, int num_qps = 4) {
    auto dev =
        device::RdmaDevice::Create(&directory, /*num_cqs=*/2, num_qps, Endpoint{host, 7000});
    CHECK(dev.ok()) << dev.status();
    return std::move(dev).value();
  }

  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

// An aggressive §3.2 receiver: polls a flag byte every 200 ns and acts on it
// the moment it reads nonzero. The scheduled events hold the only shared_ptr
// references (the poller owns no closure), so replays leak nothing.
struct FlagPoller {
  Simulator* simulator = nullptr;
  const uint8_t* flag = nullptr;
  int host = -1;
  bool trusted = false;

  static void Schedule(std::shared_ptr<FlagPoller> self, int64_t delay_ns) {
    Simulator* simulator = self->simulator;
    simulator->ScheduleAfterJittered(delay_ns, [self = std::move(self)] {
      if (self->trusted) return;
      if (*self->flag != 0) {
        check::OnFlagTrusted(self->host, self->flag, self->simulator->Now());
        self->trusted = true;
        return;
      }
      check::OnFlagPolled(self->host, self->flag, self->simulator->Now());
      Schedule(self, 200);
    });
  }
};

// ---- replay semantics -----------------------------------------------------

TEST(ReplayTest, ChoicesPermuteTieGroupsAndTailDefaultsToCanonical) {
  std::string order;
  ExploreWorkload workload = [&order](Simulator& s) {
    order.clear();
    s.ScheduleAt(5, [&order] { order += 'a'; });
    s.ScheduleAt(5, [&order] { order += 'b'; });
    s.ScheduleAt(5, [&order] { order += 'c'; });
    RunReport report;
    report.status = s.Run();
    return report;
  };
  Explorer explorer;

  EXPECT_TRUE(explorer.Replay(workload, ScheduleTrace{}).failure_class.empty());
  EXPECT_EQ(order, "abc");

  // Picking index 2 dispatches 'c'; the remaining pair re-ties and the
  // exhausted trace falls back to canonical order.
  ScheduleTrace pick_last;
  pick_last.choices = {2};
  explorer.Replay(workload, pick_last);
  EXPECT_EQ(order, "cab");

  ScheduleTrace rotate;
  rotate.choices = {1, 1};
  explorer.Replay(workload, rotate);
  EXPECT_EQ(order, "bca");

  // Out-of-range picks clamp to the last group member instead of crashing.
  ScheduleTrace wild;
  wild.choices = {9};
  explorer.Replay(workload, wild);
  EXPECT_EQ(order, "cab");
}

// ---- enumeration + minimization + artifacts -------------------------------

// Clean in canonical (time, seq) order, broken whenever the reader overtakes
// the writer it ties with: the smallest possible order-only bug.
ExploreWorkload OrderBugWorkload() {
  return [](Simulator& s) {
    auto wrote = std::make_shared<bool>(false);
    auto read_ok = std::make_shared<bool>(true);
    s.ScheduleAt(10, [wrote] { *wrote = true; });
    s.ScheduleAt(10, [wrote, read_ok] { *read_ok = *wrote; });
    RunReport report;
    report.status = s.Run();
    if (!*read_ok) report.failure_class = "order-bug";
    return report;
  };
}

TEST(ExplorerTest, FindsOrderOnlyBugMinimizesAndWritesReplayableArtifact) {
  ExploreOptions options;
  options.name = "order-bug";
  options.max_schedules = 16;
  options.artifact_path = ::testing::TempDir() + "rdmadl_order_bug.json";
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(OrderBugWorkload());

  ASSERT_TRUE(result.failure_found) << result.Summary();
  EXPECT_EQ(result.first_failure.failure_class, "order-bug");
  EXPECT_LE(result.stats.schedules_run, 8u) << result.Summary();

  // ddmin: the single non-canonical choice is the whole reproducer.
  ASSERT_EQ(result.minimized_trace.choices.size(), 1u) << result.Summary();
  EXPECT_EQ(result.minimized_trace.choices[0], 1u);
  EXPECT_EQ(result.minimized_trace.jitter_seed, 0u);
  EXPECT_EQ(result.minimized_report.failure_class, "order-bug");

  // The dumped artifact replays to the same diagnostic, twice.
  auto trace_or = ReadTraceArtifact(options.artifact_path);
  ASSERT_TRUE(trace_or.ok()) << trace_or.status();
  EXPECT_EQ(trace_or->choices, result.minimized_trace.choices);
  Explorer replayer;
  EXPECT_EQ(replayer.Replay(OrderBugWorkload(), *trace_or).failure_class, "order-bug");
  EXPECT_EQ(replayer.Replay(OrderBugWorkload(), *trace_or).failure_class, "order-bug");
}

TEST(ArtifactTest, JsonRoundTripPreservesTheTrace) {
  ScheduleTrace trace;
  trace.choices = {0, 3, 1};
  trace.jitter_seed = 42;
  trace.jitter_bound_ns = 200;
  RunReport report;
  report.failure_class = "check:torn-read";
  auto parsed = TraceFromJson(TraceToJson("unit", trace, report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->choices, trace.choices);
  EXPECT_EQ(parsed->jitter_seed, 42u);
  EXPECT_EQ(parsed->jitter_bound_ns, 200);
}

// ---- partial-order reduction ----------------------------------------------

// Two writes over disjoint links into disjoint hosts: every tie between their
// events commutes, so the reduction should discard (at least) half of the
// naive branch set. Run under CheckedWorkload so RdmaCheck feeds footprints.
check::WorkloadBody DisjointWritesBody() {
  return [](Simulator& s) -> Status {
    ExploreWorld world(s, 4);
    auto dev0 = world.MakeDevice(0);
    auto dev1 = world.MakeDevice(1);
    auto dev2 = world.MakeDevice(2);
    auto dev3 = world.MakeDevice(3);
    constexpr uint64_t kBytes = 64 << 10;
    auto src_a = dev0->AllocateMemRegion(kBytes);
    auto dst_a = dev1->AllocateMemRegion(kBytes);
    auto src_b = dev2->AllocateMemRegion(kBytes);
    auto dst_b = dev3->AllocateMemRegion(kBytes);
    CHECK(src_a.ok() && dst_a.ok() && src_b.ok() && dst_b.ok());
    auto chan_a = dev0->GetChannel(dev1->endpoint(), 0);
    auto chan_b = dev2->GetChannel(dev3->endpoint(), 0);
    CHECK(chan_a.ok() && chan_b.ok());

    auto done = std::make_shared<int>(0);
    auto failed = std::make_shared<Status>(OkStatus());
    auto on_done = [done, failed](const Status& status) {
      if (!status.ok() && failed->ok()) *failed = status;
      ++*done;
    };
    (*chan_a)->Memcpy(src_a->data(), src_a->lkey(), dst_a->Remote().addr, dst_a->rkey(),
                      kBytes, device::Direction::kLocalToRemote, on_done);
    (*chan_b)->Memcpy(src_b->data(), src_b->lkey(), dst_b->Remote().addr, dst_b->rkey(),
                      kBytes, device::Direction::kLocalToRemote, on_done);
    Status run = s.RunUntilPredicate([done] { return *done == 2; });
    if (!run.ok()) return run;
    return *failed;
  };
}

TEST(PartialOrderReductionTest, PrunesAtLeastHalfTheBranchesBetweenDisjointTransfers) {
  ExploreOptions options;
  options.name = "por-disjoint";
  options.max_schedules = 24;
  options.jitter_schedules = 0;
  options.minimize = false;
  Explorer with_por(options);
  ExploreResult reduced = with_por.Explore(check::CheckedWorkload(DisjointWritesBody()));
  EXPECT_FALSE(reduced.failure_found) << reduced.Summary();
  ASSERT_GT(reduced.stats.naive_branches, 0u) << reduced.Summary();
  EXPECT_GE(reduced.stats.branches_pruned * 2, reduced.stats.naive_branches)
      << reduced.Summary();

  // The same budget without the reduction enqueues strictly more work.
  options.use_por = false;
  Explorer naive(options);
  ExploreResult full = naive.Explore(check::CheckedWorkload(DisjointWritesBody()));
  EXPECT_FALSE(full.failure_found) << full.Summary();
  EXPECT_EQ(full.stats.branches_pruned, 0u);
  EXPECT_GT(full.stats.branches_enqueued, reduced.stats.branches_enqueued);
}

// ---- mutation self-validation ---------------------------------------------

// Striped 1 MB write whose first wire segment is force-dropped: the hit
// stripe redelivers a transport-retry backoff (20 us) later, long after its
// siblings. Correct code posts the flag only after the retry's completion;
// the kFlagBeforeLastStripe mutation posts it at the FIRST stripe completion,
// so the receiver trusts a payload with a whole stripe still undelivered.
check::WorkloadBody StripedFlagBody() {
  return [](Simulator& s) -> Status {
    net::CostModel cost;
    // Fast wire so all healthy stripes (and the flag) land well inside the
    // dropped stripe's retry backoff.
    cost.rdma_bandwidth_bytes_per_sec = 100e9;
    // Striping engages only with a finite per-QP engine rate (rate 0 means
    // an infinite engine, and the router falls back to the direct path).
    cost.rdma_qp_engine_bytes_per_sec = 50e9;
    FaultInjector injector(/*seed=*/1);
    LinkFaultSpec spec;
    spec.drop_first_n = 1;
    injector.SetLinkFault(0, 1, spec);

    ExploreWorld world(s, 2, cost);
    world.fabric.SetFaultInjector(&injector);
    auto src_dev = world.MakeDevice(0);
    auto dst_dev = world.MakeDevice(1);
    constexpr uint64_t kBytes = 1 << 20;
    auto src = src_dev->AllocateMemRegion(kBytes);
    auto dst = dst_dev->AllocateMemRegion(kBytes);
    auto src_flag = src_dev->AllocateMemRegion(1);
    auto dst_flag = dst_dev->AllocateMemRegion(1);
    CHECK(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
    std::memset(src->data(), 0x5a, kBytes);
    src_flag->data()[0] = 1;
    dst_flag->data()[0] = 0;

    comm::TransferEngineOptions engine_options;
    engine_options.stripe_threshold_bytes = 256 << 10;  // 4 stripes across 4 lanes.
    comm::TransferEngine engine(src_dev.get(), engine_options);

    // Declare the §3.2 contract: this flag guards the whole payload range.
    check::OnFlagLocation(1, dst_flag->data(), "explore.striped");
    check::OnFlagGuards(1, dst_flag->data(), dst->data(), kBytes);

    auto poller = std::make_shared<FlagPoller>();
    poller->simulator = &s;
    poller->flag = dst_flag->data();
    poller->host = 1;
    FlagPoller::Schedule(poller, 200);

    auto done = std::make_shared<bool>(false);
    auto result = std::make_shared<Status>(OkStatus());
    comm::TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr,
                                            dst->rkey(), kBytes, true};
    comm::TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                         dst_flag->Remote().addr, dst_flag->rkey(), 1, true};
    // The flag rides lane 1: lane 0 owns the dropped stripe, and a flag
    // queued on that QP would serialize behind the retry and hide the bug.
    engine.Write(dst_dev->endpoint(), {&payload, 1}, flag, /*lane_hint=*/1,
                 [done, result](const Status& status) {
                   *done = true;
                   if (!status.ok()) *result = status;
                 });
    Status run = s.RunUntilPredicate([done, poller] { return *done && poller->trusted; });
    if (!run.ok()) return run;
    return *result;
  };
}

TEST(MutationTest, ExplorerCatchesFlagPostedBeforeLastStripe) {
  {
    check::ScopedMutation mutation(check::kFlagBeforeLastStripe);
    ExploreOptions options;
    options.name = "flag-before-last-stripe";
    options.max_schedules = 24;
    Explorer explorer(options);
    ExploreResult result = explorer.Explore(check::CheckedWorkload(StripedFlagBody()));
    ASSERT_TRUE(result.failure_found) << result.Summary();
    EXPECT_EQ(result.first_failure.failure_class, "check:torn-read")
        << result.first_failure.details;
    // The minimized trace replays to the same diagnostic.
    EXPECT_EQ(result.minimized_report.failure_class, "check:torn-read") << result.Summary();
  }
  // Unmutated, the identical workload (drop, retry and all) explores clean.
  ExploreOptions options;
  options.name = "flag-after-last-stripe";
  options.max_schedules = 8;
  Explorer explorer(options);
  ExploreResult clean = explorer.Explore(check::CheckedWorkload(StripedFlagBody()));
  EXPECT_FALSE(clean.failure_found) << clean.Summary();
}

// Multi-piece Write posting with the flag byte carved from the same
// registration domain as the payload. Correct code posts the flag as its own
// write after every SG-WR completes; the kFlagRidesInSgList mutation smuggles
// it into the SG list as the FIRST extent, where sibling extents land after
// the flag is readable — exactly the per-extent §3.2 violation RdmaCheck's
// flag-in-sg-list detector exists to catch at posting time.
check::WorkloadBody GatherFlagBody() {
  return [](Simulator& s) -> Status {
    ExploreWorld world(s, 2);
    auto src_dev = world.MakeDevice(0);
    auto dst_dev = world.MakeDevice(1);
    constexpr int kExtents = 4;
    constexpr uint64_t kExtentBytes = 64 << 10;
    constexpr uint64_t kBytes = kExtents * kExtentBytes;
    // Payload plus one tail byte for the flag, both under one MR pair — the
    // mutation only engages when the flag shares the list's lkey/rkey.
    auto src = src_dev->AllocateMemRegion(kBytes + 1);
    auto dst = dst_dev->AllocateMemRegion(kBytes + 1);
    CHECK(src.ok() && dst.ok());
    std::memset(src->data(), 0x6b, kBytes);
    src->data()[kBytes] = 1;
    dst->data()[kBytes] = 0;

    comm::TransferEngine engine(src_dev.get(), comm::TransferEngineOptions{});

    check::OnFlagLocation(1, dst->data() + kBytes, "explore.gather");
    check::OnFlagGuards(1, dst->data() + kBytes, dst->data(), kBytes);

    auto poller = std::make_shared<FlagPoller>();
    poller->simulator = &s;
    poller->flag = dst->data() + kBytes;
    poller->host = 1;
    FlagPoller::Schedule(poller, 200);

    std::vector<comm::TransferEngine::WriteDesc> extents;
    for (int i = 0; i < kExtents; ++i) {
      extents.push_back({src->data() + i * kExtentBytes, src->lkey(),
                         dst->Remote().addr + i * kExtentBytes, dst->rkey(), kExtentBytes,
                         true});
    }
    comm::TransferEngine::WriteDesc flag{src->data() + kBytes, src->lkey(),
                                         dst->Remote().addr + kBytes, dst->rkey(), 1, true};
    auto done = std::make_shared<bool>(false);
    auto result = std::make_shared<Status>(OkStatus());
    engine.Write(dst_dev->endpoint(), extents, flag, /*lane_hint=*/0,
                 [done, result](const Status& status) {
                   *done = true;
                   if (!status.ok()) *result = status;
                 });
    Status run = s.RunUntilPredicate([done, poller] { return *done && poller->trusted; });
    if (!run.ok()) return run;
    return *result;
  };
}

TEST(MutationTest, ExplorerCatchesFlagRidingInSgList) {
  {
    check::ScopedMutation mutation(check::kFlagRidesInSgList);
    ExploreOptions options;
    options.name = "flag-rides-in-sg-list";
    options.max_schedules = 8;
    Explorer explorer(options);
    ExploreResult result = explorer.Explore(check::CheckedWorkload(GatherFlagBody()));
    ASSERT_TRUE(result.failure_found) << result.Summary();
    // The violation is structural, so it is caught at posting time on every
    // schedule — before a single byte moves.
    EXPECT_EQ(result.first_failure.failure_class, "check:flag-in-sg-list")
        << result.first_failure.details;
    EXPECT_EQ(result.minimized_report.failure_class, "check:flag-in-sg-list")
        << result.Summary();
  }
  // Unmutated, the identical gather (flag trailing every extent) explores
  // clean.
  ExploreOptions options;
  options.name = "flag-after-sg-list";
  options.max_schedules = 8;
  Explorer explorer(options);
  ExploreResult clean = explorer.Explore(check::CheckedWorkload(GatherFlagBody()));
  EXPECT_FALSE(clean.failure_found) << clean.Summary();
}

// The work-request shapes a one-sided write can take on the wire.
enum class WrShape { kDirect, kScatter, kBatch };

const char* WrShapeName(WrShape shape) {
  switch (shape) {
    case WrShape::kDirect:
      return "direct";
    case WrShape::kScatter:
      return "scatter";
    case WrShape::kBatch:
      return "batch";
  }
  return "?";
}

// About 256 KB (64 wire segments) written as |shape| under a seeded
// per-segment drop probability: one direct write, one SG-WR of three
// extents, or a doorbell chain of three WRs. The pieces are not MTU
// multiples, so a drop always lands mid-piece. The kRetryKeepsCursor mutation
// makes the transport resume a retry from its delivered-byte cursor instead
// of offset 0, which the checker sees as a non-ascending segment the moment
// the retry redelivers.
check::WorkloadBody DroppyWriteBody(uint64_t seed, WrShape shape) {
  return [seed, shape](Simulator& s) -> Status {
    FaultInjector injector(seed);
    LinkFaultSpec spec;
    spec.drop_probability = 0.05;
    injector.SetLinkFault(0, 1, spec);

    ExploreWorld world(s, 2);
    world.fabric.SetFaultInjector(&injector);
    auto src_dev = world.MakeDevice(0);
    auto dst_dev = world.MakeDevice(1);
    constexpr int kPieces = 3;
    constexpr uint64_t kPieceBytes = 87'000;
    constexpr uint64_t kBytes = kPieces * kPieceBytes;
    auto src = src_dev->AllocateMemRegion(kBytes);
    auto dst = dst_dev->AllocateMemRegion(kBytes);
    CHECK(src.ok() && dst.ok());
    auto chan = src_dev->GetChannel(dst_dev->endpoint(), 0);
    CHECK(chan.ok());

    // Heavy drop runs may exhaust the transport retries; either terminal
    // status is fine — the checker's verdict is what the test is after.
    auto pending = std::make_shared<int>(shape == WrShape::kBatch ? kPieces : 1);
    auto done = [pending](const Status&) { --*pending; };
    switch (shape) {
      case WrShape::kDirect:
        (*chan)->Memcpy(src->data(), src->lkey(), dst->Remote().addr, dst->rkey(), kBytes,
                        device::Direction::kLocalToRemote, done);
        break;
      case WrShape::kScatter: {
        std::vector<rdma::SgExtent> extents;
        for (int i = 0; i < kPieces; ++i) {
          extents.push_back({reinterpret_cast<uint64_t>(src->data()) + i * kPieceBytes,
                             dst->Remote().addr + i * kPieceBytes, kPieceBytes});
        }
        (*chan)->MemcpyScatter(std::move(extents), src->lkey(), dst->rkey(), done);
        break;
      }
      case WrShape::kBatch: {
        std::vector<device::RdmaChannel::BatchWrite> writes;
        for (int i = 0; i < kPieces; ++i) {
          writes.push_back({src->data() + i * kPieceBytes, src->lkey(),
                            dst->Remote().addr + i * kPieceBytes, dst->rkey(), kPieceBytes,
                            true, done});
        }
        (*chan)->MemcpyBatch(std::move(writes));
        break;
      }
    }
    return s.RunUntilPredicate([pending] { return *pending == 0; });
  };
}

TEST(MutationTest, ExplorerCatchesRetryThatResumesFromCursor) {
  for (WrShape shape : {WrShape::kDirect, WrShape::kScatter, WrShape::kBatch}) {
    SCOPED_TRACE(WrShapeName(shape));
    // The bug is schedule-independent once a mid-transfer drop occurs, so
    // sweep fault seeds with a single canonical schedule each.
    ExploreOptions options;
    options.name = StrCat("retry-keeps-cursor-", WrShapeName(shape));
    options.max_schedules = 1;
    options.jitter_schedules = 0;
    options.minimize = false;
    {
      // Unmutated, the droppy write explores clean: every retry rewrites
      // every piece from offset 0.
      Explorer explorer(options);
      ExploreResult clean = explorer.Explore(check::CheckedWorkload(DroppyWriteBody(1, shape)));
      EXPECT_FALSE(clean.failure_found) << clean.Summary();
    }
    check::ScopedMutation mutation(check::kRetryKeepsCursor);
    bool caught = false;
    for (uint64_t seed = 1; seed <= 32 && !caught; ++seed) {
      Explorer explorer(options);
      ExploreResult result =
          explorer.Explore(check::CheckedWorkload(DroppyWriteBody(seed, shape)));
      if (result.failure_found) {
        EXPECT_EQ(result.first_failure.failure_class, "check:non-ascending-segment")
            << result.first_failure.details;
        caught = true;
      }
    }
    EXPECT_TRUE(caught) << "no seed in [1, 32] produced a mid-transfer drop";
  }
}

// Two-rank ring all-reduce, the standard collective workload for the
// flag-protocol mutations below.
check::WorkloadBody SmallAllReduceBody(uint64_t count) {
  return [count](Simulator& s) -> Status {
    ExploreWorld world(s, 2);
    collective::CollectiveOptions options;
    options.pipeline_depth = 2;
    auto group =
        collective::CollectiveGroup::Create(&world.directory, {0, 1}, count, options);
    if (!group.ok()) return group.status();
    for (int r = 0; r < 2; ++r) {
      float* data = (*group)->data(r);
      for (uint64_t i = 0; i < count; ++i) data[i] = static_cast<float>(r + 1);
    }
    auto done = std::make_shared<bool>(false);
    auto result = std::make_shared<Status>(OkStatus());
    (*group)->AllReduce(count, [done, result](const Status& status) {
      *done = true;
      *result = status;
    });
    Status run = s.RunUntilPredicate([done] { return *done; }, /*max_events=*/400'000);
    if (!run.ok()) return run;
    return *result;
  };
}

TEST(MutationTest, ExplorerCatchesPrematureFlagTrust) {
  check::ScopedMutation mutation(check::kPrematureFlagTrust);
  ExploreOptions options;
  options.name = "premature-flag-trust";
  options.max_schedules = 8;
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(check::CheckedWorkload(SmallAllReduceBody(4096)));
  ASSERT_TRUE(result.failure_found) << result.Summary();
  EXPECT_EQ(result.first_failure.failure_class, "check:premature-flag-read")
      << result.first_failure.details;
  EXPECT_EQ(result.minimized_report.failure_class, "check:premature-flag-read");
}

// ---- stall detection ------------------------------------------------------

TEST(StallDetectorTest, SuppressedFlagWriteLivelocksAndNamesTheStarvedFlag) {
  check::ScopedMutation mutation(check::kSkipFlagWrite);
  ExploreOptions options;
  options.name = "skip-flag-write";
  options.max_schedules = 4;
  options.jitter_schedules = 0;
  options.minimize = false;  // Every schedule stalls; shrinking buys nothing.
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(check::CheckedWorkload(SmallAllReduceBody(1024)));
  ASSERT_TRUE(result.failure_found) << result.Summary();
  EXPECT_EQ(result.first_failure.failure_class, "stall:livelock");
  EXPECT_EQ(result.first_failure.stall.kind, StallKind::kLivelock);
  // The typed diagnostic names what the run starved on.
  EXPECT_NE(result.first_failure.stall.message.find("waiting on flag@0x"), std::string::npos)
      << result.first_failure.stall.message;
  EXPECT_NE(result.first_failure.stall.message.find("host"), std::string::npos)
      << result.first_failure.stall.message;
}

TEST(StallDetectorTest, DrainedQueueWithUntrustedFlagIsDeadlockNamingFlagAndHost) {
  auto flag = std::make_shared<uint8_t>(0);
  check::WorkloadBody body = [flag](Simulator& s) -> Status {
    auto trusted = std::make_shared<bool>(false);
    // One poll, no re-poll, and no writer anywhere: the queue drains with
    // the workload incomplete — a genuine deadlock, not a livelock.
    s.ScheduleAt(100, [&s, flag, trusted] {
      if (*flag != 0) {
        check::OnFlagTrusted(2, flag.get(), s.Now());
        *trusted = true;
        return;
      }
      check::OnFlagPolled(2, flag.get(), s.Now());
    });
    return s.RunUntilPredicate([trusted] { return *trusted; });
  };
  ExploreOptions options;
  options.name = "drained-deadlock";
  options.max_schedules = 2;
  options.jitter_schedules = 0;
  options.minimize = false;
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(check::CheckedWorkload(body));
  ASSERT_TRUE(result.failure_found) << result.Summary();
  EXPECT_EQ(result.first_failure.failure_class, "stall:deadlock");
  EXPECT_EQ(result.first_failure.stall.kind, StallKind::kDeadlock);
  // The diagnostic names the waiting host and the starved flag's address.
  const std::string expected =
      StrCat("host2 waiting on flag@0x", Hex(reinterpret_cast<uint64_t>(flag.get())));
  EXPECT_NE(result.first_failure.stall.message.find(expected), std::string::npos)
      << result.first_failure.stall.message;
}

// ---- clean exploration + determinism --------------------------------------

TEST(ExplorerTest, UnmutatedCollectiveExploresCleanWithDeterministicSummary) {
  ExploreOptions options;
  options.name = "clean-all-reduce";
  options.max_schedules = 10;
  options.jitter_schedules = 2;
  Explorer first(options);
  ExploreResult a = first.Explore(check::CheckedWorkload(SmallAllReduceBody(1024)));
  EXPECT_FALSE(a.failure_found) << a.Summary();
  EXPECT_GT(a.stats.schedules_run, 1u);

  Explorer second(options);
  ExploreResult b = second.Explore(check::CheckedWorkload(SmallAllReduceBody(1024)));
  EXPECT_FALSE(b.failure_found) << b.Summary();
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST(ExploreForTestTest, HonorsEnvBound) {
  check::WorkloadBody body = [](Simulator& s) -> Status {
    s.ScheduleAt(1, [] {});
    s.ScheduleAt(1, [] {});
    return s.Run();
  };
  ExploreResult result = check::ExploreForTest("env-bound", body);
  EXPECT_FALSE(result.failure_found) << result.Summary();
  const int bound = ExploreBoundFromEnv();
  EXPECT_LE(result.stats.schedules_run, static_cast<uint64_t>(bound > 0 ? bound : 1));
  EXPECT_GE(result.stats.schedules_run, 1u);
}

TEST(MutationTest, ScopedMutationInstallsAndRestoresMasks) {
  EXPECT_FALSE(check::MutationEnabled(check::kSkipFlagWrite));
  {
    check::ScopedMutation outer(check::kSkipFlagWrite);
    EXPECT_TRUE(check::MutationEnabled(check::kSkipFlagWrite));
    {
      check::ScopedMutation inner(check::kPrematureFlagTrust);
      EXPECT_TRUE(check::MutationEnabled(check::kSkipFlagWrite));
      EXPECT_TRUE(check::MutationEnabled(check::kPrematureFlagTrust));
    }
    EXPECT_FALSE(check::MutationEnabled(check::kPrematureFlagTrust));
    EXPECT_TRUE(check::MutationEnabled(check::kSkipFlagWrite));
  }
  EXPECT_FALSE(check::MutationEnabled(check::kSkipFlagWrite));
}

}  // namespace
}  // namespace sim
}  // namespace rdmadl
