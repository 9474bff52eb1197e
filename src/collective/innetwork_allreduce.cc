// In-network (switch-offloaded) all-reduce (ISSUE 7).
//
// NetReduce-style: every member streams its lane slice up to its ToR in
// aggregation windows sized to the switch engine's SRAM
// (TopologyConfig::switch_reduce_window_bytes); the ToR engine folds the
// rack's streams, the spine engine folds the R rack partials, and the final
// window fans back out down every downlink. The fabric-level stage
// (net::SwitchReduceStage) models all the wire and engine timing; this file
// owns the schedule, the arithmetic (the "switch SRAM" shadow lives in
// Op::innet_buf), and the flag/waiter plumbing.
//
// Per lane, windows are issued strictly one after another (round w+1 is
// issued from round w's completion): the switch engine holds exactly one
// window of state per lane, so a second in-flight window would overwrite it.
// Lanes run concurrently — the engine free-time serialization inside the
// stage is what actually paces them.
//
// The switch-reduce domain is lossless and credit-based, so there is no
// payload-then-flag wire contract to keep: delivery *is* the flag. Each rank
// polls one flag per (lane, window), set locally by the stage's delivery
// callback (check::OnFlagSetLocally keeps the protocol checker's shadow in
// step). Fail-stop crashes still apply: the stage fails the whole window
// when a contributor is dead, and that status (naming the failed host)
// fails the op.
#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/check/rdma_check.h"
#include "src/collective/internal.h"
#include "src/net/fabric.h"
#include "src/net/switch_reduce.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace

void CollectiveGroup::StartInNetwork(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  const int lanes = options_.pipeline_depth;
  Partition(op->count, lanes, &op->lane_offset, &op->lane_count);

  int active_lanes = 0;
  for (int l = 0; l < lanes; ++l) {
    if (op->lane_count[l] > 0) active_lanes++;
  }
  // One unit per (rank, lane): the per-rank poller over that lane's windows.
  op->pending_units = active_lanes * n;
  if (op->pending_units == 0) {
    Finish(op);
    return;
  }

  const int R = static_cast<int>(racks_.size());
  const uint64_t W = innet_window_elements_;
  if (options_.materialize) {
    // [lane][rack partial 0..R-1, global R][window] floats.
    op->innet_buf.assign(static_cast<size_t>(lanes) * (R + 1) * W, 0.0f);
  }

  for (int l = 0; l < lanes; ++l) {
    const uint64_t lane_cnt = op->lane_count[l];
    if (lane_cnt == 0) continue;
    const int rounds = static_cast<int>(CeilDiv(lane_cnt, W));
    const int fb = l * innet_rounds_cap_;
    for (int r = 0; r < n; ++r) {
      for (int w = 0; w < rounds; ++w) DeclareFlag(op, r, fb + w, "innet");
      // The poller does no work per window; delivery already wrote the final
      // values in place. It exists so completion is observed rank-side, in
      // flag order, exactly like every other schedule.
      StartWaiter(op, r, fb, rounds,
                  [](int, std::function<void()> resume) { resume(); });
    }
    IssueInNetworkRound(op, l, 0);
  }
}

void CollectiveGroup::IssueInNetworkRound(const std::shared_ptr<Op>& op, int lane, int round) {
  if (op->finished) return;
  if (!CheckDeadline(op, "in-network round issue")) return;
  net::SwitchReduceStage* stage = directory_->rdma_fabric()->fabric()->switch_reduce();
  CHECK(stage != nullptr);

  const int n = size();
  const int R = static_cast<int>(racks_.size());
  const uint64_t W = innet_window_elements_;
  const uint64_t lane_off = op->lane_offset[lane];
  const uint64_t lane_cnt = op->lane_count[lane];
  const uint64_t start = static_cast<uint64_t>(round) * W;
  const uint64_t cnt = std::min(W, lane_cnt - start);
  const uint64_t bytes = cnt * sizeof(float);
  const int rounds = static_cast<int>(CeilDiv(lane_cnt, W));
  const int flag_index = lane * innet_rounds_cap_ + round;
  const bool mat = options_.materialize;

  auto hosts_vec = std::make_shared<std::vector<int>>(hosts());
  stats_.bytes_sent += bytes * n;  // Every member streams its window uplink.

  float* buf = mat ? op->innet_buf.data() + static_cast<size_t>(lane) * (R + 1) * W : nullptr;
  auto phase_start = std::make_shared<int64_t>(simulator()->Now());

  stage->AllReduceChunk(
      *hosts_vec, bytes,
      /*rack_partial=*/
      [this, op, buf, lane_off, start, cnt, W](int rack_ordinal) {
        // ToR engine finished folding this rack's streams: materialize the
        // partial into the switch-SRAM shadow. The stage's rack ordinals are
        // rack-id ascending over the member list, which is exactly racks_.
        if (op->finished || buf == nullptr) return;
        float* partial = buf + static_cast<size_t>(rack_ordinal) * W;
        std::fill(partial, partial + cnt, 0.0f);
        for (int member : racks_[rack_ordinal]) {
          const float* src = ranks_[member]->data_ptr() + lane_off + start;
          for (uint64_t i = 0; i < cnt; ++i) partial[i] += src[i];
        }
      },
      /*aggregated=*/
      [op, buf, cnt, W, R] {
        // Spine engine folded the R partials into the global window.
        if (op->finished || buf == nullptr) return;
        float* global = buf + static_cast<size_t>(R) * W;
        std::fill(global, global + cnt, 0.0f);
        for (int rk = 0; rk < R; ++rk) {
          const float* partial = buf + static_cast<size_t>(rk) * W;
          for (uint64_t i = 0; i < cnt; ++i) global[i] += partial[i];
        }
      },
      /*deliver=*/
      [this, op, buf, lane_off, start, cnt, W, R, flag_index](int host) {
        if (op->finished) return;
        const int r = host_to_rank_[host];
        Rank* rank = ranks_[r].get();
        if (buf != nullptr && rank->data_region.valid()) {
          std::memcpy(rank->data_ptr() + lane_off + start,
                      buf + static_cast<size_t>(R) * W, cnt * sizeof(float));
        }
        rank->flags()[flag_index] = 1;
        check::OnFlagSetLocally(rank->endpoint.host_id, rank->flags() + flag_index,
                                simulator()->Now());
      },
      /*complete=*/
      [this, op, lane, round, rounds, lane_cnt, cnt, phase_start](Status status) {
        if (op->finished) return;
        if (!status.ok()) {
          Fail(op, status);
          return;
        }
        sim::TraceSpan(StrCat(options_.trace_prefix, " switch"),
                       StrCat("innet l", lane, " w", round, " ", cnt, "e"), *phase_start,
                       simulator()->Now());
        if (round + 1 < rounds) IssueInNetworkRound(op, lane, round + 1);
      });
}

}  // namespace collective
}  // namespace rdmadl
