// Ring reduce-scatter / all-gather / fused all-reduce, and the one ring lane
// routine (StartRingLane) that both the flat ring and the hierarchical
// schedule's leader ring run.
//
// The flat ring is the rank order 0..N-1 (rank r sends only to (r+1) % N). Each
// pipeline lane runs the schedule independently over its own slice of the
// vector; a lane's all-gather begins the moment its reduce-scatter finishes,
// so later lanes' reduce traffic overlaps earlier lanes' gather traffic.
//
// With shift parameter d (0 for the fused all-reduce, N-1 for standalone
// ops, so that standalone reduce-scatter leaves rank r owning chunk r), and r
// the rank's position in the ring:
//
//   reduce-scatter step s:  rank r sends lane-chunk (r - s + d) mod N into
//     its successor's per-step slot (lane, s); on the arrival of step s it
//     reduces slot (lane, s) into lane-chunk (r - s - 1 + d) mod N. After
//     N-1 steps rank r owns lane-chunk (r + 1 + d) mod N.
//   all-gather step t: rank r sends lane-chunk (owner - t) mod N, where
//     owner = (r + 1 + d) mod N, directly into its successor's data buffer
//     at the chunk's final offset — no landing slot and no receiver copy;
//     on arrival t it may immediately forward that chunk (step t+1).
//
// Per-step slots make the schedule self-throttling-free: a sender running
// ahead can never overwrite a slot its successor has not consumed, and the
// all-gather's in-place writes cannot race the receiver's reads because the
// write that lands chunk c is causally downstream of every read of c (the
// dependency chain runs once around the ring).
#include <algorithm>
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

void CollectiveGroup::StartRing(const std::shared_ptr<Op>& op, bool do_reduce_scatter,
                                bool do_all_gather) {
  const int n = size();
  CHECK_GT(n, 1);
  // Standalone ops run single-lane so their chunk c is the public N-way
  // partition (Chunk()); the fused all-reduce pipelines across lanes.
  const bool fused = do_reduce_scatter && do_all_gather;
  const int lanes = fused ? options_.pipeline_depth : 1;
  PartitionLanes(op, lanes, /*units_per_lane=*/n);

  RingLane ring;
  ring.size = n;
  ring.slot_cap = chunk_cap_elements_;
  ring.delta = fused ? 0 : n - 1;
  ring.steps_rs = do_reduce_scatter ? n - 1 : 0;
  ring.steps_ag = do_all_gather ? n - 1 : 0;
  ring.on_rs_done = [this](RingLane& lane) {
    sim::TraceSpan(RankTrack(lane.rank), StrCat("rs l", lane.lane, " ", lane.lane_cnt, "e"),
                   lane.phase_start, simulator()->Now());
    lane.phase_start = simulator()->Now();
  };
  ring.on_ag_done = [this](RingLane& lane) {
    sim::TraceSpan(RankTrack(lane.rank), StrCat("ag l", lane.lane, " ", lane.lane_cnt, "e"),
                   lane.phase_start, simulator()->Now());
  };
  const int total_steps = ring.steps_rs + ring.steps_ag;

  for (int r = 0; r < n; ++r) {
    for (int l = 0; l < lanes; ++l) {
      if (op->lanes[l].count > 0) DeclareFlags(op, r, l * total_steps, total_steps, "ring");
    }
  }
  for (int r = 0; r < n; ++r) {
    for (int l = 0; l < lanes; ++l) {
      if (op->lanes[l].count == 0) continue;
      ring.rank = r;
      ring.succ = (r + 1) % n;
      ring.pos = r;
      ring.lane = l;
      ring.lane_off = op->lanes[l].offset;
      ring.lane_cnt = op->lanes[l].count;
      ring.flag_base = l * total_steps;
      StartRingLane(op, ring);
    }
  }
}

void CollectiveGroup::StartRingLane(const std::shared_ptr<Op>& op, RingLane spec) {
  // Owned by the lane's closures, not by the op: a hook may hold the op.
  auto ring = std::make_shared<RingLane>(std::move(spec));
  ring->phase_start = simulator()->Now();
  PostRingStep(op, *ring, 0);
  StartWaiter(
      op, ring->rank, ring->flag_base, ring->steps_rs + ring->steps_ag,
      [this, op, ring](int index, std::function<void()> resume) {
        if (index < ring->steps_rs) {
          // Reduce-scatter arrival s: fold slot (lane, s) into the chunk it
          // carries, then (causally after the reduce) send the next step.
          const int s = index;
          const int n = ring->size;
          const int recv_chunk = ((ring->pos - s - 1 + ring->delta) % n + n) % n;
          const ChunkRange chunk = NearEqualChunk(ring->lane_cnt, n, recv_chunk);
          simulator()->ScheduleAfter(
              ReduceNs(chunk.count * sizeof(float)),
              [this, op, ring, s, chunk, resume = std::move(resume)] {
                if (op->finished) return;
                FoldSlot(ring->rank, ring->slot_offset(s), ring->lane_off + chunk.offset,
                         chunk.count);
                if (s + 1 == ring->steps_rs && ring->on_rs_done) ring->on_rs_done(*ring);
                if (s + 1 < ring->steps_rs + ring->steps_ag) PostRingStep(op, *ring, s + 1);
                resume();
              });
          return;
        }
        // All-gather arrival: the chunk already sits at its final offset;
        // forward it unless this was the last step.
        if (index + 1 < ring->steps_rs + ring->steps_ag) {
          PostRingStep(op, *ring, index + 1);
        } else if (ring->on_ag_done) {
          ring->on_ag_done(*ring);
        }
        resume();
      });
}

void CollectiveGroup::PostRingStep(const std::shared_ptr<Op>& op, const RingLane& ring,
                                   int index) {
  const int n = ring.size;
  const bool reduce = index < ring.steps_rs;
  // Reduce-scatter step s sends chunk (pos - s + d); all-gather step t sends
  // chunk (owner - t), where the rank owns chunk owner = pos + 1 + d.
  const int first = reduce ? ring.pos + ring.delta : ring.pos + 1 + ring.delta;
  const int step = reduce ? index : index - ring.steps_rs;
  const int send_chunk = ((first - step) % n + n) % n;
  const ChunkRange chunk = NearEqualChunk(ring.lane_cnt, n, send_chunk);
  Rank* self = ranks_[ring.rank].get();
  const Rank::PeerAddrs& peer = self->peers[ring.succ];
  const uint64_t byte_off = (ring.lane_off + chunk.offset) * sizeof(float);
  const device::RemoteRegion& target = reduce ? peer.slots : peer.data;
  const uint64_t target_off = reduce ? ring.slot_offset(index) : byte_off;
  PostChunk(op, ring.rank, ring.succ, ring.lane, self->data_addr + byte_off, self->data_lkey,
            target.addr + target_off, target.rkey, chunk.count * sizeof(float),
            ring.flag_base + index);
}

}  // namespace collective
}  // namespace rdmadl
