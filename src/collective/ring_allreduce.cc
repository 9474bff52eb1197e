// Ring reduce-scatter / all-gather / fused all-reduce.
//
// The ring is the rank order 0..N-1 (rank r sends only to (r+1) % N). Each
// pipeline lane runs the schedule independently over its own slice of the
// vector; a lane's all-gather begins the moment its reduce-scatter finishes,
// so later lanes' reduce traffic overlaps earlier lanes' gather traffic.
//
// With shift parameter d (0 for the fused all-reduce, N-1 for standalone
// ops, so that standalone reduce-scatter leaves rank r owning chunk r):
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
  Partition(op->count, lanes, &op->lane_offset, &op->lane_count);

  const int steps_rs = do_reduce_scatter ? n - 1 : 0;
  const int steps_ag = do_all_gather ? n - 1 : 0;
  const int total_steps = steps_rs + steps_ag;
  const int delta = fused ? 0 : n - 1;

  int active_lanes = 0;
  for (int l = 0; l < lanes; ++l) {
    if (op->lane_count[l] > 0) active_lanes++;
  }
  op->pending_units = active_lanes * n;
  if (op->pending_units == 0) {
    Finish(op);
    return;
  }

  for (int r = 0; r < n; ++r) {
    for (int l = 0; l < lanes; ++l) {
      const uint64_t lane_off = op->lane_offset[l];
      const uint64_t lane_cnt = op->lane_count[l];
      if (lane_cnt == 0) continue;
      const int succ = (r + 1) % n;
      const int flag_base = l * total_steps;
      const int owner = (r + 1 + delta) % n;

      auto post_rs = [this, op, r, l, succ, lane_off, lane_cnt, delta, n, flag_base](int s) {
        const int send_chunk = ((r - s + delta) % n + n) % n;
        const ChunkRange chunk = NearEqualChunk(lane_cnt, n, send_chunk);
        Rank* self = ranks_[r].get();
        const Rank::PeerAddrs& peer = self->peers[succ];
        const uint64_t slot_off =
            (static_cast<uint64_t>(l) * (n - 1) + s) * chunk_cap_elements_ * sizeof(float);
        PostChunk(op, r, succ, l, self->data_addr + (lane_off + chunk.offset) * sizeof(float),
                  self->data_lkey, peer.slots.addr + slot_off, peer.slots.rkey,
                  chunk.count * sizeof(float), flag_base + s);
      };

      auto post_ag = [this, op, r, l, succ, lane_off, lane_cnt, owner, n, flag_base,
                      steps_rs](int t) {
        const int send_chunk = ((owner - t) % n + n) % n;
        const ChunkRange chunk = NearEqualChunk(lane_cnt, n, send_chunk);
        Rank* self = ranks_[r].get();
        const Rank::PeerAddrs& peer = self->peers[succ];
        const uint64_t byte_off = (lane_off + chunk.offset) * sizeof(float);
        PostChunk(op, r, succ, l, self->data_addr + byte_off, self->data_lkey,
                  peer.data.addr + byte_off, peer.data.rkey, chunk.count * sizeof(float),
                  flag_base + steps_rs + t);
      };

      if (steps_rs > 0) {
        post_rs(0);
      } else {
        post_ag(0);
      }

      auto phase_start = std::make_shared<int64_t>(simulator()->Now());
      auto on_arrival = [this, op, r, l, lane_off, lane_cnt, delta, n, steps_rs, steps_ag,
                         post_rs, post_ag,
                         phase_start](int index, std::function<void()> resume) {
        if (index < steps_rs) {
          // Reduce-scatter arrival s: fold slot (l, s) into the chunk it
          // carries, then (causally after the reduce) send the next step.
          const int s = index;
          const int recv_chunk = ((r - s - 1 + delta) % n + n) % n;
          const ChunkRange chunk = NearEqualChunk(lane_cnt, n, recv_chunk);
          const uint64_t bytes = chunk.count * sizeof(float);
          simulator()->ScheduleAfter(
              ReduceNs(bytes),
              [this, op, r, l, s, chunk, lane_off, lane_cnt, n, steps_rs, steps_ag, post_rs,
               post_ag, phase_start, resume = std::move(resume)] {
                if (op->finished) return;
                Rank* self = ranks_[r].get();
                if (self->data_region.valid() && chunk.count > 0) {
                  const uint64_t slot_off =
                      (static_cast<uint64_t>(l) * (n - 1) + s) * chunk_cap_elements_ *
                      sizeof(float);
                  const float* src =
                      reinterpret_cast<const float*>(self->slot_ptr() + slot_off);
                  float* dst = self->data_ptr() + lane_off + chunk.offset;
                  for (uint64_t i = 0; i < chunk.count; ++i) dst[i] += src[i];
                }
                if (s + 1 < steps_rs) {
                  post_rs(s + 1);
                } else {
                  sim::TraceSpan(RankTrack(r), StrCat("rs l", l, " ", lane_cnt, "e"),
                                 *phase_start, simulator()->Now());
                  *phase_start = simulator()->Now();
                  if (steps_ag > 0) post_ag(0);
                }
                resume();
              });
          return;
        }
        // All-gather arrival t: the chunk already sits at its final offset;
        // forward it unless this was the last step.
        const int t = index - steps_rs;
        if (t + 1 < steps_ag) {
          post_ag(t + 1);
        } else {
          sim::TraceSpan(RankTrack(r), StrCat("ag l", l, " ", lane_cnt, "e"), *phase_start,
                         simulator()->Now());
        }
        resume();
      };

      StartWaiter(op, r, flag_base, total_steps, std::move(on_arrival));
    }
  }
}

}  // namespace collective
}  // namespace rdmadl
