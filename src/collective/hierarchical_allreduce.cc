// Topology-aware two-level all-reduce (ISSUE 7).
//
// Level 1 — intra-rack binomial reduce tree. Within each rack, member
// positions 0..m-1 (0 = leader) run a binomial reduce over the whole lane
// slice: position p sends its accumulated slice to parent p - 2^ctz(p) once
// it has folded in its own children, which arrive as consecutive receive
// rounds j = 0..RecvRounds(p)-1 (round j comes from p + 2^j). Every message
// stays inside the rack, so the oversubscribed uplink sees none of this
// traffic.
//
// Level 2 — inter-rack ring over the rack leaders. The R leaders run the
// fused ring reduce-scatter / all-gather (delta = 0, exactly the flat-ring
// schedule) over the rack-reduced slice; only these messages cross the
// spine, and the multi-level engine routing caps their stripe fan-out to one
// QP lane (they all funnel through the same uplink).
//
// Level 3 — intra-rack binomial broadcast, the mirror of level 1: the leader
// pushes the globally reduced slice down the tree (child q receives from
// q - 2^ctz(q) and forwards to q + 2^j for j < ctz(q)).
//
// Pipelined handoff: each lane hands off independently. Lane l's leader ring
// starts the moment lane l's local tree finishes, so early lanes' spine
// traffic overlaps late lanes' tree reduction, and likewise ring completion
// flows straight into that lane's broadcast. The op's deadline is re-checked
// at both handoffs (CheckDeadline) so a blown budget names the level.
//
// §3.2 contract everywhere: every payload lands via PostChunk (payload then
// trailing flag on the same QP / striped-with-fenced-flag path), receivers
// are sequential flag pollers, and slots are written exactly once per op —
// tree slot (lane, round) and ring slot (lane, step) each have a single
// writer, and the broadcast's in-place data writes are causally downstream
// of every read of the same range (the chain runs through the leader).
#include <algorithm>
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

namespace {

int Ctz(int p) {
  int j = 0;
  while (((p >> j) & 1) == 0) ++j;
  return j;
}

// Number of tree receive rounds of position |p| in an m-member rack: the
// consecutive rounds j with p % 2^(j+1) == 0 and a live child p + 2^j < m.
int RecvRounds(int p, int m) {
  int t = 0;
  while (p % (1 << (t + 1)) == 0 && p + (1 << t) < m) ++t;
  return t;
}

}  // namespace

void CollectiveGroup::StartHierarchical(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  const int lanes = options_.pipeline_depth;
  const int R = static_cast<int>(racks_.size());
  Partition(op->count, lanes, &op->lane_offset, &op->lane_count);

  int active_lanes = 0;
  for (int l = 0; l < lanes; ++l) {
    if (op->lane_count[l] > 0) active_lanes++;
  }
  // Two units per (rank, lane): the tree waiter, and the per-rank tail (ring
  // waiter for leaders with R > 1, broadcast waiter for non-leaders, explicit
  // finish for a single-rack leader).
  op->pending_units = active_lanes * n * 2;
  if (op->pending_units == 0) {
    Finish(op);
    return;
  }

  const int ring_steps = R > 1 ? 2 * (R - 1) : 0;
  const int bcast_flag = tree_rounds_ + ring_steps;

  // Declare every flag this schedule will poll before anything is posted, so
  // the checker can flag a read that races its covering write.
  for (int r = 0; r < n; ++r) {
    const int p = rank_pos_[r];
    const int m = static_cast<int>(racks_[rank_rack_[r]].size());
    for (int l = 0; l < lanes; ++l) {
      if (op->lane_count[l] == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      for (int j = 0; j < RecvRounds(p, m); ++j) DeclareFlag(op, r, fb + j, "tree");
      if (p == 0) {
        for (int s = 0; s < ring_steps; ++s) DeclareFlag(op, r, fb + tree_rounds_ + s, "ring");
      } else {
        DeclareFlag(op, r, fb + bcast_flag, "bcast");
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    const int rk = rank_rack_[r];
    const int p = rank_pos_[r];
    const std::vector<int>& members = racks_[rk];
    const int m = static_cast<int>(members.size());
    const int recv_rounds = RecvRounds(p, m);

    for (int l = 0; l < lanes; ++l) {
      const uint64_t lane_off = op->lane_offset[l];
      const uint64_t lane_cnt = op->lane_count[l];
      if (lane_cnt == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      const uint64_t lane_bytes = lane_cnt * sizeof(float);
      auto phase_start = std::make_shared<int64_t>(simulator()->Now());

      // Level-3 broadcast push: sends the (now final) lane slice to the
      // binomial descendants of position |pos|, deepest subtree first.
      auto post_bcast = [this, op, r, l, rk, m, lane_off, lane_bytes, fb, bcast_flag,
                         &members_ref = racks_[rk]](int pos, int max_j) {
        Rank* self = ranks_[r].get();
        for (int j = max_j; j >= 0; --j) {
          const int child = pos + (1 << j);
          if (child >= m) continue;
          const int child_rank = members_ref[child];
          const Rank::PeerAddrs& peer = self->peers[child_rank];
          const uint64_t byte_off = lane_off * sizeof(float);
          PostChunk(op, r, child_rank, l, self->data_addr + byte_off, self->data_lkey,
                    peer.data.addr + byte_off, peer.data.rkey, lane_bytes, fb + bcast_flag);
        }
      };

      // Level-2 leader ring (leaders only, R > 1): fused RS+AG over the rack
      // ordinals, rack rk at ring position g = rk.
      const int succ_leader = R > 1 ? racks_[(rk + 1) % R][0] : r;
      auto post_ring_rs = [this, op, r, l, rk, R, succ_leader, lane_off, lane_cnt, fb](int s) {
        const int send_chunk = ((rk - s) % R + R) % R;
        const ChunkRange chunk = NearEqualChunk(lane_cnt, R, send_chunk);
        Rank* self = ranks_[r].get();
        const Rank::PeerAddrs& peer = self->peers[succ_leader];
        const uint64_t slot_off =
            hier_ring_slot_offset_ +
            (static_cast<uint64_t>(l) * (R - 1) + s) * hier_ring_cap_elements_ * sizeof(float);
        PostChunk(op, r, succ_leader, l,
                  self->data_addr + (lane_off + chunk.offset) * sizeof(float), self->data_lkey,
                  peer.slots.addr + slot_off, peer.slots.rkey, chunk.count * sizeof(float),
                  fb + tree_rounds_ + s);
      };
      auto post_ring_ag = [this, op, r, l, rk, R, succ_leader, lane_off, lane_cnt,
                           fb](int t) {
        const int owner = (rk + 1) % R;
        const int send_chunk = ((owner - t) % R + R) % R;
        const ChunkRange chunk = NearEqualChunk(lane_cnt, R, send_chunk);
        Rank* self = ranks_[r].get();
        const Rank::PeerAddrs& peer = self->peers[succ_leader];
        const uint64_t byte_off = (lane_off + chunk.offset) * sizeof(float);
        PostChunk(op, r, succ_leader, l, self->data_addr + byte_off, self->data_lkey,
                  peer.data.addr + byte_off, peer.data.rkey, chunk.count * sizeof(float),
                  fb + tree_rounds_ + (R - 1) + t);
      };

      // Fires when lane |l|'s rack-local tree is fully folded at this rank:
      // non-leaders push up, leaders hand off to the spine ring (or straight
      // to the broadcast when there is only one rack).
      auto after_tree = [this, op, r, l, p, m, rk, R, lane_off, lane_bytes, fb, phase_start,
                         post_ring_rs, post_ring_ag, post_bcast, ring_steps, members,
                         lane_cnt]() {
        if (op->finished) return;
        sim::TraceSpan(RankTrack(r), StrCat("h-tree l", l, " ", lane_cnt, "e"), *phase_start,
                       simulator()->Now());
        *phase_start = simulator()->Now();
        if (p != 0) {
          // Push the rack-partial slice to the tree parent.
          const int parent = p - (1 << Ctz(p));
          const int parent_rank = members[parent];
          Rank* self = ranks_[r].get();
          const Rank::PeerAddrs& peer = self->peers[parent_rank];
          const uint64_t slot_off =
              hier_tree_slot_offset_ +
              (static_cast<uint64_t>(l) * tree_rounds_ + Ctz(p)) * lane_cap_elements_ *
                  sizeof(float);
          PostChunk(op, r, parent_rank, l, self->data_addr + lane_off * sizeof(float),
                    self->data_lkey, peer.slots.addr + slot_off, peer.slots.rkey, lane_bytes,
                    fb + Ctz(p));
          return;
        }
        if (!CheckDeadline(op, "intra-rack tree -> spine ring handoff")) return;
        if (R > 1) {
          // Leader ring for this lane: first send carries rack-reduced data,
          // and the ring waiter starts only now — a predecessor's early
          // arrival must not be folded into a slice still accumulating tree
          // contributions.
          post_ring_rs(0);
          StartWaiter(
              op, r, fb + tree_rounds_, ring_steps,
              [this, op, r, l, rk, R, lane_off, lane_cnt, phase_start, post_ring_rs,
               post_ring_ag, post_bcast, m](int index, std::function<void()> resume) {
                if (index < R - 1) {
                  // Reduce-scatter arrival s: fold ring slot (l, s) into the
                  // chunk it carries, then send the next step.
                  const int s = index;
                  const int recv_chunk = ((rk - s - 1) % R + R) % R;
                  const ChunkRange chunk = NearEqualChunk(lane_cnt, R, recv_chunk);
                  const uint64_t bytes = chunk.count * sizeof(float);
                  simulator()->ScheduleAfter(
                      ReduceNs(bytes),
                      [this, op, r, l, s, R, chunk, lane_off, post_ring_rs, post_ring_ag,
                       resume = std::move(resume)] {
                        if (op->finished) return;
                        Rank* self = ranks_[r].get();
                        if (self->data_region.valid() && chunk.count > 0) {
                          const uint64_t slot_off =
                              hier_ring_slot_offset_ +
                              (static_cast<uint64_t>(l) * (R - 1) + s) *
                                  hier_ring_cap_elements_ * sizeof(float);
                          const float* src =
                              reinterpret_cast<const float*>(self->slot_ptr() + slot_off);
                          float* dst = self->data_ptr() + lane_off + chunk.offset;
                          for (uint64_t i = 0; i < chunk.count; ++i) dst[i] += src[i];
                        }
                        if (s + 1 < R - 1) {
                          post_ring_rs(s + 1);
                        } else {
                          post_ring_ag(0);
                        }
                        resume();
                      });
                  return;
                }
                // All-gather arrival t: the chunk sits at its final offset;
                // forward it, or on the last step hand off to the broadcast.
                const int t = index - (R - 1);
                if (t + 1 < R - 1) {
                  post_ring_ag(t + 1);
                } else {
                  sim::TraceSpan(RankTrack(r), StrCat("h-ring l", l, " ", lane_cnt, "e"),
                                 *phase_start, simulator()->Now());
                  *phase_start = simulator()->Now();
                  if (!CheckDeadline(op, "spine ring -> intra-rack broadcast handoff")) return;
                  if (m > 1) post_bcast(0, tree_rounds_ - 1);
                }
                resume();
              });
          return;
        }
        // Single rack: the tree result already is the global sum.
        if (!CheckDeadline(op, "spine ring -> intra-rack broadcast handoff")) return;
        if (m > 1) post_bcast(0, tree_rounds_ - 1);
        FinishUnit(op);
      };

      // Level-1 tree waiter (every rank): fold children as they arrive, then
      // run the handoff. Leaves have no receive rounds and hand off at once.
      if (recv_rounds == 0) {
        after_tree();
        StartWaiter(op, r, fb, 0, nullptr);
      } else {
        StartWaiter(
            op, r, fb, recv_rounds,
            [this, op, r, l, lane_off, lane_cnt, recv_rounds, after_tree](
                int j, std::function<void()> resume) {
              const uint64_t bytes = lane_cnt * sizeof(float);
              simulator()->ScheduleAfter(
                  ReduceNs(bytes), [this, op, r, l, j, lane_off, lane_cnt, recv_rounds,
                                    after_tree, resume = std::move(resume)] {
                    if (op->finished) return;
                    Rank* self = ranks_[r].get();
                    if (self->data_region.valid() && lane_cnt > 0) {
                      const uint64_t slot_off =
                          hier_tree_slot_offset_ +
                          (static_cast<uint64_t>(l) * tree_rounds_ + j) * lane_cap_elements_ *
                              sizeof(float);
                      const float* src =
                          reinterpret_cast<const float*>(self->slot_ptr() + slot_off);
                      float* dst = self->data_ptr() + lane_off;
                      for (uint64_t i = 0; i < lane_cnt; ++i) dst[i] += src[i];
                    }
                    if (j + 1 == recv_rounds) after_tree();
                    resume();
                  });
            });
      }

      // Per-rank tail unit: non-leaders wait for the broadcast push (started
      // now — the flag may land long before the poller's first look, which is
      // exactly the §3.2 pattern). Leaders' tail is the ring waiter (R > 1,
      // started at tree-done) or the explicit finish above (R == 1).
      if (p != 0) {
        StartWaiter(op, r, fb + bcast_flag, 1,
                    [this, op, r, l, p, post_bcast](int, std::function<void()> resume) {
                      // Forward the final slice down this position's subtree.
                      if (Ctz(p) > 0) post_bcast(p, Ctz(p) - 1);
                      resume();
                    });
      }
    }
  }
}

}  // namespace collective
}  // namespace rdmadl
