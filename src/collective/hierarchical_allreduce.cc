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
// fused ring reduce-scatter / all-gather over the rack-reduced slice through
// the flat ring's own lane routine (StartRingLane, delta = 0, rack ordinal =
// ring position, slots in the leader-ring area); only these messages cross
// the spine, and the multi-level engine routing caps their stripe fan-out to
// one QP lane (they all funnel through the same uplink).
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
  // Two units per (rank, lane): the tree waiter, and the per-rank tail (ring
  // waiter for leaders with R > 1, broadcast waiter for non-leaders, explicit
  // finish for a single-rack leader).
  PartitionLanes(op, lanes, /*units_per_lane=*/2 * n);

  const int ring_steps = R > 1 ? 2 * (R - 1) : 0;
  const int bcast_flag = tree_rounds_ + ring_steps;

  // Declare every flag this schedule will poll before anything is posted, so
  // the checker can flag a read that races its covering write.
  for (int r = 0; r < n; ++r) {
    const int p = rank_pos_[r];
    const int m = static_cast<int>(racks_[rank_rack_[r]].size());
    for (int l = 0; l < lanes; ++l) {
      if (op->lanes[l].count == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      DeclareFlags(op, r, fb, RecvRounds(p, m), "tree");
      if (p == 0) {
        DeclareFlags(op, r, fb + tree_rounds_, ring_steps, "ring");
      } else {
        DeclareFlags(op, r, fb + bcast_flag, 1, "bcast");
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    const int rk = rank_rack_[r];
    const int p = rank_pos_[r];
    const int m = static_cast<int>(racks_[rk].size());
    const int recv_rounds = RecvRounds(p, m);

    for (int l = 0; l < lanes; ++l) {
      const uint64_t lane_off = op->lanes[l].offset;
      const uint64_t lane_cnt = op->lanes[l].count;
      if (lane_cnt == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      const uint64_t lane_bytes = lane_cnt * sizeof(float);
      const int64_t lane_start = simulator()->Now();
      // Byte offset of tree slot (lane, round j): the child whose subtree
      // joins at round j writes there.
      auto tree_slot = [this, l](int j) {
        return hier_tree_slot_offset_ +
               (static_cast<uint64_t>(l) * tree_rounds_ + j) * lane_cap_elements_ * sizeof(float);
      };

      // Level-3 broadcast push: sends the (now final) lane slice to the
      // binomial descendants of position |pos|, deepest subtree first.
      auto post_bcast = [this, op, r, l, rk, m, lane_off, lane_bytes, fb,
                         bcast_flag](int pos, int max_j) {
        Rank* self = ranks_[r].get();
        for (int j = max_j; j >= 0; --j) {
          const int child = pos + (1 << j);
          if (child >= m) continue;
          const int child_rank = racks_[rk][child];
          const Rank::PeerAddrs& peer = self->peers[child_rank];
          const uint64_t byte_off = lane_off * sizeof(float);
          PostChunk(op, r, child_rank, l, self->data_addr + byte_off, self->data_lkey,
                    peer.data.addr + byte_off, peer.data.rkey, lane_bytes, fb + bcast_flag);
        }
      };

      // Fires when lane |l|'s rack-local tree is fully folded at this rank:
      // non-leaders push up, leaders hand off to the spine ring (or straight
      // to the broadcast when there is only one rack).
      auto after_tree = [this, op, r, l, p, m, rk, R, lane_off, lane_bytes, fb, lane_start,
                         tree_slot, post_bcast, lane_cnt]() {
        if (op->finished) return;
        sim::TraceSpan(RankTrack(r), StrCat("h-tree l", l, " ", lane_cnt, "e"), lane_start,
                       simulator()->Now());
        if (p != 0) {
          // Push the rack-partial slice to the tree parent.
          const int parent_rank = racks_[rk][BinomialParent(p)];
          Rank* self = ranks_[r].get();
          const Rank::PeerAddrs& peer = self->peers[parent_rank];
          PostChunk(op, r, parent_rank, l, self->data_addr + lane_off * sizeof(float),
                    self->data_lkey, peer.slots.addr + tree_slot(Ctz(p)), peer.slots.rkey,
                    lane_bytes, fb + Ctz(p));
          return;
        }
        if (!CheckDeadline(op, "intra-rack tree -> spine ring handoff")) return;
        if (R > 1) {
          // Leader ring for this lane: first send carries rack-reduced data,
          // and the ring waiter starts only now — a predecessor's early
          // arrival must not be folded into a slice still accumulating tree
          // contributions.
          RingLane ring;
          ring.rank = r;
          ring.succ = racks_[(rk + 1) % R][0];
          ring.pos = rk;
          ring.size = R;
          ring.lane = l;
          ring.lane_off = lane_off;
          ring.lane_cnt = lane_cnt;
          ring.slot_base = hier_ring_slot_offset_;
          ring.slot_cap = hier_ring_cap_elements_;
          ring.flag_base = fb + tree_rounds_;
          ring.steps_rs = R - 1;
          ring.steps_ag = R - 1;
          ring.on_ag_done = [this, op, m, post_bcast](RingLane& lane) {
            sim::TraceSpan(RankTrack(lane.rank),
                           StrCat("h-ring l", lane.lane, " ", lane.lane_cnt, "e"),
                           lane.phase_start, simulator()->Now());
            if (!CheckDeadline(op, "spine ring -> intra-rack broadcast handoff")) return;
            if (m > 1) post_bcast(0, tree_rounds_ - 1);
          };
          StartRingLane(op, std::move(ring));
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
            [this, op, r, lane_off, lane_cnt, recv_rounds, tree_slot, after_tree](
                int j, std::function<void()> resume) {
              simulator()->ScheduleAfter(
                  ReduceNs(lane_cnt * sizeof(float)),
                  [this, op, r, j, lane_off, lane_cnt, recv_rounds, tree_slot, after_tree,
                   resume = std::move(resume)] {
                    if (op->finished) return;
                    FoldSlot(r, tree_slot(j), lane_off, lane_cnt);
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
                    [p, post_bcast](int, std::function<void()> resume) {
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
