// Private state of CollectiveGroup, shared by the algorithm translation units
// (collective_group.cc and the per-schedule *_allreduce.cc / broadcast.cc),
// and the one copy of the index arithmetic they share: CeilDiv, the binomial
// tree's Ctz / BinomialParent, and the NearEqualChunk split. Not part of the
// public API.
#ifndef RDMADL_SRC_COLLECTIVE_INTERNAL_H_
#define RDMADL_SRC_COLLECTIVE_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/collective/collective.h"
#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"

namespace rdmadl {
namespace collective {

// Port the group's per-rank devices bind on their hosts (training processes
// use 7000/7001, the membership detector 7200).
constexpr uint16_t kCollectivePort = 7100;
// Segments a Broadcast is chopped into for chained pipelining.
constexpr int kBroadcastSegments = 8;
// Tracer track prefix for collective spans ("host0 ring[0]", ...) and the
// checker's flag labels.
constexpr char kTracePrefix[] = "ring";

inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Index of the lowest set bit of |p| > 0. Binomial-tree position p's parent
// is p - 2^Ctz(p); its children are p + 2^j for j < Ctz(p).
inline int Ctz(int p) {
  int j = 0;
  while (((p >> j) & 1) == 0) ++j;
  return j;
}

inline int BinomialParent(int p) { return p - (1 << Ctz(p)); }

// Piece |c| of the near-equal split of |count| elements into |parts|: it
// gets count/parts elements plus one of the first count%parts remainders.
// Every schedule partitions lanes and chunks with this one formula, so the
// conformance suite can compare their outputs byte for byte.
struct ChunkRange {
  uint64_t offset = 0;  // Elements, from the start of the split range.
  uint64_t count = 0;   // Elements.
};

inline ChunkRange NearEqualChunk(uint64_t count, int parts, int c) {
  const uint64_t base = count / parts;
  const uint64_t rem = count % parts;
  const uint64_t idx = static_cast<uint64_t>(c);
  return ChunkRange{idx * base + std::min<uint64_t>(idx, rem), base + (idx < rem ? 1 : 0)};
}

// Per-rank resources, all set up once at group creation (§3.2 static
// placement: nothing on the collective critical path ever allocates or
// registers memory).
//
// Buffer layout per rank (addresses are real pointers when materialized,
// reserved never-dereferenced ranges otherwise):
//   data   max_elements floats — the user's vector; all-gather writes land
//          directly at their final offsets in here.
//   slots  ring: lanes x (N-1) x chunk_cap slots — reduce-scatter step s of
//          lane l lands in slot (l, s), so a sender running ahead can never
//          overwrite a slot its successor has not consumed.
//          naive: root only, N-1 x max_elements gather parking.
//   flags  ALWAYS real memory (the poller reads actual bytes): one byte per
//          expected arrival, written exactly once per op by the flag write
//          that trails its payload on the same QP, plus one constant source
//          byte (=1) at index |flag_capacity| that every flag write reads.
struct CollectiveGroup::Rank {
  int index = 0;
  Endpoint endpoint;
  std::unique_ptr<device::RdmaDevice> device;
  // Shared transfer engine (lane striping for big chunks; coalescing forced
  // off for collectives). Declared after |device|: it is torn down first.
  std::unique_ptr<comm::TransferEngine> engine;

  // Data buffer.
  uint64_t data_addr = 0;
  uint32_t data_lkey = 0;
  device::MemRegion data_region;  // Invalid in virtual mode.

  // Ring / gather slots.
  uint64_t slot_addr = 0;
  uint64_t slot_bytes = 0;
  uint32_t slot_lkey = 0;
  device::MemRegion slot_region;  // Invalid in virtual mode.

  // Virtual-mode registrations to drop on destruction.
  std::vector<rdma::MemoryRegion> virtual_mrs;

  // Flag block: flag_capacity bytes + 1 source byte.
  device::MemRegion flag_region;

  // What this rank knows about its peers after address distribution;
  // indexed by rank (the self entry is filled locally).
  struct PeerAddrs {
    device::RemoteRegion data;
    device::RemoteRegion slots;
    device::RemoteRegion flags;
  };
  std::vector<PeerAddrs> peers;

  float* data_ptr() const {
    return data_region.valid() ? reinterpret_cast<float*>(data_region.data()) : nullptr;
  }
  uint8_t* slot_ptr() const { return slot_region.valid() ? slot_region.data() : nullptr; }
  uint8_t* flags() const { return flag_region.data(); }
  uint64_t slot_offset_addr(uint64_t offset) const { return slot_addr + offset; }

  ~Rank() {
    for (const rdma::MemoryRegion& mr : virtual_mrs) {
      (void)device->nic()->DeregisterMemory(mr);
    }
  }
};

// One rank's share of one lane of a ring reduce-scatter / all-gather, the
// flat ring over every rank or the hierarchical leader ring over the rack
// leaders. The members stand in ring order; this rank sits at |pos| of
// |size| and sends only to |succ|. Reduce-scatter step s (index s) writes
// into the successor's slot (lane, s) at |slot_base| + (lane * (size - 1) + s)
// * |slot_cap| floats; all-gather step t (index steps_rs + t) writes into its
// data buffer at the chunk's final offset. Index i's flag is flag_base + i.
struct CollectiveGroup::RingLane {
  int rank = 0;
  int succ = 0;
  int pos = 0;
  int size = 0;
  int lane = 0;
  uint64_t lane_off = 0;  // Elements.
  uint64_t lane_cnt = 0;  // Elements.
  uint64_t slot_base = 0;  // Bytes into the slot area.
  uint64_t slot_cap = 0;   // Elements per (lane, step) slot.
  int flag_base = 0;
  int delta = 0;     // Chunk shift: 0 fused, size - 1 for standalone ops.
  int steps_rs = 0;  // size - 1, or 0 without a reduce-scatter.
  int steps_ag = 0;  // size - 1, or 0 without an all-gather.
  // Start of the current phase's trace span: the lane's start time, moved
  // by a hook that closes a span.
  int64_t phase_start = 0;
  // Run, in the event that finishes the phase, before the lane moves on.
  std::function<void(RingLane&)> on_rs_done;
  std::function<void(RingLane&)> on_ag_done;

  // Byte offset of reduce-scatter slot (lane, s) in the receiver's slot area.
  uint64_t slot_offset(int s) const {
    return slot_base + (static_cast<uint64_t>(lane) * (size - 1) + s) * slot_cap * sizeof(float);
  }
};

// One in-flight collective. Closures capture the op by shared_ptr so a
// completion that races with teardown (e.g. after a failure finished the op
// early) finds |finished| set and backs off instead of touching freed state.
struct CollectiveGroup::Op {
  enum class Kind { kAllReduce, kReduceScatter, kAllGather, kBroadcast };

  Kind kind = Kind::kAllReduce;
  uint64_t count = 0;  // Elements.
  int root = 0;        // Broadcast only.
  DoneCallback done;
  int64_t start_ns = 0;
  // Absolute virtual-time budget (0 = none). Begin arms a backstop timer at
  // this instant; the multi-level schedules additionally recheck it at every
  // level handoff (tree -> spine ring -> broadcast, in-network round issue)
  // so a blown budget fails with a message naming the level instead of the
  // generic timer text.
  int64_t deadline_ns = 0;

  bool finished = false;
  Status status;  // First failure, if any.

  // Completion accounting: the op finishes when every unit (one per
  // rank x lane for the ring, one per involved rank otherwise) is done.
  int pending_units = 0;

  // Lane partition of [0, count), in elements.
  std::vector<ChunkRange> lanes;

  // Naive gather: virtual time at which the root's reduce core frees up
  // (arrivals reduce serially on one core).
  int64_t root_cpu_free_ns = 0;
  int naive_reduced = 0;

  // Flags declared to the protocol checker for this op, as (rank, index)
  // pairs; Finish/Fail forget them so the shadow state never outlives the op.
  std::vector<std::pair<int, int>> declared_flags;

  // In-network staging ("switch SRAM" shadow, materialize mode only):
  // [lane][rack partial 0..R-1, global R][window] floats.
  std::vector<float> innet_buf;
};

// A sequential flag poller: one per (rank, lane) for the ring, one per
// expected arrival group otherwise. Watches its flag bytes in index order
// with exponential backoff (§4: each idle retry is a discrete event, so the
// interval backs off up to the max and resets on progress).
struct CollectiveGroup::Waiter {
  int rank = 0;
  int flag_base = 0;
  int num_flags = 0;
  // handler(index, resume): performs the arrival's work (reduce, forward) and
  // calls resume() when the poller may advance to the next flag.
  std::function<void(int, std::function<void()>)> on_arrival;

  int next = 0;            // Next expected flag, relative to |flag_base|.
  int64_t backoff_ns = 0;  // Current idle retry interval (0 = fresh).
};

}  // namespace collective
}  // namespace rdmadl

#endif  // RDMADL_SRC_COLLECTIVE_INTERNAL_H_
