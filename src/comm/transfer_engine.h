// Shared transfer engine: the fast path under both the zero-copy PS
// mechanism and the collectives (ISSUE 5).
//
// One engine per sending device, three optimizations, all measurable in
// virtual time:
//
//   * Multi-QP lane striping — a large one-sided write is split into
//     contiguous stripes posted across the device's QP lanes to one peer, so
//     the transfer is not serialized behind a single QP's WQE-engine ceiling
//     (cost.rdma_qp_engine_bytes_per_sec). The trailing flag byte is posted
//     only after every stripe's completion has been observed, which preserves
//     the §3.2 contract: a receiver that sees the flag set can trust the
//     payload. Stripes target disjoint remote ranges and the flag is ordered
//     behind their wire completions, so the path is clean under
//     check::RdmaCheck's remote-race and flag-trust detectors.
//
//   * Small-tensor coalescing — payload+flag pairs below a threshold bound
//     for the same peer are queued and flushed as one doorbell-chained WR
//     batch (QueuePair::PostSendBatch): the per-message CPU overhead of the
//     cost model is paid once per batch, which is where the paper's Fig. 8
//     small-message gap comes from. The batch interleaves [payload, flag,
//     payload, flag, ...]; the wire delivers the chain in posting order, so
//     each flag still lands after its payload.
//
//   * MR registration cache — an extent-based LRU cache (tensor::
//     ExtentLruCache) in front of verbs registration, so the §3.3 dynamic
//     protocol stops paying the per-page pinning cost on every step
//     (registration pressure, §3.4 / RDMAvisor). Eviction honors the NIC's
//     MR-count limit and never removes an extent used in the current epoch
//     (its pages may be the target of an in-flight remote read). Cached MRs
//     are deregistered at engine teardown, so they never surface as RdmaCheck
//     leaks.
//
// Determinism: lane fan-out, flush scheduling, and eviction-victim selection
// depend only on posting order and virtual time — never on pointer values or
// unordered-container iteration — so same-seed runs produce byte-identical
// traces with every path enabled.
#ifndef RDMADL_SRC_COMM_TRANSFER_ENGINE_H_
#define RDMADL_SRC_COMM_TRANSFER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/device/rdma_device.h"
#include "src/tensor/extent_cache.h"
#include "src/util/endpoint.h"
#include "src/util/status.h"

namespace rdmadl {
namespace comm {

struct TransferEngineOptions {
  // Lane striping for large writes.
  bool enable_striping = true;
  // QP lanes to stripe across; 0 = all of the device's QPs per peer.
  int stripe_lanes = 0;
  // Writes of at least this many bytes are striped.
  uint64_t stripe_threshold_bytes = 4ull << 20;

  // Doorbell coalescing for small single-piece writes (at most 8 KiB, held
  // up to 400 ns for peers to join the batch).
  bool enable_coalescing = true;
  // Flush immediately once a batch holds this many tensors.
  int max_coalesce_batch = 16;

  // MR registration cache (used only via GetOrRegisterMr; callers opt in).
  int mr_cache_capacity = 64;
};

class TransferEngine {
 public:
  // One side of a write: a registered local range and its remote target.
  struct WriteDesc {
    void* local_addr = nullptr;
    uint32_t lkey = 0;
    uint64_t remote_addr = 0;
    uint32_t rkey = 0;
    uint64_t bytes = 0;
    bool copy_bytes = true;
  };

  // How Write routed a request (callers keep their own stats), and so where
  // its flag goes:
  //   kDirect        payload, then the flag FIFO behind it on one QP;
  //   kStriped       one piece cut into MTU-aligned stripes across lanes,
  //                  flag after their join;
  //   kCoalesced     payload and flag interleaved in a doorbell chain;
  //   kScatterGather several pieces as one SG-WR, or one per lane stripe,
  //                  flag after their join.
  enum class Route { kDirect, kStriped, kCoalesced, kScatterGather };

  // Which memory the MR registration cache is fronting. Host and device
  // extents live in disjoint cache key spaces with independent eviction:
  // shedding a host registration can never invalidate a device MR that
  // in-flight GPUDirect traffic still targets (and vice versa).
  enum class MemDomain { kHost = 0, kDevice = 1 };

  struct Stats {
    int64_t direct_writes = 0;
    int64_t striped_writes = 0;
    int64_t stripe_lane_writes = 0;  // Individual stripes posted.
    int64_t coalesced_writes = 0;
    int64_t coalesced_batches = 0;   // Doorbells rung for those writes.
    int64_t gather_writes = 0;       // Writes routed as SG.
    int64_t sg_wrs_posted = 0;       // SG work requests those rode in.
    int64_t sg_extents_posted = 0;   // Extents carried by those WRs.
    int64_t mr_cache_hits = 0;
    int64_t mr_cache_misses = 0;
    int64_t mr_cache_evictions = 0;
  };

  // Result of an MR-cache lookup/registration.
  struct MrHandle {
    uint32_t lkey = 0;
    uint32_t rkey = 0;
    // Pinning cost to charge to the caller's timeline (0 on a hit).
    int64_t register_ns = 0;
    bool hit = false;
    // Entries evicted to make room for this registration.
    int evictions = 0;
  };

  TransferEngine(device::RdmaDevice* device, const TransferEngineOptions& options);
  ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  // Posts |pieces| followed by the trailing |flag| byte toward |remote|. The
  // pieces must share one lkey/rkey pair (one registration domain, e.g. a
  // GPU arena); empty pieces are dropped. One non-empty piece routes by size:
  // striped, coalesced or direct. Several ride scatter/gather WRs: one SG-WR
  // on |lane_hint|, or, past the striping gate, one SG-WR per lane over
  // contiguous byte-balanced runs that never split a piece. The §3.2 contract
  // holds on every route: the flag lands only after every payload byte.
  // |on_done| fires once, at the flag's completion or at the first error.
  // |lane_hint| selects the QP lane for un-striped traffic (callers keep
  // their existing lane discipline).
  Route Write(const Endpoint& remote, std::span<const WriteDesc> pieces, const WriteDesc& flag,
              int lane_hint, device::MemcpyCallback on_done);

  // Flushes every pending coalesced batch now (end of a step's issue phase).
  void FlushCoalesced();

  // Drops queued-but-unposted coalesced writes without invoking callbacks
  // (teardown/abort aid, mirroring RdmaDevice::DropPendingCallbacks).
  void ResetTransientState();

  // Advances the MR-cache epoch. Extents used in the current epoch are
  // pinned: they may be the target of in-flight remote reads, so eviction
  // only considers entries from earlier epochs.
  void BeginEpoch(int64_t epoch);

  // Looks up [addr, addr+bytes) in the registration cache, registering a
  // page-aligned extent on a miss (evicting LRU entries from earlier epochs
  // to respect capacity and the NIC MR limit). Fails with kResourceExhausted
  // when the NIC cannot hold another region; callers fall back to staging.
  // |domain| selects the cache key space; eviction victims come from the
  // requesting domain only, so host-cache churn never sheds device MRs.
  StatusOr<MrHandle> GetOrRegisterMr(const void* addr, uint64_t bytes,
                                     MemDomain domain = MemDomain::kHost);

  const Stats& stats() const { return stats_; }
  device::RdmaDevice* device() const { return device_; }
  int mr_cache_size() const { return static_cast<int>(mr_cache_.size()); }
  int mr_cache_size_in(MemDomain domain) const {
    return static_cast<int>(mr_cache_.size_in(static_cast<uint32_t>(domain)));
  }

  // Multi-level engine routing: caps the stripe fan-out per destination.
  // With a hierarchical fabric, stripes toward a cross-rack peer all funnel
  // through the same oversubscribed rack uplink, so spreading them over many
  // QP lanes buys no bandwidth and only multiplies WQE-engine work; the
  // topology-aware collectives install a resolver that returns 1 for
  // cross-rack destinations and the full lane count within a rack. Returns
  // <= 0 to mean "no cap". Null (the default) leaves every route untouched.
  void set_lane_limit_resolver(std::function<int(const Endpoint&)> resolver) {
    lane_limit_resolver_ = std::move(resolver);
  }

 private:
  struct PendingWrite {
    WriteDesc payload;
    WriteDesc flag;
    device::MemcpyCallback on_done;
  };
  struct PeerQueue {
    std::vector<PendingWrite> pending;
    bool flush_scheduled = false;
  };
  struct CachedMr {
    rdma::MemoryRegion mr;
    int64_t epoch = 0;
  };

  // Resolves the channel for (remote, lane) via a cache guarded by the QP
  // pool's generation: any eviction anywhere invalidates it, so a stale
  // binding is never used after the pool reshuffled lanes. The first use per
  // generation goes through RdmaDevice::GetChannel, which acquires (or
  // reconnects) the pooled lane; cache hits skip the pool lookup and rely on
  // the channel's own lazy reattach if its specific lane was since evicted.
  StatusOr<device::RdmaChannel*> Channel(const Endpoint& remote, int lane);
  // Cut pieces_ into runs_: the single piece into MTU-aligned stripes, one
  // per lane; several pieces into at most |stripes| byte-balanced runs.
  void CutStripes(int lanes);
  void CutExtentRuns(int stripes);
  // Queues a small write for its peer's next doorbell chain.
  void Enqueue(const Endpoint& remote, PendingWrite write);
  void Flush(const Endpoint& remote, PeerQueue* queue);
  void FailAsync(device::MemcpyCallback on_done, Status status);
  int LaneCount() const;
  // LaneCount clamped by the lane-limit resolver for |remote| (never < 1).
  int LaneCountFor(const Endpoint& remote) const;

  device::RdmaDevice* device_;
  TransferEngineOptions options_;
  Stats stats_;
  std::map<Endpoint, PeerQueue> queues_;
  // Bumped by ResetTransientState to invalidate scheduled flushes.
  uint64_t generation_ = 0;
  // Round-robin lane for coalesced batches.
  int next_batch_lane_ = 0;
  // Lane-binding cache; valid only while the pool generation matches.
  std::map<std::pair<Endpoint, int>, device::RdmaChannel*> channel_cache_;
  uint64_t pool_generation_ = 0;

  tensor::ExtentLruCache<CachedMr> mr_cache_;
  int64_t epoch_ = 0;
  std::function<int(const Endpoint&)> lane_limit_resolver_;

  // Hoisted planner scratch (reserve once, reuse every call, so the steady
  // state allocates nothing per piece): the non-empty pieces, or a striped
  // piece's stripes; the [begin, end) piece range of each work request; and
  // each work request's channel.
  std::vector<WriteDesc> pieces_;
  std::vector<std::pair<size_t, size_t>> runs_;
  std::vector<device::RdmaChannel*> channels_;
};

}  // namespace comm
}  // namespace rdmadl

#endif  // RDMADL_SRC_COMM_TRANSFER_ENGINE_H_
