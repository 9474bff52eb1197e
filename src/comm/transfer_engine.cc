#include "src/comm/transfer_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/check/mutation.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace comm {
namespace {

// Doorbell coalescing: single-piece writes of at most this many bytes queue
// per peer and share one doorbell chain.
constexpr uint64_t kCoalesceThresholdBytes = 8192;
// How long a queued write may wait for peers to join its batch. Under one
// wire latency, so a lone sender loses less than a flight time while bursts
// of small tensors share one doorbell.
constexpr int64_t kCoalesceWindowNs = 400;

// The one fire-once join under every route. Each WR of a write (payload run
// or flag) completes through Callback(). |on_done| fires exactly once: with
// the first error, or with OK once all |pending| WRs have completed. While
// |flag_posted| is false (striped and SG routes) the last payload completion
// posts the flag instead. Every payload byte is then at the target, so the
// flag cannot overtake any of them, whichever lane carries it (§3.2).
struct Completion {
  device::MemcpyCallback on_done;
  int pending = 0;
  bool fired = false;
  bool flag_posted = false;
  TransferEngine::WriteDesc flag;
  device::RdmaChannel* flag_channel = nullptr;

  void Fire(const Status& status) {
    if (fired) return;
    fired = true;
    if (device::MemcpyCallback cb = std::exchange(on_done, nullptr)) cb(status);
  }

  void PostFlag(device::MemcpyCallback callback) {
    flag_channel->Memcpy(flag.local_addr, flag.lkey, flag.remote_addr, flag.rkey, flag.bytes,
                         device::Direction::kLocalToRemote, std::move(callback),
                         flag.copy_bytes);
  }

  static device::MemcpyCallback Callback(std::shared_ptr<Completion> c) {
    return [c = std::move(c)](const Status& status) {
      if (!status.ok()) c->Fire(status);
      if (check::MutationEnabled(check::kFlagBeforeLastStripe) && !c->fired &&
          !c->flag_posted && c->flag.bytes > 0) {
        // Seeded bug (explorer self-validation): the flag is posted on the
        // FIRST payload completion. Sibling WRs are still in flight, so a
        // receiver that trusts the flag reads a torn payload.
        c->flag_posted = true;
        c->PostFlag(nullptr);
      }
      if (--c->pending > 0 || c->fired) return;
      if (c->flag_posted || c->flag.bytes == 0) {
        c->Fire(OkStatus());
        return;
      }
      c->flag_posted = true;
      ++c->pending;
      c->PostFlag(Callback(c));
    };
  }
};

}  // namespace

TransferEngine::TransferEngine(device::RdmaDevice* device, const TransferEngineOptions& options)
    : device_(device), options_(options) {
  CHECK(device_ != nullptr);
}

TransferEngine::~TransferEngine() {
  // Cached registrations would otherwise outlive the mechanism and surface as
  // RdmaCheck teardown leaks (rkeys naming memory about to be freed).
  mr_cache_.ForEach(
      [this](const auto& entry) { (void)device_->nic()->DeregisterMemory(entry.value.mr); });
  mr_cache_.Clear();
}

int TransferEngine::LaneCount() const {
  const int device_lanes = device_->num_qps_per_peer();
  if (options_.stripe_lanes <= 0) return device_lanes;
  return std::min(options_.stripe_lanes, device_lanes);
}

int TransferEngine::LaneCountFor(const Endpoint& remote) const {
  int lanes = LaneCount();
  if (lane_limit_resolver_) {
    const int cap = lane_limit_resolver_(remote);
    if (cap > 0) lanes = std::min(lanes, cap);
  }
  return std::max(lanes, 1);
}

StatusOr<device::RdmaChannel*> TransferEngine::Channel(const Endpoint& remote, int lane) {
  const uint64_t pool_gen = device_->qp_pool()->generation();
  if (pool_gen != pool_generation_) {
    channel_cache_.clear();
    pool_generation_ = pool_gen;
  }
  const std::pair<Endpoint, int> key(remote, lane);
  auto it = channel_cache_.find(key);
  if (it != channel_cache_.end()) return it->second;
  RDMADL_ASSIGN_OR_RETURN(device::RdmaChannel * channel, device_->GetChannel(remote, lane));
  channel_cache_[key] = channel;
  return channel;
}

void TransferEngine::FailAsync(device::MemcpyCallback on_done, Status status) {
  if (!on_done) return;
  device_->simulator()->ScheduleAfter(
      0, [cb = std::move(on_done), s = std::move(status)]() { cb(s); });
}

TransferEngine::Route TransferEngine::Write(const Endpoint& remote,
                                            std::span<const WriteDesc> pieces,
                                            const WriteDesc& flag_desc, int lane_hint,
                                            device::MemcpyCallback on_done) {
  // 1. Normalise: one registration domain, no empty pieces.
  pieces_.clear();
  uint64_t total = 0;
  for (const WriteDesc& piece : pieces) {
    if (piece.lkey != pieces[0].lkey || piece.rkey != pieces[0].rkey) {
      FailAsync(std::move(on_done),
                InvalidArgument("Write pieces must share one lkey/rkey pair"));
      return Route::kScatterGather;
    }
    if (piece.bytes == 0) continue;
    pieces_.push_back(piece);
    total += piece.bytes;
  }
  WriteDesc flag = flag_desc;
  if (!pieces_.empty() && flag.bytes > 0 && check::MutationEnabled(check::kSkipFlagWrite)) {
    // Seeded bug (explorer self-validation): the sender "forgets" the flag
    // write. The payload lands, the completion fires, and the receiver polls
    // a flag byte nobody will ever set — the stall detector's target.
    flag.bytes = 0;
  }

  // 2. Route. Striping parallelizes the per-QP WQE-engine work. With the
  // engine ceiling disabled (rate 0 = infinite) there is nothing to
  // parallelize: the stripes would only fair-share the wire with unrelated
  // transfers and delay this write's own flag, so the gate also needs a
  // finite engine rate.
  const bool stripe = options_.enable_striping && total >= options_.stripe_threshold_bytes &&
                      device_->nic()->cost().rdma_qp_engine_bytes_per_sec > 0 &&
                      LaneCountFor(remote) > 1;
  Route route = Route::kDirect;
  if (pieces_.size() > 1) {
    route = Route::kScatterGather;
  } else if (pieces_.size() == 1 && stripe) {
    route = Route::kStriped;
  } else if (pieces_.size() == 1 && options_.enable_coalescing &&
             total <= kCoalesceThresholdBytes) {
    Enqueue(remote, PendingWrite{pieces_[0], flag, std::move(on_done)});
    return Route::kCoalesced;
  }

  // 3. Cut into runs of pieces_, one work request each.
  const bool joined = route != Route::kDirect;
  const int lanes = joined ? LaneCountFor(remote) : std::max(1, device_->num_qps_per_peer());
  runs_.clear();
  if (route == Route::kStriped) {
    CutStripes(lanes);
  } else if (route == Route::kScatterGather) {
    CutExtentRuns(stripe ? std::min<int>(lanes, static_cast<int>(pieces_.size())) : 1);
  } else if (!pieces_.empty()) {
    runs_.emplace_back(0, 1);
  }

  // 4. Post. Resolve every channel before posting anything, so a connection
  // failure fails the write whole instead of half-posted. A lone SG-WR keeps
  // the caller's lane; stripes and several SG-WRs are dealt from lane 0. A
  // direct write's payload shares the flag's channel.
  channels_.clear();
  for (size_t i = 0; joined && i < runs_.size(); ++i) {
    const bool lone_sg = route == Route::kScatterGather && runs_.size() == 1;
    auto channel_or = Channel(remote, (lone_sg ? lane_hint : static_cast<int>(i)) % lanes);
    if (!channel_or.ok()) {
      FailAsync(std::move(on_done), channel_or.status());
      return route;
    }
    channels_.push_back(*channel_or);
  }
  auto flag_channel_or = Channel(remote, lane_hint % lanes);
  if (!flag_channel_or.ok()) {
    FailAsync(std::move(on_done), flag_channel_or.status());
    return route;
  }
  if (!joined) channels_.assign(runs_.size(), *flag_channel_or);

  switch (route) {
    case Route::kDirect:
      ++stats_.direct_writes;
      break;
    case Route::kStriped:
      ++stats_.striped_writes;
      stats_.stripe_lane_writes += static_cast<int64_t>(runs_.size());
      break;
    default:
      ++stats_.gather_writes;
      stats_.sg_wrs_posted += static_cast<int64_t>(runs_.size());
      stats_.sg_extents_posted += static_cast<int64_t>(pieces_.size());
      break;
  }

  // The route's flag policy. kDirect posts the flag FIFO behind the payload
  // on one QP. kStriped and kScatterGather post it after every payload WR
  // completed (the join), unless the seeded bug rides it in the SG list.
  const bool flag_in_list = route == Route::kScatterGather && flag.bytes > 0 &&
                            check::MutationEnabled(check::kFlagRidesInSgList) &&
                            flag.lkey == pieces_[0].lkey && flag.rkey == pieces_[0].rkey;
  auto join = std::make_shared<Completion>();
  join->on_done = std::move(on_done);
  join->flag = flag;
  join->flag_channel = *flag_channel_or;
  join->flag_posted = !joined || flag_in_list;
  join->pending = static_cast<int>(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    const auto [lo, hi] = runs_[i];
    if (route != Route::kScatterGather) {
      const WriteDesc& p = pieces_[lo];
      channels_[i]->Memcpy(p.local_addr, p.lkey, p.remote_addr, p.rkey, p.bytes,
                           device::Direction::kLocalToRemote, Completion::Callback(join),
                           p.copy_bytes);
      continue;
    }
    std::vector<rdma::SgExtent> extents;
    extents.reserve(hi - lo + (i == 0 && flag_in_list ? 1 : 0));
    if (i == 0 && flag_in_list) {
      // Seeded bug (explorer self-validation): the completion flag rides as
      // the FIRST extent of the first SG-WR. Extents land in list order, so
      // the flag byte is readable while every sibling extent — and every
      // other SG-WR — is still in flight.
      extents.push_back(rdma::SgExtent{reinterpret_cast<uint64_t>(flag.local_addr),
                                       flag.remote_addr, flag.bytes});
    }
    for (size_t k = lo; k < hi; ++k) {
      extents.push_back(rdma::SgExtent{reinterpret_cast<uint64_t>(pieces_[k].local_addr),
                                       pieces_[k].remote_addr, pieces_[k].bytes});
    }
    channels_[i]->MemcpyScatter(std::move(extents), pieces_[0].lkey, pieces_[0].rkey,
                                Completion::Callback(join), pieces_[0].copy_bytes);
  }
  if (!joined && (flag.bytes > 0 || pieces_.empty())) {
    ++join->pending;
    join->PostFlag(Completion::Callback(join));
  }
  return route;
}

void TransferEngine::CutStripes(int lanes) {
  // MTU-aligned contiguous stripes: each lane gets one disjoint range, so no
  // two in-flight writes overlap (clean under the remote-race detector).
  const WriteDesc whole = pieces_[0];
  const uint64_t mtu = std::max<uint64_t>(1, device_->cost().rdma_mtu_bytes);
  uint64_t per = (whole.bytes + lanes - 1) / lanes;
  per = (per + mtu - 1) / mtu * mtu;
  pieces_.clear();
  for (uint64_t offset = 0; offset < whole.bytes; offset += per) {
    WriteDesc stripe = whole;
    stripe.local_addr = static_cast<uint8_t*>(whole.local_addr) + offset;
    stripe.remote_addr += offset;
    stripe.bytes = std::min(per, whole.bytes - offset);
    runs_.emplace_back(pieces_.size(), pieces_.size() + 1);
    pieces_.push_back(stripe);
  }
}

void TransferEngine::CutExtentRuns(int stripes) {
  // Contiguous, byte-balanced runs (at most |stripes|) that never split an
  // extent.
  uint64_t total = 0;
  for (const WriteDesc& piece : pieces_) total += piece.bytes;
  const uint64_t per_stripe = (total + stripes - 1) / stripes;
  size_t begin = 0;
  uint64_t run_bytes = 0;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    run_bytes += pieces_[i].bytes;
    const bool more_pieces = i + 1 < pieces_.size();
    const bool stripes_left = static_cast<int>(runs_.size()) + 1 < stripes;
    if (!more_pieces ||
        (run_bytes >= per_stripe && stripes_left &&
         pieces_.size() - (i + 1) >= static_cast<size_t>(stripes) - runs_.size() - 1)) {
      runs_.emplace_back(begin, i + 1);
      begin = i + 1;
      run_bytes = 0;
    }
  }
}

void TransferEngine::Enqueue(const Endpoint& remote, PendingWrite write) {
  PeerQueue& queue = queues_[remote];
  queue.pending.push_back(std::move(write));
  ++stats_.coalesced_writes;
  if (static_cast<int>(queue.pending.size()) >= options_.max_coalesce_batch) {
    Flush(remote, &queue);
  } else if (!queue.flush_scheduled) {
    queue.flush_scheduled = true;
    const uint64_t gen = generation_;
    const Endpoint rem = remote;
    device_->simulator()->ScheduleAfter(kCoalesceWindowNs, [this, rem, gen]() {
      if (gen != generation_) return;
      auto it = queues_.find(rem);
      if (it == queues_.end()) return;
      it->second.flush_scheduled = false;
      Flush(rem, &it->second);
    });
  }
}

void TransferEngine::Flush(const Endpoint& remote, PeerQueue* queue) {
  if (queue->pending.empty()) return;
  std::vector<PendingWrite> items = std::move(queue->pending);
  queue->pending.clear();

  auto channel_or = Channel(remote, next_batch_lane_);
  next_batch_lane_ = (next_batch_lane_ + 1) % std::max(1, device_->num_qps_per_peer());
  if (!channel_or.ok()) {
    for (PendingWrite& item : items) FailAsync(std::move(item.on_done), channel_or.status());
    return;
  }
  ++stats_.coalesced_batches;

  // One doorbell-chained batch, interleaved [payload, flag, payload, flag,
  // ...]: the chain executes in posting order on one QP, so each flag lands
  // after its own payload — §3.2 holds per tensor inside the batch.
  std::vector<device::RdmaChannel::BatchWrite> ops;
  ops.reserve(items.size() * 2);
  for (PendingWrite& item : items) {
    auto join = std::make_shared<Completion>();
    join->on_done = std::move(item.on_done);
    join->flag_posted = true;
    for (const WriteDesc* w : {&item.payload, &item.flag}) {
      if (w->bytes == 0) continue;  // Flagless: the payload completes the write.
      ++join->pending;
      ops.push_back(device::RdmaChannel::BatchWrite{w->local_addr, w->lkey, w->remote_addr,
                                                    w->rkey, w->bytes, w->copy_bytes,
                                                    Completion::Callback(join)});
    }
  }
  (*channel_or)->MemcpyBatch(std::move(ops));
}

void TransferEngine::FlushCoalesced() {
  for (auto& [remote, queue] : queues_) {
    Flush(remote, &queue);
  }
}

void TransferEngine::ResetTransientState() {
  // Invalidate scheduled flushes and drop queued writes without invoking
  // their callbacks (the owning step has been aborted; this mirrors
  // RdmaDevice::DropPendingCallbacks).
  ++generation_;
  for (auto& [remote, queue] : queues_) {
    queue.pending.clear();
    queue.flush_scheduled = false;
  }
  // Recovery may tear down or reconnect lanes out from under us; re-resolve
  // every binding through the pool on the next write.
  channel_cache_.clear();
}

void TransferEngine::BeginEpoch(int64_t epoch) { epoch_ = epoch; }

StatusOr<TransferEngine::MrHandle> TransferEngine::GetOrRegisterMr(const void* addr,
                                                                   uint64_t bytes,
                                                                   MemDomain domain) {
  if (addr == nullptr || bytes == 0) {
    return InvalidArgument("cannot cache-register an empty range");
  }
  const uint32_t space = static_cast<uint32_t>(domain);
  const uint64_t a = reinterpret_cast<uint64_t>(addr);
  if (auto* entry = mr_cache_.Lookup(space, a, bytes)) {
    entry->value.epoch = epoch_;  // Pin against eviction this epoch.
    ++stats_.mr_cache_hits;
    MrHandle handle;
    handle.lkey = entry->value.mr.lkey;
    handle.rkey = entry->value.mr.rkey;
    handle.hit = true;
    return handle;
  }
  ++stats_.mr_cache_misses;

  // Page-aligned extent, like a real registration cache: reuse across steps
  // only works if the cached extent covers re-allocations of the same buffer.
  const uint64_t page = std::max<uint64_t>(1, device_->cost().mr_page_bytes);
  const uint64_t base = a / page * page;
  const uint64_t end = (a + bytes + page - 1) / page * page;

  int evictions = 0;
  auto evict_one = [this, &evictions, space]() {
    // Entries touched this epoch may be the target of an in-flight remote
    // read (§3.3 receiver side); only earlier epochs are evictable.
    // Victims come from the requesting domain only: host churn must never
    // shed a device MR that in-flight GDR traffic still targets.
    auto victim = mr_cache_.EvictLru(
        space, [this](const tensor::ExtentLruCache<CachedMr>::Entry& e) {
          return e.value.epoch < epoch_;
        });
    if (!victim.has_value()) return false;
    (void)device_->nic()->DeregisterMemory(victim->value.mr);
    ++evictions;
    ++stats_.mr_cache_evictions;
    return true;
  };
  while (static_cast<int>(mr_cache_.size_in(space)) >=
         std::max(1, options_.mr_cache_capacity)) {
    if (!evict_one()) break;
  }
  auto mr_or = device_->nic()->RegisterMemory(reinterpret_cast<void*>(base), end - base);
  while (!mr_or.ok() && mr_or.status().code() == StatusCode::kResourceExhausted) {
    // NIC MR limit: shed LRU cached extents until the registration fits or
    // nothing evictable remains.
    if (!evict_one()) break;
    mr_or = device_->nic()->RegisterMemory(reinterpret_cast<void*>(base), end - base);
  }
  if (!mr_or.ok()) return mr_or.status();
  mr_cache_.Insert(space, base, end - base, CachedMr{*mr_or, epoch_});
  MrHandle handle;
  handle.lkey = mr_or->lkey;
  handle.rkey = mr_or->rkey;
  handle.register_ns = device_->nic()->RegistrationCost(end - base);
  handle.evictions = evictions;
  return handle;
}

}  // namespace comm
}  // namespace rdmadl
