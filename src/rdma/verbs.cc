#include "src/rdma/verbs.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace rdma {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kWrite:
      return "RDMA_WRITE";
    case Opcode::kRead:
      return "RDMA_READ";
    case Opcode::kSend:
      return "SEND";
    case Opcode::kRecv:
      return "RECV";
  }
  return "?";
}

// ----------------------------------------------------------- CompletionQueue

bool CompletionQueue::Poll(WorkCompletion* wc) {
  if (entries_.empty()) return false;
  *wc = std::move(entries_.front());
  entries_.pop_front();
  return true;
}

void CompletionQueue::Push(WorkCompletion wc) {
  entries_.push_back(std::move(wc));
  if (handler_) {
    // The handler models the device library's CQ poller context picking the
    // entry up; the cq_poll_overhead is charged by the QP before pushing.
    handler_();
  }
}

// ----------------------------------------------------------------- QueuePair

namespace {

// A send-queue dispatch is one stream of pieces {local addr, remote addr,
// length}: a plain WR is one piece, an SG-WR one piece per extent, and a
// doorbell chain the concatenated pieces of its WRs.
size_t NumPieces(const SendWorkRequest& wr) { return wr.sge.empty() ? 1 : wr.sge.size(); }

SgExtent Piece(const SendWorkRequest& wr, size_t i) {
  return wr.sge.empty() ? SgExtent{wr.local_addr, wr.remote_addr, wr.length} : wr.sge[i];
}

}  // namespace

Status QueuePair::Connect(QueuePair* peer) {
  if (peer_ != nullptr) {
    return FailedPrecondition("QP already connected");
  }
  if (peer == nullptr || peer == this) {
    return InvalidArgument("invalid peer QP");
  }
  peer_ = peer;
  if (peer->peer_ == nullptr) {
    peer->peer_ = this;
  } else if (peer->peer_ != this) {
    return FailedPrecondition("peer QP connected elsewhere");
  }
  return OkStatus();
}

Status QueuePair::PostSend(const SendWorkRequest& wr) {
  if (peer_ == nullptr) {
    return FailedPrecondition("QP not connected");
  }
  if (wr.opcode == Opcode::kRecv) {
    return InvalidArgument("RECV must be posted via PostRecv");
  }
  if (!wr.sge.empty() && wr.opcode != Opcode::kWrite) {
    return InvalidArgument("scatter/gather WRs support RDMA_WRITE only");
  }
  RDMADL_RETURN_IF_ERROR(CheckLocalPieces(wr));
  if (state_ == QpState::kError) {
    // Real RC QPs accept posts in the error state and complete them with a
    // flush error; callers learn of the failure from the CQ, never silently.
    PushAfterPoll(send_cq_, FlushCompletion(wr.wr_id, wr.opcode));
    return OkStatus();
  }
  send_queue_.push_back(Batch{wr});
  MaybeStartNext();
  return OkStatus();
}

Status QueuePair::PostSendBatch(std::vector<SendWorkRequest> wrs) {
  if (peer_ == nullptr) {
    return FailedPrecondition("QP not connected");
  }
  if (wrs.empty()) {
    return InvalidArgument("empty WR batch");
  }
  for (const SendWorkRequest& wr : wrs) {
    if (wr.opcode != Opcode::kWrite) {
      return InvalidArgument("WR batches support RDMA_WRITE only");
    }
    if (!wr.sge.empty()) {
      return InvalidArgument("SG WRs cannot ride in a doorbell batch; post them singly");
    }
    if (wr.length == 0) {
      return InvalidArgument("zero-length WR in batch");
    }
    RDMADL_RETURN_IF_ERROR(CheckLocalPieces(wr));
  }
  if (state_ == QpState::kError) {
    for (const SendWorkRequest& wr : wrs) {
      PushAfterPoll(send_cq_, FlushCompletion(wr.wr_id, wr.opcode));
    }
    return OkStatus();
  }
  send_queue_.push_back(std::move(wrs));
  MaybeStartNext();
  return OkStatus();
}

Status QueuePair::CheckLocalPieces(const SendWorkRequest& wr) const {
  for (size_t i = 0; i < NumPieces(wr); ++i) {
    const SgExtent piece = Piece(wr, i);
    if (!wr.sge.empty() && piece.length == 0) {
      return InvalidArgument("zero-length extent in SG list");
    }
    if (nic_->FindLocalRegion(wr.lkey, piece.local_addr, piece.length) == nullptr) {
      return InvalidArgument(StrCat("local buffer not registered: lkey=", wr.lkey, " addr=",
                                    piece.local_addr, " len=", piece.length));
    }
  }
  return OkStatus();
}

Status QueuePair::PostRecv(const RecvWorkRequest& wr) {
  if (nic_->FindLocalRegion(wr.lkey, wr.addr, wr.length) == nullptr) {
    return InvalidArgument("recv buffer not registered");
  }
  if (state_ == QpState::kError) {
    PushAfterPoll(recv_cq_, FlushCompletion(wr.wr_id, Opcode::kRecv));
    return OkStatus();
  }
  recv_queue_.push_back(wr);
  MatchInbound();
  return OkStatus();
}

Status QueuePair::Recover() {
  if (peer_ == nullptr) return FailedPrecondition("QP not connected");
  if (state_ != QpState::kError) return OkStatus();
  if (engine_busy_) {
    return FailedPrecondition("cannot recover a QP with a work request in flight");
  }
  state_ = QpState::kReady;
  error_cause_ = OkStatus();
  retry_attempts_ = 0;
  return OkStatus();
}

void QueuePair::MaybeStartNext() {
  if (engine_busy_ || state_ == QpState::kError || send_queue_.empty()) return;
  engine_busy_ = true;
  current_ = std::move(send_queue_.front());
  send_queue_.pop_front();
  ++nic_->stats_.doorbells;
  // Posting overhead (doorbell + WQE fetch) before the engine acts — charged
  // once per doorbell, whether it rings one WQE or a chained list. current_
  // stays put until the completion releases the engine, so the closure needs
  // only `this`. Jittered: the overhead is a point estimate of a noisy
  // quantity, so the schedule explorer may perturb it.
  nic_->simulator()->ScheduleAfterJittered(nic_->cost().rdma_post_overhead_ns,
                                           [this]() { ExecuteCurrent(); });
}

void QueuePair::ExecuteCurrent() {
  const SendWorkRequest& head = current_.front();
  NicDevice* target_nic = peer_->nic_;
  const int host = nic_->host_id();
  const int64_t now = nic_->simulator()->Now();
  uint64_t total = 0;
  if (head.opcode != Opcode::kSend) {
    if (check::RdmaCheck* c = check::RdmaCheck::Current()) {
      // Built only while a checker is installed: the disabled path stays
      // allocation-free.
      std::vector<check::SgExtentInfo> extents;
      for (const SendWorkRequest& wr : current_) {
        if (wr.opcode == Opcode::kRead) {
          c->ReadPosted(host, target_nic->host_id(), qp_num_, wr.wr_id, wr.remote_addr,
                        wr.length, wr.rkey, now);
          continue;
        }
        extents.clear();
        for (size_t i = 0; i < NumPieces(wr); ++i) {
          const SgExtent piece = Piece(wr, i);
          extents.push_back(check::SgExtentInfo{piece.remote_addr, piece.length});
        }
        c->WritePosted(host, target_nic->host_id(), qp_num_, wr.wr_id, extents, wr.rkey, now,
                       /*sg_list=*/!wr.sge.empty());
      }
    }
    // The pieces share fate like one WQE list: validate every target before
    // any byte moves, and fail every WR on the first violation.
    for (const SendWorkRequest& wr : current_) {
      for (size_t i = 0; i < NumPieces(wr); ++i) {
        const SgExtent piece = Piece(wr, i);
        if (target_nic->FindRemoteRegion(wr.rkey, piece.remote_addr, piece.length) == nullptr) {
          ++target_nic->stats_.rkey_violations;
          WritesFinished();
          Finish(InvalidArgument(StrCat("remote access violation (", OpcodeName(wr.opcode),
                                        "): rkey=", wr.rkey, " addr=", piece.remote_addr,
                                        " len=", piece.length)));
          return;
        }
        total += piece.length;
      }
    }
  }
  // Traffic counters are per WR, charged at dispatch: a retransmission
  // re-sends bytes that were already counted.
  if (retry_attempts_ == 0) {
    NicStats& stats = nic_->stats_;
    for (const SendWorkRequest& wr : current_) {
      const uint64_t bytes = wr.TotalBytes();
      if (wr.opcode == Opcode::kRead) {
        ++stats.reads;
        stats.read_bytes += bytes;
      } else if (wr.opcode == Opcode::kSend) {
        ++stats.sends;
        stats.send_bytes += bytes;
      } else {
        ++stats.writes;  // One WQE, whatever its extent count.
        stats.write_bytes += bytes;
        if (!wr.sge.empty()) {
          ++stats.sg_writes;
          stats.sg_extents += wr.sge.size();
        }
      }
    }
    if (current_.size() > 1) ++stats.doorbell_batches;
  }
  if (head.opcode == Opcode::kRead) {
    ExecuteRead();
    return;
  }
  if (head.opcode == Opcode::kSend) {
    ExecuteSend();
    return;
  }
  // One wire stream carries every piece in posting order. Fabric delivery is
  // an ascending prefix of the stream, so each piece receives its bytes in
  // ascending address order: the §3.2 guarantee, per piece. A retry rewrites
  // the stream from offset 0. Seeded bug (explorer self-validation): under
  // kRetryKeepsCursor the retry resumes from the cursor instead, which breaks
  // that guarantee.
  if (!check::MutationEnabled(check::kRetryKeepsCursor) || retry_attempts_ == 0 ||
      cursor_.delivered >= total) {
    cursor_ = Cursor{};
  }
  // The WQE-engine ceiling and the DCQCN rate limiter both see the summed
  // bytes: one doorbell's worth of engine work, one flow of injected payload.
  const uint64_t bytes = total - cursor_.delivered;
  nic_->fabric()->Transfer(
      host, target_nic->host_id(), bytes, net::Plane::kRdma,
      nic_->cost().rdma_nic_processing_ns + EngineDelayNs(bytes) + DcqcnDelayNs(bytes),
      [this](uint64_t /*offset*/, uint64_t length) { DeliverSegment(length); },
      [this](Status status) { CompleteWire(status); },
      [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); });
}

void QueuePair::DeliverSegment(uint64_t length) {
  // Segments are copied for real as they land, so a flag-byte poller on the
  // target sees partial tensors faithfully.
  cursor_.delivered += length;
  while (length > 0) {
    const SendWorkRequest& wr = current_[cursor_.wr];
    const SgExtent piece = Piece(wr, cursor_.piece);
    const uint64_t take = std::min<uint64_t>(length, piece.length - cursor_.offset);
    check::OnWriteSegment(nic_->host_id(), qp_num_, wr.wr_id, cursor_.piece, cursor_.offset,
                          take, nic_->simulator()->Now());
    if (wr.copy_bytes) {
      std::memcpy(reinterpret_cast<uint8_t*>(piece.remote_addr) + cursor_.offset,
                  reinterpret_cast<const uint8_t*>(piece.local_addr) + cursor_.offset, take);
    }
    length -= take;
    cursor_.offset += take;
    if (cursor_.offset == piece.length) {
      cursor_.offset = 0;
      if (++cursor_.piece == NumPieces(wr)) {
        cursor_.piece = 0;
        ++cursor_.wr;
      }
    }
  }
}

void QueuePair::ExecuteRead() {
  const SendWorkRequest& wr = current_.front();
  // The read request first travels to the target (one-way latency + remote
  // NIC processing), then the data streams back.
  const net::CostModel& cost = nic_->cost();
  const int64_t request_trip = cost.rdma_nic_processing_ns + cost.rdma_one_way_latency_ns +
                               cost.rdma_nic_processing_ns + EngineDelayNs(wr.length) +
                               DcqcnDelayNs(wr.length);
  nic_->fabric()->Transfer(
      peer_->nic_->host_id(), nic_->host_id(), wr.length, net::Plane::kRdma, request_trip,
      [this](uint64_t offset, uint64_t length) {
        const SendWorkRequest& cur = current_.front();
        if (cur.copy_bytes) {
          std::memcpy(reinterpret_cast<uint8_t*>(cur.local_addr) + offset,
                      reinterpret_cast<const uint8_t*>(cur.remote_addr) + offset, length);
        }
      },
      [this](Status status) { CompleteWire(status); },
      [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); });
}

void QueuePair::ExecuteSend() {
  const uint64_t length = current_.front().length;
  nic_->fabric()->Transfer(
      nic_->host_id(), peer_->nic_->host_id(), length, net::Plane::kRdma,
      nic_->cost().rdma_nic_processing_ns + DcqcnDelayNs(length), nullptr,
      [this](Status status) { CompleteWire(status); },
      [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); });
}

int64_t QueuePair::EngineDelayNs(uint64_t bytes) const {
  const double rate = nic_->cost().rdma_qp_engine_bytes_per_sec;
  if (rate <= 0.0) return 0;
  return static_cast<int64_t>(static_cast<double>(bytes) / rate * 1e9);
}

int64_t QueuePair::DcqcnDelayNs(uint64_t bytes) {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  if (!cc.dcqcn) return 0;
  Dcqcn& d = dcqcn_;
  const double line = nic_->cost().rdma_bandwidth_bytes_per_sec;
  if (!d.initialized) {
    d.initialized = true;
    d.current_rate = line;
    d.target_rate = line;
  }
  if (d.last_decrease_ns < 0) return 0;  // Never throttled: line rate.
  const int64_t now = nic_->simulator()->Now();
  // Timer + byte-counter recovery, applied lazily: whichever accumulated more
  // stages since the last marker drives the advance (both reset on a
  // decrease). The cap bounds the catch-up loop after a long idle gap.
  int stages = 0;
  if (cc.dcqcn_recovery_period_ns > 0) {
    stages = static_cast<int>(
        std::min<int64_t>((now - d.last_stage_ns) / cc.dcqcn_recovery_period_ns, 64));
  }
  if (cc.dcqcn_recovery_bytes > 0) {
    stages = std::max(stages, static_cast<int>(std::min<uint64_t>(
                                  d.bytes_since_stage / cc.dcqcn_recovery_bytes, 64)));
  }
  if (stages > 0) {
    for (int i = 0; i < stages; ++i) {
      ++d.stage;
      // Quiet-period alpha decay rides the same stage clock.
      d.alpha *= (1.0 - cc.dcqcn_alpha_g);
      if (d.stage > cc.dcqcn_fast_recovery_stages) {
        d.target_rate = std::min(line, d.target_rate + cc.dcqcn_rate_ai_bytes_per_sec);
      }
      d.current_rate = 0.5 * (d.current_rate + d.target_rate);
    }
    nic_->stats_.dcqcn_rate_increases += static_cast<uint64_t>(stages);
    d.last_stage_ns = now;
    d.bytes_since_stage = 0;
    d.cnp_backoff = 0;
    if (line - d.current_rate < 1.0e6) {
      // Fully recovered: back to untracked line rate.
      d.current_rate = line;
      d.target_rate = line;
      d.last_decrease_ns = -1;
      return 0;
    }
  }
  d.bytes_since_stage += bytes;
  const double delay =
      static_cast<double>(bytes) * 1e9 * (1.0 / d.current_rate - 1.0 / line);
  const int64_t delay_ns = delay > 0.0 ? static_cast<int64_t>(delay) : 0;
  nic_->stats_.dcqcn_pacing_delay_ns_total += delay_ns;
  return delay_ns;
}

void QueuePair::OnEcnFeedback(int64_t deliver_ns) {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  ++nic_->stats_.ecn_marked_segments;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kEcnMark);
  if (!cc.dcqcn) return;  // Nobody reacts: the CC-off collapse configuration.
  Dcqcn& d = dcqcn_;
  // NP-side CNP moderation. While the QP already sits at the rate floor,
  // further CNPs carry no new information, so the interval backs off
  // exponentially (capped at 16x) — a persistent hotspot must not become a
  // CNP storm. Shares CappedBackoffNs with the transport-retry schedule.
  const int64_t interval = CappedBackoffNs(cc.dcqcn_cnp_interval_ns, d.cnp_backoff,
                                           16 * cc.dcqcn_cnp_interval_ns);
  if (d.last_cnp_ns >= 0 && deliver_ns - d.last_cnp_ns < interval) return;
  d.last_cnp_ns = deliver_ns;
  if (d.initialized && d.current_rate <= cc.dcqcn_min_rate_bytes_per_sec * 1.001) {
    d.cnp_backoff = std::min(d.cnp_backoff + 1, 4);
  }
  // The CNP travels back to the sender; the RP reacts one propagation
  // latency later.
  ++pending_events_;
  nic_->simulator()->ScheduleAfter(nic_->cost().rdma_one_way_latency_ns, [this]() {
    --pending_events_;
    ApplyCnp();
  });
}

void QueuePair::ApplyCnp() {
  ++nic_->stats_.cnps_received;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kCnp);
  DcqcnDecrease();
}

void QueuePair::DcqcnDecrease() {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  Dcqcn& d = dcqcn_;
  const double line = nic_->cost().rdma_bandwidth_bytes_per_sec;
  if (!d.initialized) {
    d.initialized = true;
    d.current_rate = line;
    d.target_rate = line;
  }
  d.alpha = (1.0 - cc.dcqcn_alpha_g) * d.alpha + cc.dcqcn_alpha_g;
  d.target_rate = d.current_rate;
  d.current_rate =
      std::max(d.current_rate * (1.0 - d.alpha / 2.0), cc.dcqcn_min_rate_bytes_per_sec);
  d.stage = 0;
  d.bytes_since_stage = 0;
  const int64_t now = nic_->simulator()->Now();
  d.last_stage_ns = now;
  d.last_decrease_ns = now;
  ++nic_->stats_.dcqcn_rate_decreases;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kRateDecrease);
}

void QueuePair::CompleteWire(const Status& status) {
  if (status.ok()) {
    retry_attempts_ = 0;
    // The completion-ordering happens-before edge: the writes' bytes have
    // all landed, anything posted from here on is ordered behind them.
    WritesFinished();
    const SendWorkRequest& head = current_.front();
    if (head.opcode == Opcode::kSend && peer_ != nullptr) {
      peer_->DeliverInbound(reinterpret_cast<const uint8_t*>(head.local_addr), head.length,
                            head.copy_bytes);
    }
    Finish(OkStatus());
    return;
  }
  // Transport failure (lost segment, dead host): the RC transport retransmits
  // the whole stream with capped exponential backoff, transparently to the
  // consumer, on one retry budget. Under DCQCN the loss doubles as a
  // congestion signal — the RP cuts its rate like on a CNP, so
  // retransmissions into a hot queue arrive paced instead of re-synchronized.
  if (retry_attempts_ < nic_->cost().rdma_transport_retry_count) {
    const int64_t backoff = TransportBackoffNs(nic_->cost(), retry_attempts_);
    ++retry_attempts_;
    ++nic_->stats_.retransmissions;
    if (nic_->fabric()->congestion().dcqcn) DcqcnDecrease();
    if (sim::Tracer::Current() != nullptr) {
      sim::TraceInstant(StrCat("host", nic_->host_id(), ".nic"),
                        StrCat("retransmit qp", qp_num_, " wr", current_.front().wr_id,
                               " attempt ", retry_attempts_),
                        nic_->simulator()->Now());
    }
    nic_->simulator()->ScheduleAfter(backoff, [this]() { ExecuteCurrent(); });
    return;
  }
  // Retry budget exhausted: the QP moves to the error state. The failing WRs
  // complete with the transport error; everything queued flushes after them.
  WritesFinished();
  retry_attempts_ = 0;
  state_ = QpState::kError;
  error_cause_ = Unavailable(StrCat("transport retry limit (",
                                    nic_->cost().rdma_transport_retry_count,
                                    ") exhausted: ", status.message()))
                     .WithContextFrom(status);
  if (sim::Tracer::Current() != nullptr) {
    sim::TraceInstant(StrCat("host", nic_->host_id(), ".nic"),
                      StrCat("qp", qp_num_, " -> ERROR: ", status.message()),
                      nic_->simulator()->Now());
  }
  Finish(error_cause_);
}

void QueuePair::WritesFinished() {
  const int64_t now = nic_->simulator()->Now();
  for (const SendWorkRequest& wr : current_) {
    if (wr.opcode == Opcode::kWrite) {
      check::OnWriteFinished(nic_->host_id(), qp_num_, wr.wr_id, now);
    }
  }
}

void QueuePair::Finish(Status status) {
  pending_status_ = std::move(status);
  // The WQE list's CQEs are generated together and picked up by one poller
  // pass: one cq_poll overhead, then per-WR completions in FIFO order.
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns, [this]() {
    engine_busy_ = false;
    // Move the list out first: a CQ handler may post new work from inside
    // Push, which would overwrite current_ mid-iteration.
    const Batch batch = std::move(current_);
    for (const SendWorkRequest& wr : batch) {
      WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = wr.opcode;
      wc.status = pending_status_;
      wc.byte_len = pending_status_.ok() ? wr.TotalBytes() : 0;
      wc.qp_num = qp_num_;
      send_cq_->Push(std::move(wc));
    }
    if (state_ == QpState::kError) {
      FlushQueues();
      return;
    }
    MaybeStartNext();
  });
}

void QueuePair::FlushQueues() {
  // FIFO order, after the completion that carried the error.
  while (!send_queue_.empty()) {
    Batch batch = std::move(send_queue_.front());
    send_queue_.pop_front();
    for (const SendWorkRequest& wr : batch) send_cq_->Push(FlushCompletion(wr.wr_id, wr.opcode));
  }
  while (!recv_queue_.empty()) {
    const uint64_t wr_id = recv_queue_.front().wr_id;
    recv_queue_.pop_front();
    recv_cq_->Push(FlushCompletion(wr_id, Opcode::kRecv));
  }
}

WorkCompletion QueuePair::FlushCompletion(uint64_t wr_id, Opcode opcode) {
  ++nic_->stats_.flushed_wrs;
  WorkCompletion wc;
  wc.wr_id = wr_id;
  wc.opcode = opcode;
  wc.status = Aborted("WR flushed: QP in error state");
  wc.qp_num = qp_num_;
  return wc;
}

void QueuePair::PushAfterPoll(CompletionQueue* cq, WorkCompletion wc) {
  ++pending_events_;
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns, [this, cq, wc]() {
    --pending_events_;
    cq->Push(wc);
  });
}

void QueuePair::DeliverInbound(const uint8_t* src, uint64_t length, bool copy_bytes) {
  // An errored QP no longer matches inbound messages; the sender's completion
  // already carried the failure.
  if (state_ == QpState::kError) return;
  inbound_.push_back(InboundMessage{src, length, copy_bytes});
  MatchInbound();
}

void QueuePair::MatchInbound() {
  while (!inbound_.empty() && !recv_queue_.empty()) {
    InboundMessage msg = inbound_.front();
    inbound_.pop_front();
    RecvWorkRequest recv = recv_queue_.front();
    recv_queue_.pop_front();

    WorkCompletion wc;
    wc.wr_id = recv.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.qp_num = qp_num_;
    if (msg.length > recv.length) {
      wc.status = InvalidArgument(
          StrCat("inbound SEND of ", msg.length, " bytes exceeds posted recv buffer of ",
                 recv.length, " bytes"));
      wc.byte_len = 0;
    } else {
      if (msg.length > 0 && msg.copy_bytes) {
        std::memcpy(reinterpret_cast<void*>(recv.addr), msg.src, msg.length);
      }
      wc.status = OkStatus();
      wc.byte_len = msg.length;
    }
    PushAfterPoll(recv_cq_, wc);
  }
}

// ------------------------------------------------------------------ NicDevice

NicDevice::NicDevice(net::Fabric* fabric, int host_id) : fabric_(fabric), host_id_(host_id) {}

StatusOr<MemoryRegion> NicDevice::RegisterMemory(void* addr, uint64_t length) {
  if (addr == nullptr || length == 0) {
    return InvalidArgument("cannot register empty region");
  }
  if (num_registered_regions() >= cost().max_memory_regions) {
    return ResourceExhausted(StrCat("NIC MR limit reached (", cost().max_memory_regions, ")"));
  }
  MemoryRegion mr;
  mr.addr = reinterpret_cast<uint64_t>(addr);
  mr.length = length;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mrs_by_lkey_[mr.lkey] = mr;
  mrs_by_rkey_[mr.rkey] = mr;
  ++stats_.registrations;
  stats_.registration_cost_ns_total += RegistrationCost(length);
  check::OnMrRegistered(host_id_, mr.addr, mr.length, mr.lkey, mr.rkey, simulator()->Now());
  return mr;
}

Status NicDevice::DeregisterMemory(const MemoryRegion& mr) {
  const bool erased_l = mrs_by_lkey_.erase(mr.lkey) > 0;
  const bool erased_r = mrs_by_rkey_.erase(mr.rkey) > 0;
  if (!erased_l || !erased_r) {
    return NotFound("memory region not registered");
  }
  check::OnMrDeregistered(host_id_, mr.lkey, mr.rkey, simulator()->Now());
  return OkStatus();
}

int64_t NicDevice::RegistrationCost(uint64_t length) const {
  const uint64_t pages = (length + cost().mr_page_bytes - 1) / cost().mr_page_bytes;
  return cost().mr_register_base_ns +
         static_cast<int64_t>(pages) * cost().mr_register_per_page_ns;
}

CompletionQueue* NicDevice::CreateCompletionQueue() {
  cqs_.push_back(std::make_unique<CompletionQueue>(this));
  return cqs_.back().get();
}

QueuePair* NicDevice::CreateQueuePair(CompletionQueue* send_cq, CompletionQueue* recv_cq) {
  StatusOr<QueuePair*> qp = TryCreateQueuePair(send_cq, recv_cq);
  CHECK(qp.ok());
  return *qp;
}

StatusOr<QueuePair*> NicDevice::TryCreateQueuePair(CompletionQueue* send_cq,
                                                   CompletionQueue* recv_cq) {
  CHECK(send_cq != nullptr && recv_cq != nullptr);
  if (num_queue_pairs() >= cost().max_queue_pairs) {
    return ResourceExhausted(StrCat("NIC QP limit reached (", cost().max_queue_pairs,
                                    ") on host", host_id_));
  }
  qps_.push_back(std::make_unique<QueuePair>(this, next_qp_num_++, send_cq, recv_cq));
  return qps_.back().get();
}

Status NicDevice::DestroyQueuePair(QueuePair* qp) {
  if (qp == nullptr) return InvalidArgument("null QP");
  auto it = std::find_if(qps_.begin(), qps_.end(),
                         [qp](const std::unique_ptr<QueuePair>& p) { return p.get() == qp; });
  if (it == qps_.end()) return NotFound("QP not owned by this NIC");
  check::OnQpDestroyed(host_id_, qp->qp_num(), simulator()->Now());
  if (qp->peer_ != nullptr && qp->peer_->peer_ == qp) {
    qp->peer_->peer_ = nullptr;
  }
  qps_.erase(it);
  return OkStatus();
}

const MemoryRegion* NicDevice::FindRemoteRegion(uint32_t rkey, uint64_t addr,
                                                uint64_t len) const {
  auto it = mrs_by_rkey_.find(rkey);
  if (it == mrs_by_rkey_.end()) return nullptr;
  if (!it->second.Contains(addr, len)) return nullptr;
  return &it->second;
}

const MemoryRegion* NicDevice::FindLocalRegion(uint32_t lkey, uint64_t addr,
                                               uint64_t len) const {
  auto it = mrs_by_lkey_.find(lkey);
  if (it == mrs_by_lkey_.end()) return nullptr;
  if (!it->second.Contains(addr, len)) return nullptr;
  return &it->second;
}

// ------------------------------------------------------------------ RdmaFabric

RdmaFabric::RdmaFabric(net::Fabric* fabric) : fabric_(fabric) {
  nics_.reserve(fabric->num_hosts());
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    nics_.push_back(std::make_unique<NicDevice>(fabric, i));
  }
}

}  // namespace rdma
}  // namespace rdmadl
