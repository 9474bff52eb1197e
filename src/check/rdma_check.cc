#include "src/check/rdma_check.h"

#include <algorithm>
#include <utility>

#include "src/sim/explore.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace check {

RdmaCheck* RdmaCheck::current_ = nullptr;

const char* DiagKindName(DiagKind kind) {
  switch (kind) {
    case DiagKind::kUseAfterDeregister:
      return "use-after-deregister";
    case DiagKind::kStaleRkey:
      return "stale-rkey";
    case DiagKind::kOutOfBounds:
      return "out-of-bounds";
    case DiagKind::kRemoteRace:
      return "remote-race";
    case DiagKind::kNonAscendingSegment:
      return "non-ascending-segment";
    case DiagKind::kPrematureFlagRead:
      return "premature-flag-read";
    case DiagKind::kLeakedMemoryRegion:
      return "leaked-memory-region";
    case DiagKind::kLeakedArenaBlock:
      return "leaked-arena-block";
    case DiagKind::kQpDestroyedInFlight:
      return "qp-destroyed-in-flight";
    case DiagKind::kTornRead:
      return "torn-read";
    case DiagKind::kSgExtentOutOfOrder:
      return "sg-extent-out-of-order";
    case DiagKind::kFlagInSgList:
      return "flag-in-sg-list";
  }
  return "?";
}

RdmaCheck::RdmaCheck(RdmaCheckOptions options) : parent_(current_), options_(options) {
  current_ = this;
}

RdmaCheck::~RdmaCheck() {
  CHECK(current_ == this) << "RdmaCheck installs must nest LIFO";
  current_ = parent_;
}

void RdmaCheck::Emit(DiagKind kind, std::string message, int src_host, int dst_host,
                     uint32_t qp_num, uint64_t wr_id, int64_t now_ns) {
  Diagnostic d;
  d.kind = kind;
  d.message = std::move(message);
  d.src_host = src_host;
  d.dst_host = dst_host;
  d.qp_num = qp_num;
  d.wr_id = wr_id;
  d.vtime_ns = now_ns;
  // Trace-linked: the violation shows up on its own track at the exact
  // virtual time, next to the NIC/fault events that led to it.
  sim::TraceInstant("check", StrCat(DiagKindName(kind), ": ", d.message), now_ns);
  if (options_.fail_fast) {
    LOG(FATAL) << "RdmaCheck [" << DiagKindName(kind) << "] " << d.message;
  }
  diagnostics_.push_back(std::move(d));
}

// --------------------------------------------------------------- verbs layer

void RdmaCheck::MrRegistered(int host, uint64_t addr, uint64_t length, uint32_t lkey,
                             uint32_t rkey, int64_t now_ns) {
  live_mrs_[MrKey(host, rkey)] = MrShadow{addr, length, lkey, now_ns};
  dead_mrs_.erase(MrKey(host, rkey));
}

void RdmaCheck::MrDeregistered(int host, uint32_t lkey, uint32_t rkey, int64_t now_ns) {
  (void)lkey;
  auto it = live_mrs_.find(MrKey(host, rkey));
  if (it == live_mrs_.end()) return;  // Registered before the checker existed.
  dead_mrs_[MrKey(host, rkey)] = DeadMr{it->second.addr, it->second.length, now_ns};
  live_mrs_.erase(it);
}

bool RdmaCheck::CheckTarget(const char* verb, int src_host, int dst_host, uint32_t qp_num,
                            uint64_t wr_id, uint64_t remote_addr, uint64_t length,
                            uint32_t rkey, int64_t now_ns) {
  auto it = live_mrs_.find(MrKey(dst_host, rkey));
  if (it == live_mrs_.end()) {
    auto dead = dead_mrs_.find(MrKey(dst_host, rkey));
    if (dead != dead_mrs_.end()) {
      Emit(DiagKind::kStaleRkey,
           StrCat(verb, " host", src_host, "->host", dst_host, " qp", qp_num, " wr", wr_id,
                  " at t=", now_ns, "ns targets rkey=", rkey,
                  " deregistered at t=", dead->second.deregistered_at_ns,
                  "ns (held across a rebuild?)"),
           src_host, dst_host, qp_num, wr_id, now_ns);
    }
    // An rkey the checker has never seen belongs to an MR registered before
    // installation: not checkable, not reported.
    return false;
  }
  const MrShadow& mr = it->second;
  const bool in_bounds = remote_addr >= mr.addr && length <= mr.length &&
                         remote_addr - mr.addr <= mr.length - length;
  if (!in_bounds) {
    Emit(DiagKind::kOutOfBounds,
         StrCat(verb, " host", src_host, "->host", dst_host, " qp", qp_num, " wr", wr_id,
                " at t=", now_ns, "ns targets [", remote_addr, ", ", remote_addr + length,
                ") outside MR rkey=", rkey, " [", mr.addr, ", ", mr.addr + mr.length, ")"),
         src_host, dst_host, qp_num, wr_id, now_ns);
    return false;
  }
  return true;
}

void RdmaCheck::WritePosted(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                            const std::vector<SgExtentInfo>& extents, uint32_t rkey,
                            int64_t now_ns, bool sg_list) {
  for (const SgExtentInfo& e : extents) {
    sim::OnExploreAccess(dst_host, e.remote_addr, e.remote_addr + e.length);
  }
  const WriteKey key(src_host, qp_num, wr_id);
  auto existing = inflight_.find(key);
  if (existing != inflight_.end()) {
    // Transport retry of the same WR: every extent rewrites from offset 0
    // (the ascending-prefix contract) and the list cursor restarts. No new
    // race window opens — the retry is FIFO-ordered behind the original
    // post on the same QP.
    for (ExtentShadow& e : existing->second.extents) e.delivered = 0;
    existing->second.cursor = 0;
    existing->second.delivered = 0;
    return;
  }
  InflightWrite w;
  w.dst_host = dst_host;
  w.remote_addr = extents.empty() ? 0 : extents.front().remote_addr;
  w.rkey = rkey;
  w.posted_at_ns = now_ns;
  w.extents.reserve(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    const SgExtentInfo& e = extents[i];
    CheckTarget(sg_list ? "RDMA_WRITE(sg)" : "RDMA_WRITE", src_host, dst_host, qp_num, wr_id,
                e.remote_addr, e.length, rkey, now_ns);
    if (e.length > 0) {
      CheckRaces(src_host, dst_host, qp_num, wr_id, e.remote_addr, e.length, now_ns);
    }
    w.length += e.length;
    w.extents.push_back(ExtentShadow{e.remote_addr, e.length, 0});
    if (!sg_list) continue;
    // Flag-in-SG-list: only intra-extent delivery order is guaranteed, so a
    // declared completion flag inside the list is readable before sibling
    // extents land — except as the very last byte of the very last extent,
    // which is exactly the §3.2 tail position.
    for (auto it = flags_.lower_bound({dst_host, e.remote_addr});
         it != flags_.end() && it->first.first == dst_host &&
         it->first.second < e.remote_addr + e.length;
         ++it) {
      const uint64_t flag_addr = it->first.second;
      const bool tail_of_list =
          i + 1 == extents.size() && flag_addr == e.remote_addr + e.length - 1;
      if (tail_of_list) continue;
      Emit(DiagKind::kFlagInSgList,
           StrCat("edge ", it->second.edge_key, " flag at addr=", flag_addr,
                  " rides in SG-WR host", src_host, "->host", dst_host, " qp", qp_num,
                  " wr", wr_id, " extent ", i, " of ", extents.size(), " [", e.remote_addr,
                  ", ", e.remote_addr + e.length, ") at t=", now_ns,
                  "ns — not the final byte of the final extent, so sibling extents land "
                  "after the flag is readable"),
           src_host, dst_host, qp_num, wr_id, now_ns);
    }
  }
  inflight_[key] = std::move(w);
}

void RdmaCheck::CheckRaces(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                           uint64_t remote_addr, uint64_t length, int64_t now_ns) {
  // Remote race: another write to an overlapping range of the same target
  // host is still in flight, and it is not ordered with this one. Same-QP
  // pairs are FIFO-ordered by the engine (one WR in flight per QP); a wire
  // completion removes the record, which is the completion-ordering HB edge.
  for (const auto& [other_key, w] : inflight_) {
    if (w.dst_host != dst_host || w.length == 0) continue;
    const auto& [o_src, o_qp, o_wr] = other_key;
    if (o_src == src_host && o_qp == qp_num) continue;  // FIFO on one QP.
    for (const ExtentShadow& e : w.extents) {
      if (remote_addr >= e.remote_addr + e.length || e.remote_addr >= remote_addr + length) {
        continue;
      }
      Emit(DiagKind::kRemoteRace,
           StrCat("RDMA_WRITE host", src_host, "->host", dst_host, " qp", qp_num, " wr",
                  wr_id, " at t=", now_ns, "ns targets [", remote_addr, ", ",
                  remote_addr + length, ") overlapping in-flight write host", o_src, " qp",
                  o_qp, " wr", o_wr, " [", e.remote_addr, ", ", e.remote_addr + e.length,
                  ") posted at t=", w.posted_at_ns, "ns with no happens-before edge"),
           src_host, dst_host, qp_num, wr_id, now_ns);
      break;
    }
  }
}

void RdmaCheck::WriteSegment(int src_host, uint32_t qp_num, uint64_t wr_id, size_t extent_idx,
                             uint64_t offset, uint64_t length, int64_t now_ns) {
  auto it = inflight_.find(WriteKey(src_host, qp_num, wr_id));
  if (it == inflight_.end()) return;
  InflightWrite& w = it->second;
  if (extent_idx >= w.extents.size()) return;
  ExtentShadow& e = w.extents[extent_idx];
  sim::OnExploreAccess(w.dst_host, e.remote_addr + offset, e.remote_addr + offset + length);
  if (offset != e.delivered) {
    Emit(DiagKind::kNonAscendingSegment,
         StrCat("segment of RDMA_WRITE host", src_host, "->host", w.dst_host, " qp", qp_num,
                " wr", wr_id, " extent ", extent_idx, " landed at offset ", offset, " at t=",
                now_ns, "ns; ascending order expected offset ", e.delivered),
         src_host, w.dst_host, qp_num, wr_id, now_ns);
  }
  if (extent_idx != w.cursor) {
    Emit(DiagKind::kSgExtentOutOfOrder,
         StrCat("segment of RDMA_WRITE host", src_host, "->host", w.dst_host, " qp", qp_num,
                " wr", wr_id, " landed in extent ", extent_idx, " at t=", now_ns,
                "ns; list order expected extent ", w.cursor),
         src_host, w.dst_host, qp_num, wr_id, now_ns);
  }
  const uint64_t landed_to = std::max(e.delivered, offset + length);
  w.delivered += landed_to - e.delivered;
  e.delivered = landed_to;
  while (w.cursor < w.extents.size() &&
         w.extents[w.cursor].delivered >= w.extents[w.cursor].length) {
    ++w.cursor;
  }
  // Landing into a deregistered MR: the registration must outlive the
  // in-flight write, not just the post.
  if (!w.dead_mr_reported && live_mrs_.find(MrKey(w.dst_host, w.rkey)) == live_mrs_.end()) {
    auto dead = dead_mrs_.find(MrKey(w.dst_host, w.rkey));
    if (dead != dead_mrs_.end()) {
      w.dead_mr_reported = true;
      Emit(DiagKind::kUseAfterDeregister,
           StrCat("segment of RDMA_WRITE host", src_host, "->host", w.dst_host, " qp",
                  qp_num, " wr", wr_id, " landed at t=", now_ns, "ns in MR rkey=", w.rkey,
                  " deregistered at t=", dead->second.deregistered_at_ns, "ns"),
           src_host, w.dst_host, qp_num, wr_id, now_ns);
    }
  }
  CoverFlags(w.dst_host, e.remote_addr + offset, length);
}

void RdmaCheck::WriteFinished(int src_host, uint32_t qp_num, uint64_t wr_id, int64_t now_ns) {
  (void)now_ns;
  auto it = inflight_.find(WriteKey(src_host, qp_num, wr_id));
  if (it == inflight_.end()) return;
  for (const ExtentShadow& e : it->second.extents) {
    sim::OnExploreAccess(it->second.dst_host, e.remote_addr, e.remote_addr + e.length);
  }
  inflight_.erase(it);
}

void RdmaCheck::ReadPosted(int src_host, int target_host, uint32_t qp_num, uint64_t wr_id,
                           uint64_t remote_addr, uint64_t length, uint32_t rkey,
                           int64_t now_ns) {
  sim::OnExploreAccess(target_host, remote_addr, remote_addr + length);
  CheckTarget("RDMA_READ", src_host, target_host, qp_num, wr_id, remote_addr, length, rkey,
              now_ns);
}

void RdmaCheck::QpDestroyed(int host, uint32_t qp_num, int64_t now_ns) {
  for (const auto& [key, w] : inflight_) {
    if (std::get<0>(key) != host || std::get<1>(key) != qp_num) continue;
    Emit(DiagKind::kQpDestroyedInFlight,
         StrCat("host", host, " qp", qp_num, " destroyed with wr", std::get<2>(key),
                " in flight (", w.length, " bytes to host", w.dst_host, " addr=",
                w.remote_addr, ")"),
         host, w.dst_host, qp_num, std::get<2>(key), now_ns);
  }
}

// -------------------------------------------------------------- fabric layer

uint64_t RdmaCheck::TransferStarted(int src_host, int dst_host, uint64_t bytes,
                                    int64_t now_ns) {
  (void)bytes;
  (void)now_ns;
  const uint64_t id = next_transfer_id_++;
  transfers_[id] = TransferShadow{src_host, dst_host, 0};
  return id;
}

void RdmaCheck::TransferSegment(uint64_t transfer_id, uint64_t offset, uint64_t length,
                                int64_t now_ns) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  TransferShadow& t = it->second;
  if (offset != t.expected_offset) {
    Emit(DiagKind::kNonAscendingSegment,
         StrCat("fabric segment host", t.src_host, "->host", t.dst_host, " landed at offset ",
                offset, " at t=", now_ns, "ns; ascending order expected offset ",
                t.expected_offset),
         t.src_host, t.dst_host, /*qp_num=*/0, /*wr_id=*/0, now_ns);
  }
  t.expected_offset = std::max(t.expected_offset, offset + length);
}

void RdmaCheck::TransferFinished(uint64_t transfer_id) { transfers_.erase(transfer_id); }

// ----------------------------------------------------------- arena allocator

void RdmaCheck::ArenaBlockAllocated(const void* arena, const std::string& arena_name,
                                    uint64_t offset, size_t bytes) {
  ArenaShadow& shadow = arenas_[arena];
  if (shadow.name.empty()) shadow.name = arena_name;
  shadow.live[offset] = bytes;
}

void RdmaCheck::ArenaBlockFreed(const void* arena, uint64_t offset) {
  auto it = arenas_.find(arena);
  if (it == arenas_.end()) return;
  it->second.live.erase(offset);
}

void RdmaCheck::ArenaDestroyed(const void* arena) {
  auto it = arenas_.find(arena);
  if (it == arenas_.end()) return;
  ArenaShadow shadow = std::move(it->second);
  arenas_.erase(it);
  if (!options_.check_leaks || shadow.live.empty()) return;
  uint64_t bytes = 0;
  for (const auto& [offset, size] : shadow.live) bytes += size;
  std::string first;
  int listed = 0;
  for (const auto& [offset, size] : shadow.live) {
    if (listed++ == 4) {
      first += ", ...";
      break;
    }
    first += StrCat(listed > 1 ? ", " : "", "+", offset, " (", size, "B)");
  }
  Emit(DiagKind::kLeakedArenaBlock,
       StrCat("arena '", shadow.name, "' destroyed with ", shadow.live.size(),
              " live carve-out(s), ", bytes, " bytes un-returned: ", first),
       /*src_host=*/-1, /*dst_host=*/-1, /*qp_num=*/0, /*wr_id=*/0, /*now_ns=*/0);
}

// --------------------------------------------------------- flag-byte shadow

void RdmaCheck::FlagLocation(int dst_host, const void* flag_addr, const std::string& edge_key) {
  FlagShadow& f = flags_[{dst_host, reinterpret_cast<uint64_t>(flag_addr)}];
  f.edge_key = edge_key;
  f.landed = false;
}

void RdmaCheck::FlagSetLocally(int dst_host, const void* flag_addr, int64_t now_ns) {
  (void)now_ns;
  const uint64_t addr = reinterpret_cast<uint64_t>(flag_addr);
  sim::OnExploreAccess(dst_host, addr, addr + 1);
  auto it = flags_.find({dst_host, addr});
  if (it != flags_.end()) {
    it->second.landed = true;
    it->second.polls = 0;  // Progress: the receiver is no longer starved.
  }
}

void RdmaCheck::FlagCleared(int dst_host, const void* flag_addr) {
  const uint64_t addr = reinterpret_cast<uint64_t>(flag_addr);
  sim::OnExploreAccess(dst_host, addr, addr + 1);
  auto it = flags_.find({dst_host, addr});
  if (it != flags_.end()) it->second.landed = false;
}

void RdmaCheck::FlagTrusted(int dst_host, const void* flag_addr, int64_t now_ns) {
  const uint64_t addr = reinterpret_cast<uint64_t>(flag_addr);
  sim::OnExploreAccess(dst_host, addr, addr + 1);
  auto it = flags_.find({dst_host, addr});
  if (it == flags_.end()) return;  // Declared before the checker existed.
  FlagShadow& f = it->second;
  f.polls = 0;
  if (!f.landed) {
    Emit(DiagKind::kPrematureFlagRead,
         StrCat("edge ", f.edge_key, " host", dst_host, " trusted flag at addr=", addr,
                " at t=", now_ns, "ns before any write covering the flag byte landed"),
         /*src_host=*/-1, dst_host, /*qp_num=*/0, /*wr_id=*/0, now_ns);
    return;
  }
  if (f.guard_lo >= f.guard_hi) return;
  // Torn read: the flag byte has landed but some write into the guarded
  // payload range still has undelivered bytes. Only the *undelivered suffix*
  // of each extent counts — a doorbell batch posts every WR at once, and
  // fully-delivered but not-yet-completed writes are not torn.
  for (const auto& [key, w] : inflight_) {
    if (w.dst_host != dst_host) continue;
    for (const ExtentShadow& e : w.extents) {
      const uint64_t lo = e.remote_addr + e.delivered;
      const uint64_t hi = e.remote_addr + e.length;
      if (lo >= hi || lo >= f.guard_hi || f.guard_lo >= hi) continue;
      Emit(DiagKind::kTornRead,
           StrCat("edge ", f.edge_key, " host", dst_host, " trusted flag at addr=", addr,
                  " at t=", now_ns, "ns while write host", std::get<0>(key), " qp",
                  std::get<1>(key), " wr", std::get<2>(key), " into guarded range [",
                  f.guard_lo, ", ", f.guard_hi, ") has ", hi - lo,
                  " undelivered byte(s) at [", lo, ", ", hi, ")"),
           std::get<0>(key), dst_host, std::get<1>(key), std::get<2>(key), now_ns);
      break;
    }
  }
}

void RdmaCheck::FlagForgotten(int dst_host, const void* flag_addr) {
  flags_.erase({dst_host, reinterpret_cast<uint64_t>(flag_addr)});
}

void RdmaCheck::FlagPolled(int dst_host, const void* flag_addr, int64_t now_ns) {
  const uint64_t addr = reinterpret_cast<uint64_t>(flag_addr);
  sim::OnExploreAccess(dst_host, addr, addr + 1);
  auto it = flags_.find({dst_host, addr});
  if (it == flags_.end()) {
    if (!options_.track_polled_flags) return;
    it = flags_.emplace(std::make_pair(dst_host, addr), FlagShadow{}).first;
    it->second.edge_key = "(auto:polled)";
  }
  ++it->second.polls;
  it->second.last_poll_ns = now_ns;
}

void RdmaCheck::FlagGuards(int dst_host, const void* flag_addr, const void* guard_base,
                           uint64_t guard_bytes) {
  auto it = flags_.find({dst_host, reinterpret_cast<uint64_t>(flag_addr)});
  if (it == flags_.end()) return;  // Guards attach to declared flags only.
  it->second.guard_lo = reinterpret_cast<uint64_t>(guard_base);
  it->second.guard_hi = it->second.guard_lo + guard_bytes;
}

void RdmaCheck::CoverFlags(int dst_host, uint64_t addr, uint64_t len) {
  if (len == 0 || flags_.empty()) return;
  auto it = flags_.lower_bound({dst_host, addr});
  for (; it != flags_.end(); ++it) {
    if (it->first.first != dst_host || it->first.second >= addr + len) break;
    it->second.landed = true;
    it->second.polls = 0;  // Progress: the awaited write arrived.
  }
}

// --------------------------------------------------------- stall introspection

std::vector<RdmaCheck::PendingFlag> RdmaCheck::PendingFlags() const {
  std::vector<PendingFlag> pending;
  for (const auto& [key, f] : flags_) {
    if (f.polls == 0) continue;
    PendingFlag p;
    p.host = key.first;
    p.addr = key.second;
    p.edge_key = f.edge_key;
    p.polls = f.polls;
    p.last_poll_ns = f.last_poll_ns;
    pending.push_back(std::move(p));
  }
  return pending;
}

std::vector<RdmaCheck::PendingWrite> RdmaCheck::PendingWrites() const {
  std::vector<PendingWrite> pending;
  for (const auto& [key, w] : inflight_) {
    PendingWrite p;
    p.src_host = std::get<0>(key);
    p.qp_num = std::get<1>(key);
    p.wr_id = std::get<2>(key);
    p.dst_host = w.dst_host;
    p.remote_addr = w.remote_addr;
    p.length = w.length;
    p.delivered = w.delivered;
    p.posted_at_ns = w.posted_at_ns;
    pending.push_back(p);
  }
  return pending;
}

// ------------------------------------------------------------------ teardown

const std::vector<Diagnostic>& RdmaCheck::Finalize() {
  if (finalized_) return diagnostics_;
  finalized_ = true;
  if (options_.check_leaks) {
    for (const auto& [key, mr] : live_mrs_) {
      Emit(DiagKind::kLeakedMemoryRegion,
           StrCat("host", key.first, " MR rkey=", key.second, " lkey=", mr.lkey, " [",
                  mr.addr, ", ", mr.addr + mr.length, ") registered at t=",
                  mr.registered_at_ns, "ns never deregistered"),
           /*src_host=*/-1, key.first, /*qp_num=*/0, /*wr_id=*/0, mr.registered_at_ns);
    }
  }
  return diagnostics_;
}

int RdmaCheck::count(DiagKind kind) const {
  int n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.kind == kind) ++n;
  }
  return n;
}

std::string RdmaCheck::Report() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += StrCat("[", DiagKindName(d.kind), "] ", d.message, "\n");
  }
  return out;
}

}  // namespace check
}  // namespace rdmadl
