// MembershipService: a virtual-time lease/heartbeat failure detector that
// converts fail-stop crashes (sim::FaultInjector::CrashHost) into *confirmed*
// membership changes with a bounded detection latency.
//
// Topology: the alive members form a sorted ring; each member probes its ring
// successor with a MiniRPC ping ("member/ping") over a small dedicated
// RdmaDevice bound to its own control port, so detector traffic rides the
// same simulated fabric (and suffers the same drops, spikes and crashes) as
// training traffic while keeping the message load linear in cluster size.
//
// Leases are *deadline driven*: an RPC call to a crashed host never completes
// (the fabric refuses the transfer and the send eventually flushes), so the
// detector arms an expiry event per probe instead of waiting for an error
// callback. A probe whose pong arrives before the deadline renews the lease;
// kMissedLeasesToConfirm consecutive expiries confirm the target dead and
// fire the on_death callback (the constants live in membership.cc).
//
// False-positive guarantee: a probe only counts as missed when its round trip
// exceeds kLeaseTimeoutNs. Latency spikes (or drop-triggered transport
// retransmissions) that keep the RTT under the lease timeout therefore never
// cause even a suspicion — the property test sweeps seeds over spiky links to
// pin this down.
//
// Fail-stop modeling: the simulator keeps executing every member's scheduled
// closures even after its host crashes, but a real crashed process stops
// running. Each member therefore checks its *own* liveness against the fault
// injector before acting and goes silent when dead. This is the only injector
// query the detector makes — live members never consult the oracle about
// anyone else; they must earn detection through missed leases.
#ifndef RDMADL_SRC_CONTROL_MEMBERSHIP_H_
#define RDMADL_SRC_CONTROL_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/device/rdma_device.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace rdmadl {
namespace control {

enum class MemberState { kAlive, kSuspected, kDead };

struct MembershipStats {
  int64_t probes_sent = 0;
  int64_t pongs_received = 0;
  int64_t missed_leases = 0;
  int64_t suspicions = 0;
  int64_t suspicions_cleared = 0;
  int64_t deaths_confirmed = 0;
};

class MembershipService {
 public:
  // One detector endpoint per monitored machine id in |hosts|.
  static StatusOr<std::unique_ptr<MembershipService>> Create(
      device::DeviceDirectory* directory, const std::vector<int>& hosts);
  ~MembershipService();

  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  // Arms the first probe for every member. Idempotent.
  void Start();

  // Pause() invalidates every in-flight probe/lease closure (epoch guard) so
  // a full simulator drain terminates; Resume() re-arms probes for the alive
  // members. The elastic driver brackets its quiesce/reconfigure window with
  // these.
  void Pause();
  void Resume();

  MemberState state(int host) const;
  bool any_dead() const;
  std::vector<int> alive_hosts() const;
  std::vector<int> dead_hosts() const;
  // Virtual time the death of |host| was confirmed, -1 while alive.
  int64_t confirmed_dead_at_ns(int host) const;

  // Worst-case virtual time from a crash to its confirmation: the remainder
  // of the in-flight probe cycle, then one full cycle per required miss, plus
  // the final lease expiry.
  int64_t detection_bound_ns() const;

  // Invoked at most once per member, at confirmation time.
  void set_on_death(std::function<void(int host, int64_t now_ns)> cb) {
    on_death_ = std::move(cb);
  }

  const MembershipStats& stats() const { return stats_; }

 private:
  struct Member {
    int host = -1;
    Endpoint endpoint;
    std::unique_ptr<device::RdmaDevice> device;
    MemberState state = MemberState::kAlive;
    int missed = 0;               // Consecutive missed leases (as a target).
    uint64_t probe_seq = 0;       // Last probe id sent (as a monitor).
    uint64_t last_pong_seq = 0;   // Highest probe id answered (as a monitor).
    int64_t confirmed_dead_at_ns = -1;
  };

  explicit MembershipService(device::DeviceDirectory* directory);

  // The crashed-process-stops-executing rule (see file comment).
  bool SelfDead(int host) const;
  // Next alive member after |host| on the id-sorted ring; |host| itself when
  // it is the only survivor.
  int SuccessorOf(int host) const;
  void ArmProbe(int monitor, int64_t delay_ns);
  void SendProbe(int monitor);
  void OnLeaseExpiry(int monitor, int target, uint64_t seq);
  void ConfirmDead(int target);

  device::DeviceDirectory* directory_;
  sim::Simulator* simulator_ = nullptr;
  std::map<int, Member> members_;  // Ordered: probe scheduling is deterministic.
  MembershipStats stats_;
  std::function<void(int, int64_t)> on_death_;
  bool started_ = false;
  bool paused_ = false;
  // Bumped by Pause()/Resume(); scheduled closures from older epochs no-op.
  uint64_t epoch_ = 0;
};

}  // namespace control
}  // namespace rdmadl

#endif  // RDMADL_SRC_CONTROL_MEMBERSHIP_H_
