// TransferMechanism: how tensors cross process boundaries.
//
// One mechanism instance coordinates *both ends* of every cross-device edge
// of a distributed graph (it holds per-edge state such as preallocated
// receive buffers and distributed remote addresses). Implementations:
//
//   comm::RpcMechanism           — the gRPC baselines: one RPC stack
//                                  (serialize + ring-buffer copies) over the
//                                  plane it is given — net::Plane::kTcp for
//                                  gRPC.TCP, net::Plane::kRdma for gRPC.RDMA
//                                  (verbs transport, still copies+serializes).
//   comm::ZeroCopyRdmaMechanism  — the paper's mechanism: static placement
//                                  (§3.2), dynamic allocation (§3.3), graph-
//                                  analyzer integration (§3.4), optional
//                                  sender-copy mode (RDMA.cp) and GPUDirect
//                                  (§3.5).
#ifndef RDMADL_SRC_RUNTIME_TRANSFER_H_
#define RDMADL_SRC_RUNTIME_TRANSFER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/graph/partition.h"
#include "src/runtime/host_runtime.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace rdmadl {
namespace runtime {

// What one polling-async _Recv poll reads (§4). A polled edge's mechanism
// owns one RecvSlot and keeps |state| current; the executor tests PollIdle()
// inline, so a poll that can find nothing costs a byte load instead of a
// mechanism call. Only a poll that is not idle enters TryRecv.
struct RecvSlot {
  enum State : uint8_t {
    kFlag,   // Waiting for the sender: the poll reads the flag byte.
    kBusy,   // Arrival seen, the receive is still in progress (read, staging).
    kReady,  // The tensor is ready to be consumed.
  };
  State state = kFlag;
  const uint8_t* flag = nullptr;  // The completion flag byte (always real memory).
  HostRuntime* host = nullptr;    // The receiving host.

  // True when a poll finds nothing: the receive is in progress, or the flag
  // byte is still zero. The premature-flag-trust mutation acts on a zero
  // flag, so an armed mutation makes every kFlag poll non-idle.
  bool Idle() const {
    if (state != kFlag) return state == kBusy;
    return *flag == 0 && !check::MutationEnabled(check::kPrematureFlagTrust);
  }
  // One poll's idle test plus the checker hook a failed flag poll owes: a
  // kFlag miss is reported as a read of the zero flag byte. Returns Idle().
  bool PollIdle() const {
    if (!Idle()) return false;
    if (state == kFlag) {
      check::OnFlagPolled(host->endpoint().host_id, flag, host->simulator()->Now());
    }
    return true;
  }
};

class TransferMechanism {
 public:
  virtual ~TransferMechanism() = default;
  virtual std::string name() const = 0;

  // One-time setup after partitioning and shape inference: preallocates
  // receive-side buffers and distributes their addresses (§3.2/§3.3 setup
  // phase, which runs over the device library's vanilla RPC and is off the
  // critical path). |done| fires in virtual time.
  virtual void Setup(const std::vector<graph::TransferEdge>& edges,
                     std::function<void(Status)> done) = 0;

  // Step boundary hook (step index is 0-based).
  virtual void BeginStep(int64_t step) {}

  // Executes a _Send node: ships |tensor| toward the edge's receiver.
  // Returns the synchronous CPU nanoseconds consumed on the calling executor
  // worker (serialization, staging copies, verb posting); the transfer itself
  // proceeds asynchronously and |on_sent| fires when the send completes
  // locally.
  virtual int64_t Send(const graph::TransferEdge& edge, const tensor::Tensor& tensor,
                       std::function<void(Status)> on_sent) = 0;

  // How _Recv nodes of |edge| complete. A flag-byte mechanism returns the
  // edge's RecvSlot (valid once Setup has completed, owned by the mechanism)
  // and the executor polls it under the polling-async scheduling of §4. A
  // message-based mechanism returns null and completes the receive through
  // RecvAsync (TF's RPC rendezvous).
  virtual const RecvSlot* recv_slot(const graph::TransferEdge& edge) const { return nullptr; }

  // Polled edges only: one poll attempt, applying the same RecvSlot::PollIdle()
  // rule first (the executor calls it only for a poll that is not idle). On
  // success fills |out| (consuming the arrival, i.e. clearing the flag) and
  // returns true.
  virtual bool TryRecv(const graph::TransferEdge& edge, tensor::Tensor* out) {
    return false;
  }

  // Async edges only: registers the one-shot arrival callback for this step.
  virtual void RecvAsync(const graph::TransferEdge& edge,
                         std::function<void(const Status&, tensor::Tensor)> done) {}

  // ---- Graph-analyzer integration (§3.4); no-ops for RPC baselines ----

  // Which allocator node |node| on |host| should allocate its output from.
  virtual tensor::Allocator* AllocatorForNode(HostRuntime* host, const graph::Node& node,
                                              tensor::Allocator* default_allocator) {
    return default_allocator;
  }
  // Allocation-site tracing hooks, driven by the executor.
  virtual void OnNodeBegin(HostRuntime* host, const graph::Node& node) {}
  virtual void OnAllocation(HostRuntime* host, const graph::Node& node, const void* ptr,
                            size_t bytes) {}
};

}  // namespace runtime
}  // namespace rdmadl

#endif  // RDMADL_SRC_RUNTIME_TRANSFER_H_
