#include "src/runtime/executor.h"

#include <algorithm>
#include <utility>

#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace runtime {

using graph::Node;
using tensor::Tensor;

Executor::Executor(HostRuntime* host, const graph::Graph* graph, TransferMechanism* mechanism,
                   const std::unordered_map<std::string, graph::TransferEdge>& edges_by_key,
                   ExecutorOptions options)
    : host_(host), graph_(graph), mechanism_(mechanism), options_(options) {
  CHECK_GT(options_.num_workers, 0);
  kernels_.resize(graph->num_nodes());
  total_deps_.resize(graph->num_nodes(), 0);
  edge_of_node_.resize(graph->num_nodes(), nullptr);
  kind_.resize(graph->num_nodes(), NodeKind::kCompute);
  slot_of_node_.resize(graph->num_nodes(), nullptr);
  ready_.resize(graph->num_nodes());
  for (const auto& node : graph->nodes()) {
    total_deps_[node->id()] =
        static_cast<int>(node->inputs().size() + node->control_inputs().size());
    if (node->op() == "_Send" || node->op() == "_Recv") {
      // Resolve the rendezvous key once, not per dispatch.
      const std::string key = node->GetAttr<std::string>("tensor_name");
      auto it = edges_by_key.find(key);
      CHECK(it != edges_by_key.end()) << "unknown transfer edge " << key;
      edge_of_node_[node->id()] = &it->second;
      kind_[node->id()] = node->op() == "_Send" ? NodeKind::kSend : NodeKind::kRecv;
      continue;
    }
    auto kernel = ops::KernelRegistry::Global()->Create(*node);
    CHECK(kernel.ok()) << kernel.status();
    kernels_[node->id()] = std::move(kernel).value();
  }
}

Executor::~Executor() {
  for (tensor::TracingAllocator* wrapper : hooked_wrappers_) {
    wrapper->set_alloc_hook(nullptr);
  }
}

void Executor::ResolveRecvSlots() {
  for (const auto& node : graph_->nodes()) {
    if (kind_[node->id()] != NodeKind::kRecv) continue;
    const RecvSlot* slot = mechanism_->recv_slot(EdgeOf(*node));
    if (slot == nullptr) continue;
    slot_of_node_[node->id()] = slot;
    kind_[node->id()] = NodeKind::kPolledRecv;
  }
}

tensor::Allocator* Executor::Wrap(tensor::Allocator* base) {
  tensor::TracingAllocator* wrapper = host_->tracing_allocator(base);
  if (std::find(hooked_wrappers_.begin(), hooked_wrappers_.end(), wrapper) ==
      hooked_wrappers_.end()) {
    wrapper->set_alloc_hook([this](void* ptr, size_t bytes) {
      if (current_node_ != nullptr) {
        mechanism_->OnAllocation(host_, *current_node_, ptr, bytes);
      }
    });
    hooked_wrappers_.push_back(wrapper);
  }
  return wrapper;
}

int64_t Executor::CostOf(const Node& node) const {
  const double per_sample_ns = node.GetAttrOr<double>("cost_ns", 0.0);
  double multiplier = options_.batch_multiplier;
  // Straggler knob: a chaos-configured host runs its compute slower by the
  // fault injector's per-host dilation factor (1.0 everywhere when the knob
  // is off, so the arithmetic below is unchanged byte for byte).
  const sim::FaultInjector* injector =
      host_->rdma_device()->nic()->fabric()->fault_injector();
  if (injector != nullptr && injector->stragglers_configured()) {
    multiplier *= injector->ComputeDilation(host_->rdma_device()->nic()->host_id());
  }
  return options_.op_dispatch_ns + static_cast<int64_t>(per_sample_ns * multiplier);
}

const graph::TransferEdge& Executor::EdgeOf(const Node& node) const {
  const graph::TransferEdge* edge = edge_of_node_[node.id()];
  CHECK(edge != nullptr) << "node " << node.name() << " is not a transfer op";
  return *edge;
}

void Executor::RunStepAsync(const std::unordered_map<std::string, Tensor>* feeds,
                            std::function<void(Status)> on_done) {
  CHECK(!in_flight_) << "step already running on " << host_->device_name();
  ++epoch_;
  in_flight_ = true;
  feeds_ = feeds;
  on_done_ = std::move(on_done);
  outputs_.assign(graph_->num_nodes(), Tensor());
  pending_ = total_deps_;
  ready_head_ = 0;
  ready_count_ = 0;
  remaining_ = graph_->num_nodes();
  free_workers_ = options_.num_workers;
  failed_ = false;
  failed_polls_in_row_ = 0;
  delayed_kick_scheduled_ = false;  // A kick from an aborted step is stale.
  poll_interval_ns_ = host_->cost().idle_poll_interval_ns;
  for (const auto& node : graph_->nodes()) {
    if (pending_[node->id()] == 0) PushReady(node.get());
  }
  if (remaining_ == 0) {
    const uint64_t epoch = epoch_;
    host_->simulator()->ScheduleAfter(0, [this, epoch]() {
      if (epoch != epoch_) return;
      in_flight_ = false;
      auto done = std::move(on_done_);
      done(OkStatus());
    });
    return;
  }
  MaybeDispatch();
}

void Executor::Abort(const Status& status) {
  if (!in_flight_) return;
  ++epoch_;  // Invalidate every scheduled event of the aborted step.
  failed_ = true;
  in_flight_ = false;
  ready_count_ = 0;
  auto done = std::move(on_done_);
  if (done) done(status);
}

const Tensor* Executor::OutputOf(const Node* node) const {
  if (node == nullptr || node->id() >= static_cast<int>(outputs_.size())) return nullptr;
  return &outputs_[node->id()];
}

const Tensor* Executor::OutputOf(const std::string& node_name) const {
  return OutputOf(graph_->FindNode(node_name));
}

void Executor::PushReady(Node* node) {
  size_t tail = ready_head_ + ready_count_;
  if (tail >= ready_.size()) tail -= ready_.size();
  ready_[tail] = node;
  ++ready_count_;
}

void Executor::PopReady() {
  if (++ready_head_ == ready_.size()) ready_head_ = 0;
  --ready_count_;
}

void Executor::MaybeDispatch() {
  while (!failed_ && ready_count_ > 0) {
    // Polling-async fairness/livelock guard (§4): when every queued node is a
    // poll that already failed this pass, yield and retry after the (backed-
    // off) poll interval instead of spinning at the current instant.
    if (failed_polls_in_row_ >= static_cast<int>(ready_count_)) {
      if (!delayed_kick_scheduled_) {
        delayed_kick_scheduled_ = true;
        const uint64_t epoch = epoch_;
        host_->simulator()->ScheduleAfter(poll_interval_ns_, [this, epoch]() {
          if (epoch != epoch_) return;
          delayed_kick_scheduled_ = false;
          failed_polls_in_row_ = 0;
          // Exponential backoff while nothing arrives (see CostModel).
          poll_interval_ns_ =
              std::min(poll_interval_ns_ * 2, host_->cost().idle_poll_max_interval_ns);
          MaybeDispatch();
        });
      }
      return;
    }
    Node* node = ready_[ready_head_];
    // Polling receives are handled inline by the scheduler's polling pass and
    // do not consume an executor worker: a poll attempt is ~100 ns, and a
    // failed one re-enqueues the node at the tail of the ready queue. An idle
    // poll is decided here from the edge's RecvSlot, without a mechanism call.
    if (kind_[node->id()] == NodeKind::kPolledRecv) {
      PopReady();
      ++stats_.poll_attempts;
      if (slot_of_node_[node->id()]->PollIdle()) {
        FailPoll(node);
      } else {
        PollRecv(node);
      }
      continue;
    }
    if (free_workers_ == 0) return;
    PopReady();
    --free_workers_;
    StartNode(node);
  }
}

void Executor::StartNode(Node* node) {
  switch (kind_[node->id()]) {
    case NodeKind::kSend:
      StartSend(node);
      break;
    case NodeKind::kRecv:
      StartRecv(node);
      break;
    default:
      failed_polls_in_row_ = 0;
      StartCompute(node);
      break;
  }
}

void Executor::StartCompute(Node* node) {
  ++stats_.nodes_executed;
  mechanism_->OnNodeBegin(host_, *node);

  std::vector<Tensor> inputs;
  inputs.reserve(node->inputs().size());
  for (const graph::NodeInput& in : node->inputs()) {
    inputs.push_back(outputs_[in.node->id()]);
  }
  tensor::Allocator* base =
      mechanism_->AllocatorForNode(host_, *node, host_->default_allocator());
  current_node_ = node;
  ops::OpKernelContext ctx(node, std::move(inputs), Wrap(base), host_->mode(),
                           host_->resources(), feeds_);
  Status status = kernels_[node->id()]->Compute(&ctx);
  current_node_ = nullptr;
  if (!status.ok()) {
    FailStep(Status(status.code(),
                    StrCat(node->name(), " (", node->op(), "): ", status.message())));
    return;
  }
  Tensor output = ctx.output();
  const int64_t cost = CostOf(*node);
  if (options_.serialize_compute && cost > options_.op_dispatch_ns) {
    // The kernel runs on the accelerator: reserve device time, free the
    // dispatching CPU worker after the launch overhead.
    const int64_t done_at = host_->compute_unit()->Reserve(
        host_->simulator()->Now() + options_.op_dispatch_ns, cost - options_.op_dispatch_ns);
    if (sim::Tracer::Current() != nullptr) {
      sim::TraceSpan(host_->device_name() + " compute", node->name(),
                     done_at - (cost - options_.op_dispatch_ns), done_at);
    }
    const uint64_t epoch = epoch_;
    host_->simulator()->ScheduleAfter(options_.op_dispatch_ns, [this, epoch]() {
      if (epoch != epoch_) return;
      ReleaseWorker();
    });
    host_->simulator()->ScheduleAt(done_at, [this, node, output, epoch]() {
      if (epoch != epoch_) return;
      FinishNode(node, output);
    });
    return;
  }
  const uint64_t epoch = epoch_;
  host_->simulator()->ScheduleAfter(cost, [this, node, output, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
    FinishNode(node, output);
  });
}

void Executor::StartSend(Node* node) {
  failed_polls_in_row_ = 0;
  ++stats_.nodes_executed;
  const graph::TransferEdge& edge = EdgeOf(*node);
  Tensor tensor = outputs_[node->inputs()[0].node->id()];
  const int64_t send_start = host_->simulator()->Now();
  const uint64_t epoch = epoch_;
  const int64_t sync_cost =
      mechanism_->Send(edge, tensor, [this, node, tensor, send_start, &edge, epoch](Status status) {
        if (epoch != epoch_) return;
        if (!status.ok()) {
          FailStep(status);
          return;
        }
        if (sim::Tracer::Current() != nullptr) {
          sim::TraceSpan(host_->device_name() + " send", edge.key, send_start,
                         host_->simulator()->Now());
        }
        FinishNode(node, tensor);
      });
  host_->simulator()->ScheduleAfter(options_.op_dispatch_ns + sync_cost, [this, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
  });
}

void Executor::StartRecv(Node* node) {
  ++stats_.nodes_executed;
  failed_polls_in_row_ = 0;
  const graph::TransferEdge& edge = EdgeOf(*node);
  const uint64_t epoch = epoch_;
  mechanism_->RecvAsync(edge, [this, node, epoch](const Status& status, Tensor tensor) {
    if (epoch != epoch_) return;
    if (!status.ok()) {
      FailStep(status);
      return;
    }
    FinishNode(node, std::move(tensor));
  });
  host_->simulator()->ScheduleAfter(options_.op_dispatch_ns, [this, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
  });
}

void Executor::PollRecv(Node* node) {
  Tensor received;
  if (!mechanism_->TryRecv(EdgeOf(*node), &received)) {
    FailPoll(node);
    return;
  }
  ++stats_.nodes_executed;
  failed_polls_in_row_ = 0;
  poll_interval_ns_ = host_->cost().idle_poll_interval_ns;
  // Clear-flag + dependent activation cost, then complete.
  const uint64_t epoch = epoch_;
  host_->simulator()->ScheduleAfter(
      host_->cost().flag_poll_cost_ns, [this, node, received, epoch]() {
        if (epoch != epoch_) return;
        FinishNode(node, received);
      });
}

void Executor::FailPoll(Node* node) {
  // Failed poll: back to the tail of the ready queue, synchronously (§4).
  ++stats_.failed_polls;
  ++failed_polls_in_row_;
  PushReady(node);
}

void Executor::FinishNode(Node* node, Tensor output) {
  if (failed_) return;
  outputs_[node->id()] = std::move(output);
  for (Node* consumer : node->consumers()) {
    if (--pending_[consumer->id()] == 0) {
      PushReady(consumer);
      failed_polls_in_row_ = 0;
    }
  }
  if (--remaining_ == 0) {
    in_flight_ = false;
    ++stats_.steps;
    auto done = std::move(on_done_);
    done(OkStatus());
    return;
  }
  MaybeDispatch();
}

void Executor::FailStep(const Status& status) {
  if (failed_) return;
  failed_ = true;
  in_flight_ = false;
  auto done = std::move(on_done_);
  done(status);
}

void Executor::ReleaseWorker() {
  ++free_workers_;
  if (!failed_) MaybeDispatch();
}

}  // namespace runtime
}  // namespace rdmadl
