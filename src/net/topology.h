// Two-level rack/spine fabric topology.
//
// The flat fabric models a single non-blocking switch: every host's egress
// and ingress ports are the only serialization points, and the plane's
// one-way latency covers the single switch traversal. TopologyConfig
// generalizes this to the classic datacenter shape: |hosts_per_rack| hosts
// share a top-of-rack (ToR) switch whose uplink into the spine carries
// hosts_per_rack / oversubscription host-ports worth of bandwidth, and racks
// are joined through spine links. The shared links are net::Link
// serialization points exactly like host ports, so inter-rack traffic
// contends for rack-uplink and spine capacity — the oversubscription tail
// effects a full-bisection fabric cannot show.
//
// The default config (hosts_per_rack == 0) is flat: Fabric behaves — to the
// byte — exactly as it did before this subsystem existed, so every existing
// figure and bench is unchanged unless a topology is asked for.
#ifndef RDMADL_SRC_NET_TOPOLOGY_H_
#define RDMADL_SRC_NET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "src/net/fabric.h"

namespace rdmadl {
namespace net {

struct TopologyConfig {
  // Hosts per top-of-rack switch. 0 (the default) means flat full-bisection:
  // no racks, no shared links, byte-identical to pre-topology behavior.
  int hosts_per_rack = 0;
  // Ratio of rack-internal host bandwidth to rack-uplink bandwidth. 1.0 is a
  // non-blocking uplink; 4.0 means e.g. 32 hosts share 8 host-ports worth of
  // uplink. Must be > 0 when hierarchical.
  double oversubscription = 1.0;
  // Extra latency per additional switch traversal. An inter-rack path crosses
  // two more switches than the flat model's one, so it pays 2x this on top of
  // the plane's one-way latency.
  int64_t per_hop_latency_ns = 250;
  // Number of spine links joining the racks. 0 (the default) means one per
  // rack, i.e. a spine whose aggregate capacity grows with the cluster.
  int spine_links = 0;

  // ---- In-network (NetReduce-style) reduction stage --------------------
  // When true, the ToR switches carry streaming reduction engines and the
  // spine carries an aggregation engine: hosts stream contributions up their
  // rack, each ToR folds its rack's streams into one partial, partials cross
  // the rack uplinks to the spine aggregator, and the global result streams
  // back down every rack. Fabric constructs a SwitchReduceStage; the
  // collective layer drives it (Algorithm::kInNetwork).
  bool switch_reduce = false;
  // Streaming ALU rate of one reduction engine (per ToR, and the spine
  // aggregator). Tofino-class switches reduce at line rate; the default sits
  // above host reduce_bytes_per_sec so the switch is never the bottleneck.
  double switch_reduce_bytes_per_sec = 50.0e9;
  // Per-round SRAM aggregation window: one in-network round reduces at most
  // this many bytes (larger tensors are chunked into sequential rounds by
  // the caller, modeling the switch's limited on-chip aggregation memory).
  uint64_t switch_reduce_window_bytes = 256 * 1024;
  // Fixed per-round latency of one reduction engine (pipeline fill).
  int64_t switch_engine_latency_ns = 150;

  // ---- Congestion model ------------------------------------------------
  // Bounded queues / ECN / PFC / DCQCN knobs (src/net/congestion.h). The
  // all-zero default disables every mechanism. Applies to flat fabrics too:
  // incast is a host-ingress pathology and needs no racks, so Fabric
  // configures host ports from this regardless of hierarchical().
  CongestionConfig congestion;

  bool hierarchical() const { return hosts_per_rack > 0; }
};

// Owns the shared links of a two-level fabric and answers routing queries.
// Constructed by Fabric when its TopologyConfig is hierarchical; host ports
// stay owned by net::Host, this class owns only the rack/spine tier.
class Topology {
 public:
  // |clock| is handed to every shared link (see Link).
  Topology(const TopologyConfig& config, int num_hosts, const sim::Simulator* clock = nullptr);

  int num_racks() const { return num_racks_; }
  int num_spine_links() const { return static_cast<int>(spine_.size()); }
  int rack_of(int host) const { return host / config_.hosts_per_rack; }

  // Bandwidth of a shared (rack-uplink / spine) link relative to a single
  // host port: hosts_per_rack / oversubscription host-ports worth.
  double shared_bandwidth_scale() const {
    return config_.hosts_per_rack / config_.oversubscription;
  }

  // Extra one-way latency of the src->dst path relative to the flat model:
  // zero within a rack, two additional switch traversals across racks.
  int64_t ExtraLatencyNs(int src, int dst) const {
    return rack_of(src) == rack_of(dst) ? 0 : 2 * config_.per_hop_latency_ns;
  }

  struct Hop {
    Link* link = nullptr;
  };
  // Fills |hops| with the shared serialization points on the src->dst path in
  // traversal order (rack uplink, spine link, rack downlink) and returns the
  // hop count: 0 intra-rack, 3 inter-rack.
  int PathHops(int src, int dst, Hop hops[3]);

  // Deterministic ECMP-style spine selection: a given rack pair always takes
  // the same spine link (flow affinity keeps the simulation reproducible),
  // while distinct pairs scatter across the spine.
  int spine_index(int src_rack, int dst_rack) const;

  Link* rack_uplink(int rack) { return &rack_up_[rack]; }
  Link* rack_downlink(int rack) { return &rack_down_[rack]; }
  Link* spine_link(int i) { return &spine_[i]; }
  const TopologyConfig& config() const { return config_; }

 private:
  TopologyConfig config_;
  int num_racks_ = 0;
  std::vector<Link> rack_up_;
  std::vector<Link> rack_down_;
  std::vector<Link> spine_;
};

}  // namespace net
}  // namespace rdmadl

#endif  // RDMADL_SRC_NET_TOPOLOGY_H_
