#include "src/net/topology.h"

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace net {

Topology::Topology(const TopologyConfig& config, int num_hosts, const sim::Simulator* clock)
    : config_(config) {
  CHECK_GT(config.hosts_per_rack, 0);
  CHECK_GT(config.oversubscription, 0.0);
  num_racks_ = (num_hosts + config.hosts_per_rack - 1) / config.hosts_per_rack;
  const int spine_count = config.spine_links > 0 ? config.spine_links : num_racks_;
  rack_up_.reserve(num_racks_);
  rack_down_.reserve(num_racks_);
  for (int r = 0; r < num_racks_; ++r) {
    rack_up_.emplace_back(StrCat("rack", r, ".uplink"), clock);
    rack_down_.emplace_back(StrCat("rack", r, ".downlink"), clock);
  }
  spine_.reserve(spine_count);
  for (int s = 0; s < spine_count; ++s) {
    spine_.emplace_back(StrCat("spine", s), clock);
  }
}

int Topology::PathHops(int src, int dst, Hop hops[3]) {
  const int src_rack = rack_of(src);
  const int dst_rack = rack_of(dst);
  if (src_rack == dst_rack) return 0;
  hops[0].link = &rack_up_[src_rack];
  hops[1].link = &spine_[spine_index(src_rack, dst_rack)];
  hops[2].link = &rack_down_[dst_rack];
  return 3;
}

int Topology::spine_index(int src_rack, int dst_rack) const {
  const uint64_t h = static_cast<uint64_t>(src_rack) * 0x9E3779B97F4A7C15ull +
                     static_cast<uint64_t>(dst_rack) * 0xBF58476D1CE4E5B9ull;
  return static_cast<int>(h % spine_.size());
}

}  // namespace net
}  // namespace rdmadl
