#include "cluster/topology.h"

#include <stdexcept>

#include "trace/profile.h"

namespace adapt::cluster {

void assign_domains(std::vector<NodeSpec>& nodes,
                    const DomainLayout& layout) {
  if (!layout.enabled()) return;
  if (layout.racks_per_site == 0) {
    throw std::invalid_argument("assign_domains: racks_per_site must be > 0");
  }
  const std::uint32_t racks = layout.rack_count();
  if (racks > nodes.size()) {
    throw std::invalid_argument("assign_domains: more racks than nodes");
  }
  // Contiguous split: rack r holds nodes [r*n/R, (r+1)*n/R), so every
  // rack gets floor(n/R) or ceil(n/R) members.
  const std::size_t n = nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto rack = static_cast<std::uint32_t>(
        (i * racks) / n);
    nodes[i].rack = rack;
    nodes[i].site = rack / layout.racks_per_site;
  }
}

std::vector<avail::InterruptionParams> Cluster::params() const {
  std::vector<avail::InterruptionParams> out;
  out.reserve(nodes.size());
  for (const NodeSpec& n : nodes) {
    out.push_back(n.interruptible() ? n.observed_params()
                                    : avail::InterruptionParams{});
  }
  return out;
}

Network::Config Cluster::network_config() const {
  Network::Config config;
  config.uplink_bps.reserve(nodes.size());
  config.downlink_bps.reserve(nodes.size());
  for (const NodeSpec& node : nodes) {
    config.uplink_bps.push_back(node.uplink_bps);
    config.downlink_bps.push_back(node.downlink_bps);
  }
  config.origin_uplink_bps = origin_uplink_bps;
  config.fifo_admission = fifo_uplinks;
  return config;
}

const std::vector<AvailabilityGroup>& table2_groups() {
  static const std::vector<AvailabilityGroup> groups = {
      {10.0, 4.0},
      {10.0, 8.0},
      {20.0, 4.0},
      {20.0, 8.0},
  };
  return groups;
}

Cluster emulated_cluster(const EmulationConfig& config) {
  if (config.node_count == 0) {
    throw std::invalid_argument("emulated_cluster: need nodes");
  }
  if (config.interrupted_ratio < 0 || config.interrupted_ratio > 1) {
    throw std::invalid_argument("emulated_cluster: ratio must be in [0,1]");
  }

  Cluster cluster;
  cluster.nodes.resize(config.node_count);

  const auto& groups = table2_groups();
  const std::size_t interrupted = static_cast<std::size_t>(
      static_cast<double>(config.node_count) * config.interrupted_ratio +
      0.5);

  for (std::size_t i = 0; i < config.node_count; ++i) {
    NodeSpec& node = cluster.nodes[i];
    node.uplink_bps = config.bandwidth_bps;
    node.downlink_bps = config.bandwidth_bps;
    if (i < interrupted) {
      // Interrupted nodes are "divided evenly into four groups".
      const AvailabilityGroup& g = groups[i % groups.size()];
      node.mode = AvailabilityMode::kModel;
      node.params = {1.0 / g.mtbi, g.mean_service};
      node.arrival_clock = config.absolute_arrival_clock
                               ? ArrivalClock::kAbsoluteTime
                               : ArrivalClock::kUptime;
      node.service_time = avail::exponential(g.mean_service);
    } else {
      node.mode = AvailabilityMode::kAlwaysUp;
    }
  }
  return cluster;
}

Cluster trace_cluster(const trace::Trace& trace,
                      const TraceClusterConfig& config) {
  if (trace.node_count == 0) {
    throw std::invalid_argument("trace_cluster: empty trace");
  }

  Cluster cluster;
  cluster.block_size_bytes = config.block_size_bytes;
  cluster.replay_horizon = trace.horizon;
  cluster.fifo_uplinks = config.fifo_uplinks;
  cluster.nodes.resize(trace.node_count);

  const auto params = trace::extract_params(trace);
  auto intervals = trace::extract_down_intervals(trace);

  for (std::size_t i = 0; i < trace.node_count; ++i) {
    NodeSpec& node = cluster.nodes[i];
    node.uplink_bps = config.bandwidth_bps;
    node.downlink_bps = config.bandwidth_bps;
    if (intervals[i].empty()) {
      node.mode = AvailabilityMode::kAlwaysUp;
    } else {
      node.mode = AvailabilityMode::kReplay;
      node.params = params[i];
      node.down_intervals = std::move(intervals[i]);
    }
  }
  cluster.domains = config.domains;
  assign_domains(cluster.nodes, cluster.domains);
  return cluster;
}

Cluster model_cluster(const std::vector<avail::InterruptionParams>& params,
                      const TraceClusterConfig& config) {
  if (params.empty()) {
    throw std::invalid_argument("model_cluster: no nodes");
  }
  Cluster cluster;
  cluster.block_size_bytes = config.block_size_bytes;
  cluster.fifo_uplinks = config.fifo_uplinks;
  cluster.nodes.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    NodeSpec& node = cluster.nodes[i];
    node.uplink_bps = config.bandwidth_bps;
    node.downlink_bps = config.bandwidth_bps;
    if (params[i].lambda > 0 && params[i].mu > 0) {
      node.mode = AvailabilityMode::kModel;
      node.arrival_clock = ArrivalClock::kAbsoluteTime;
      node.params = params[i];
      node.service_time = avail::exponential(params[i].mu);
    } else {
      node.mode = AvailabilityMode::kAlwaysUp;
    }
  }
  cluster.domains = config.domains;
  assign_domains(cluster.nodes, cluster.domains);
  return cluster;
}

}  // namespace adapt::cluster
