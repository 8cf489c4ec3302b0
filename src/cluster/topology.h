// Cluster builders for the paper's two evaluation settings.
//
// `emulated_cluster` reproduces Section V-A: n hosts, a configurable
// fraction interrupted, the interrupted hosts split evenly into the four
// availability groups of Table 2, all links capped at the same broadband
// bandwidth.
//
// `trace_cluster` reproduces Section V-C: hosts replay failure-trace
// down intervals; the NameNode-visible parameters are the measured
// (lambda, mu) extracted from the same trace.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/network.h"
#include "cluster/node.h"
#include "trace/event.h"

namespace adapt::cluster {

// Fault-domain assignment the cluster builders apply: nodes are split
// into sites * racks_per_site racks (the leaf fault domain) in
// contiguous index ranges, as evenly as the division allows. sites == 0
// means no hierarchy — every domain-aware mechanism stays inert and the
// cluster behaves exactly as before the hierarchy existed.
struct DomainLayout {
  std::uint32_t sites = 0;
  std::uint32_t racks_per_site = 1;

  bool enabled() const { return sites > 0; }
  std::uint32_t rack_count() const { return sites * racks_per_site; }
};

// Fill NodeSpec::site/rack for an already-built node list.
void assign_domains(std::vector<NodeSpec>& nodes,
                    const DomainLayout& layout);

struct Cluster {
  std::vector<NodeSpec> nodes;
  double origin_uplink_bps = 0.0;  // data source for loads / last-resort
                                   // re-fetch; 0 = unconstrained (each
                                   // fetch runs at the client's downlink)
  std::uint64_t block_size_bytes = 64 * common::kMiB;
  // Replay wrap-around horizon (the source trace's window); 0 when the
  // cluster is model-driven.
  common::Seconds replay_horizon = 0.0;
  // Uplink sharing model (see cluster::Network::Config::fifo_admission).
  bool fifo_uplinks = true;
  // Fault-domain hierarchy the nodes were assigned under (disabled =
  // flat; NodeSpec::site/rack are all zero).
  DomainLayout domains;

  std::size_t size() const { return nodes.size(); }
  // Wall-clock-observable interruption parameters, node-indexed — what a
  // converged heartbeat collector would report, and the input the
  // experiment hands the Performance Predictor as "ground truth".
  std::vector<avail::InterruptionParams> params() const;
  // The network the cluster describes: each node's uplink and downlink,
  // the origin uplink and the uplink admission model.
  Network::Config network_config() const;
};

// Table 2: the four (MTBI, mean service time) groups, in seconds.
struct AvailabilityGroup {
  double mtbi = 0.0;
  double mean_service = 0.0;
};
const std::vector<AvailabilityGroup>& table2_groups();

// Every emulated node has the default 64 MiB blocks; the cluster is
// flat. "Interruptions are injected based on the assumed
// distributions": exponential inter-arrivals and exponential service
// with each group's mean.
struct EmulationConfig {
  std::size_t node_count = 128;           // Table 3 default
  double interrupted_ratio = 0.5;         // Table 3 default
  double bandwidth_bps = common::mbps(8); // Table 3 default
  // Uptime-clock injection by default (see ArrivalClock); flip for the
  // strict-M/G/1 ablation.
  bool absolute_arrival_clock = false;
};

Cluster emulated_cluster(const EmulationConfig& config);

struct TraceClusterConfig {
  double bandwidth_bps = common::mbps(8);  // Table 4 default
  std::uint64_t block_size_bytes = 64 * common::kMiB;
  // Large-scale simulation default: flat per-transfer latency (the
  // paper's Figure 5 bandwidth sensitivity is consistent with no
  // per-uplink queueing).
  bool fifo_uplinks = false;
  // Optional fault-domain hierarchy (disabled = flat, the historical
  // behavior).
  DomainLayout domains;
};

Cluster trace_cluster(const trace::Trace& trace,
                      const TraceClusterConfig& config);

// Model-driven variant of the Section V-C environment: every host is an
// M/G/1 interruption process (absolute-time Poisson arrivals, exponential
// service) with per-host parameters taken from the trace population —
// the injection semantics of the paper's own Section III model. This is
// the default substrate for the Figure 5 benches; `trace_cluster`
// (interval replay) is kept as the reality-check ablation.
Cluster model_cluster(const std::vector<avail::InterruptionParams>& params,
                      const TraceClusterConfig& config);

}  // namespace adapt::cluster
