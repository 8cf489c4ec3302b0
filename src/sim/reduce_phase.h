// Reduce-phase extension (the paper's Section VII future work: "optimize
// the reduce phase performance").
//
// Model: when the map phase ends, every map task's output (a configurable
// fraction of its input block) sits on the node that won the task. Each
// reducer is assigned to a host, pulls its partition of every map output
// over the bounded-bandwidth network (one fetch per distinct source,
// sized as that source's aggregate contribution), then runs its reduce
// computation. Interruptions follow the same injector as the map phase:
//
//  * a source that goes down stalls the fetch (resume on return), and
//    after `reissue_delay` the missing partition is re-served by the
//    origin (map outputs are re-creatable: the runtime can re-run maps);
//  * a reducer whose host dies is reassigned to another live host and
//    starts its shuffle from scratch — Hadoop's reduce-attempt retry.
//
// Reducer placement is pluggable: uniform-random over live hosts (stock
// Hadoop) or availability-aware (weights proportional to 1/E[T], ADAPT's
// idea applied to reducers).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/injector.h"

namespace adapt::sim {

struct ReduceConfig {
  std::uint32_t reducers = 0;   // 0 = one per cluster node
  // Map output bytes as a fraction of map input bytes (Terasort
  // shuffles its whole input; aggregation jobs far less).
  double output_ratio = 1.0;
  // Reduce computation time per reducer; < 0 = auto, proportional to
  // the shuffled bytes at the map task rate (gamma_map per block).
  common::Seconds gamma_reduce = -1.0;
  double gamma_map = 12.0;      // only for the auto rule above
  // Availability-aware reducer placement: weight hosts by 1/E[T]
  // computed from `params` (else uniform over live hosts).
  bool availability_aware = false;
  std::vector<avail::InterruptionParams> params;  // for the weights
  common::Seconds reissue_delay = 600.0;
  std::uint64_t seed = 1;
  common::Seconds replay_horizon = 0.0;
  std::vector<common::Seconds> replay_offsets;
  std::vector<common::Seconds> initial_down_until;
};

struct ReduceResult {
  common::Seconds elapsed = 0.0;  // map end -> last reducer done
  std::uint64_t reducers = 0;
  std::uint64_t shuffle_fetches = 0;
  std::uint64_t origin_refetches = 0;   // partitions re-served by origin
  std::uint64_t reducer_reassignments = 0;  // host died mid-reduce
  std::uint64_t shuffle_bytes = 0;
};

// Simulates the shuffle + reduce phase. `map_winners[t]` is the node
// that executed map task t (JobResult::winner_nodes, recorded when
// SimJobConfig::record_completion_times is set).
class ReducePhaseSimulation : public InterruptionInjector::Listener {
 public:
  ReducePhaseSimulation(const cluster::Cluster& cluster,
                        const std::vector<cluster::NodeIndex>& map_winners,
                        ReduceConfig config);

  ReduceResult run();

  // InterruptionInjector::Listener
  void on_node_down(cluster::NodeIndex node) override;
  void on_node_up(cluster::NodeIndex node) override;

 private:
  struct Reducer {
    bool assigned = false;
    cluster::NodeIndex node = 0;
    std::size_t next_source = 0;   // index into sources_
    bool fetching = false;
    bool done = false;
    cluster::TransferGrant fetch;
    cluster::NodeIndex fetch_src = 0;
    common::Seconds stall_since = -1.0;
    EventQueue::Handle event;
  };

  void assign_reducer(std::uint32_t r);
  void advance(std::uint32_t r);
  void begin_fetch(std::uint32_t r, bool from_origin);
  void on_fetch_done(std::uint32_t r);
  void on_reduce_done(std::uint32_t r);
  std::optional<cluster::NodeIndex> pick_host(common::Rng& rng) const;
  bool all_done() const { return done_count_ == reducers_.size(); }

  const cluster::Cluster& cluster_;
  ReduceConfig config_;
  EventQueue queue_;
  cluster::Network network_;
  common::Rng rng_;
  InterruptionInjector injector_;

  // sources_[i] = (node, bytes) pairs every reducer pulls from.
  std::vector<std::pair<cluster::NodeIndex, std::uint64_t>> sources_;
  std::vector<double> weights_;  // reducer-placement weights
  std::vector<Reducer> reducers_;
  double gamma_reduce_ = 0.0;
  std::size_t done_count_ = 0;
  ReduceResult result_;
};

}  // namespace adapt::sim
