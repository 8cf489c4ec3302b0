// Pluggable map-phase scheduler policies.
//
// Mirrors placement/policy.h's shape: an abstract interface, a kind
// enum + per-kind config (SchedulerConfig, in sim_config.h), and a
// make_scheduler factory. The simulator owns attempt *state* (launch,
// transfer, cancellation mechanics); the policy owns attempt *choice* —
// which running task an idle node should duplicate, how many duplicates
// a task may have, and whether duplicates launch up-front.
//
// Determinism contract: policies are pure functions of the host view
// passed in. They hold no mutable state, never draw randomness, and
// observe running attempts in the host's (deterministic) launch order,
// so a given event sequence always yields the same decisions and
// exports stay byte-identical across thread counts.
//
// Three kinds:
//  - kBaseline   Hadoop-style: duplicate the laggard with the most
//                remaining work once it is overdue, preferring tasks
//                local to the asking node, gated by a global slack
//                profitability test. Byte-identical to the historical
//                hardcoded scheduler at default config.
//  - kCalibrated Eq. 5-driven: a task is a laggard when its realized
//                running time exceeds the executing node's
//                placement-time E[T] quote by a fixed margin scaled
//                with the cluster calibration ratio from
//                obs::CalibrationTracker. Falls back to the baseline
//                overdue rule for nodes without a finite quote.
//  - kRedundant  Launch every task on k = 2 nodes up-front, cancel the
//                losers on first finish (Behrouzi-Far & Soljanin);
//                wasted transfer bytes are charged to the run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cluster/node.h"
#include "common/units.h"
#include "sim/sim_config.h"

namespace adapt::sim {

// Read-only snapshot of one running attempt, in simulator launch order.
struct AttemptView {
  std::uint32_t task = 0;
  cluster::NodeIndex node = 0;
  bool alive = false;
  bool fetching = false;
  // Current projected finish (includes accumulated transfer stall).
  common::Seconds projected_finish = 0.0;
  // What the attempt projected when it was launched.
  common::Seconds nominal_end = 0.0;
  // Time left if the attempt is left alone.
  common::Seconds remaining = 0.0;
  // When the task's first attempt started; negative = not tracked.
  common::Seconds first_start = -1.0;
};

// What a policy may ask the simulator. Implemented privately by
// MapReduceSimulation; all queries are O(1) or O(replicas).
class SchedulerHost {
 public:
  virtual ~SchedulerHost() = default;

  virtual common::Seconds now() const = 0;
  // Running attempts, enumerated in deterministic order.
  virtual std::size_t running_count() const = 0;
  virtual AttemptView running_attempt(std::size_t i) const = 0;
  // True while the task is running (not pending, not done).
  virtual bool task_running(std::uint32_t task) const = 0;
  // Concurrent attempts currently executing the task.
  virtual std::size_t attempt_count(std::uint32_t task) const = 0;
  virtual bool is_local_to(std::uint32_t task,
                           cluster::NodeIndex node) const = 0;
  // Expected cost of running `task` fresh on `node` (fetch + execute);
  // negative when the node cannot run it.
  virtual double estimated_cost_on(cluster::NodeIndex node,
                                   std::uint32_t task) const = 0;
  // Cluster-wide realized/predicted ratio from the CalibrationTracker;
  // <= 0 when unknown (no tracker, or no pairs yet).
  virtual double cluster_calibration_ratio() const = 0;
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string name() const = 0;
  virtual SchedulerKind kind() const = 0;

  // Duplicates to launch alongside each fresh primary attempt; only
  // kRedundant returns nonzero.
  virtual int extra_initial_launches() const { return 0; }

  // Whether the reactive speculation path (idle-node duplication and
  // the stall wake-ups that feed it) is active at all.
  virtual bool speculation_enabled() const = 0;

  // Idle `node` asks for a running task worth duplicating; nullopt =
  // nothing qualifies. The simulator resolves the data source and
  // launches the duplicate (or declines if no source is reachable).
  virtual std::optional<std::uint32_t> pick_speculative(
      cluster::NodeIndex node, const SchedulerHost& host) const = 0;
};

using SchedulerPtr = std::unique_ptr<const SchedulerPolicy>;

// Build the policy a SchedulerConfig denotes. `gamma` is the
// failure-free task time; an attempt is overdue once its projected
// finish slips one gamma past its launch-time projection.
SchedulerPtr make_scheduler(const SchedulerConfig& config, double gamma);

}  // namespace adapt::sim
