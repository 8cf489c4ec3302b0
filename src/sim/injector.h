// Interruption injector: drives each node's up/down transitions on the
// event queue, from either the stochastic model (Poisson arrivals +
// sampled service times, queued FCFS as in Section III-A) or a replayed
// failure trace (Section V-C).
//
// Replay starts each node at a random cyclic offset into its recorded
// intervals, so repeated runs sample different alignments of the same
// trace; a node mid-outage at the offset starts the run down.
//
// On top of the transient process the injector models volunteer *churn*:
// per-node permanent departures (exponential hazard), an optional
// correlated departure burst (a random fraction of the surviving pool
// leaves at one instant — a campus power cut, a project ending), and
// late arrivals (a node absent until its join time). A departed node
// emits a final on_node_down (if it was up) and never transitions
// again; departed_at() records when it left.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.h"
#include "cluster/node_mask.h"
#include "common/rng.h"
#include "sim/event_queue.h"

namespace adapt::sim {

class InterruptionInjector {
 public:
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_node_down(cluster::NodeIndex node) = 0;
    virtual void on_node_up(cluster::NodeIndex node) = 0;
  };

  struct Config {
    // Horizon for replay wrap-around; 0 = derive from the longest
    // recorded interval end.
    common::Seconds replay_horizon = 0.0;
    // Per-node cyclic offsets chosen by the caller (e.g. so placement
    // can be filtered to initially-up nodes). Empty = draw each
    // uniformly over the horizon.
    std::vector<common::Seconds> replay_offsets;
    // Model-mode initial conditions: > 0 means the node starts the run
    // down and returns at that time (a residual outage drawn from the
    // steady state). Empty = every model node starts up.
    std::vector<common::Seconds> initial_down_until;

    // -- churn ------------------------------------------------------
    // Permanent-departure hazard (per second); each node's departure
    // time is drawn Exp(rate) at start(). 0 = nobody leaves.
    double departure_rate = 0.0;
    // Correlated burst: at burst_at (>= 0), every not-yet-departed node
    // departs independently with probability burst_fraction.
    common::Seconds burst_at = -1.0;
    double burst_fraction = 0.0;
    // Per-domain correlated burst: at domain_burst_at (>= 0), pick
    // domain_burst_count distinct fault domains uniformly at random and
    // depart *every* not-yet-departed node in them — a rack switch dying,
    // a site-wide power cut. Requires domain_of (node -> leaf domain id).
    common::Seconds domain_burst_at = -1.0;
    std::uint32_t domain_burst_count = 0;
    std::vector<std::uint32_t> domain_of;
    // Node arrivals: join_at[i] > 0 means node i is absent (down, not
    // departed) until that time, then joins and starts its availability
    // process. Empty = everyone present from t = 0.
    std::vector<common::Seconds> join_at;
  };

  InterruptionInjector(EventQueue& queue,
                       const std::vector<cluster::NodeSpec>& nodes,
                       Listener& listener, common::Rng rng);
  InterruptionInjector(EventQueue& queue,
                       const std::vector<cluster::NodeSpec>& nodes,
                       Listener& listener, common::Rng rng, Config config);

  // Arm all nodes; must be called once, at queue time zero, before the
  // run starts. Nodes starting mid-outage emit on_node_down immediately.
  void start();

  // Which nodes are up: the one record of node liveness. Each bit flips
  // just before the listener hears of the transition.
  const cluster::NodeMask& up() const { return up_; }
  // Sim time `node` permanently departed; negative while it is resident.
  common::Seconds departed_at(cluster::NodeIndex node) const {
    return departed_at_.at(node);
  }
  bool is_departed(cluster::NodeIndex node) const {
    return departed_at(node) >= 0.0;
  }
  std::size_t transitions() const { return transitions_; }
  std::size_t departures() const { return departures_; }

  common::Seconds horizon() const { return horizon_; }

 private:
  struct ModelState {
    common::Seconds busy_until = 0.0;  // end of the FCFS repair queue
    EventQueue::Handle up_event;
  };
  struct ReplayState {
    std::size_t next_interval = 0;
    common::Seconds shift = 0.0;       // accumulated wrap shift
    common::Seconds offset = 0.0;      // cyclic start offset
  };

  void arm_model_arrival(cluster::NodeIndex node);
  void on_model_arrival(cluster::NodeIndex node);
  void schedule_replay_next(cluster::NodeIndex node);
  void set_up(cluster::NodeIndex node, bool up);
  void depart(cluster::NodeIndex node);
  void schedule_departure(cluster::NodeIndex node);
  // Arm the node's availability process (model arrivals or replay
  // schedule) starting at the current queue time.
  void arm_node(cluster::NodeIndex node);

  // Next recorded interval for a replay node, rotated by its offset and
  // wrapped over the horizon.
  trace::DownInterval replay_peek(cluster::NodeIndex node) const;
  void replay_advance(cluster::NodeIndex node);

  EventQueue& queue_;
  const std::vector<cluster::NodeSpec>& nodes_;
  Listener& listener_;
  common::Rng rng_;
  Config config_;
  common::Seconds horizon_ = 0.0;

  cluster::NodeMask up_;
  std::vector<common::Seconds> departed_at_;
  std::vector<ModelState> model_;
  std::vector<ReplayState> replay_;
  std::size_t transitions_ = 0;
  std::size_t departures_ = 0;
};

// Draw one cyclic replay offset per node (uniform over the horizon; 0
// for non-replay nodes). Lets the caller know each node's initial state
// before constructing the simulation.
std::vector<common::Seconds> draw_replay_offsets(
    const std::vector<cluster::NodeSpec>& nodes, common::Seconds horizon,
    common::Rng& rng);

// Whether a replay node is up at its offset (i.e. at simulated t = 0).
bool replay_up_at(const cluster::NodeSpec& node, common::Seconds offset);

// Steady-state initial conditions for model-mode nodes: node i starts
// down with probability min(rho_i, 1); a down node's return time is a
// residual busy period (exponential with the busy-period mean for stable
// nodes; effectively never, i.e. `unstable_residual`, for rho >= 1).
// Returns 0 for nodes starting up.
std::vector<common::Seconds> draw_initial_down(
    const std::vector<cluster::NodeSpec>& nodes, common::Rng& rng,
    common::Seconds unstable_residual = 30.0 * 24.0 * 3600.0);

}  // namespace adapt::sim
