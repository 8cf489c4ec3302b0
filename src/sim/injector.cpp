#include "sim/injector.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::sim {

InterruptionInjector::InterruptionInjector(
    EventQueue& queue, const std::vector<cluster::NodeSpec>& nodes,
    Listener& listener, common::Rng rng)
    : InterruptionInjector(queue, nodes, listener, rng, Config{}) {}

InterruptionInjector::InterruptionInjector(
    EventQueue& queue, const std::vector<cluster::NodeSpec>& nodes,
    Listener& listener, common::Rng rng, Config config)
    : queue_(queue),
      nodes_(nodes),
      listener_(listener),
      rng_(rng),
      config_(config),
      up_(nodes.size(), /*value=*/true),
      departed_at_(nodes.size(), -1.0),
      model_(nodes.size()),
      replay_(nodes.size()) {
  if (nodes_.empty()) throw std::invalid_argument("injector: no nodes");
  horizon_ = config_.replay_horizon;
  if (horizon_ <= 0) {
    for (const cluster::NodeSpec& node : nodes_) {
      for (const trace::DownInterval& iv : node.down_intervals) {
        horizon_ = std::max(horizon_, iv.up);
      }
    }
  }
}

void InterruptionInjector::set_up(cluster::NodeIndex node, bool up) {
  // A departed node never comes back; stale up-events (e.g. an
  // uncancellable uptime-clock recovery) are dropped here.
  if (up && is_departed(node)) return;
  if (up_.test(node) == up) return;
  up_.assign(node, up);
  ++transitions_;
  if (up) {
    listener_.on_node_up(node);
  } else {
    listener_.on_node_down(node);
  }
}

void InterruptionInjector::start() {
  if (queue_.now() != 0.0) {
    throw std::logic_error("injector: start() must run at time zero");
  }
  for (cluster::NodeIndex i = 0; i < nodes_.size(); ++i) {
    const cluster::NodeSpec& spec = nodes_[i];
    // Replay cursors are positioned up front whether the node is present
    // now or joins later; arming is what is deferred for late joiners.
    if (spec.mode == cluster::AvailabilityMode::kReplay &&
        !spec.down_intervals.empty()) {
      ReplayState& rs = replay_[i];
      rs.offset = config_.replay_offsets.empty()
                      ? rng_.uniform(0.0, horizon_)
                      : config_.replay_offsets.at(i);
      // Skip intervals that ended before the offset.
      while (rs.next_interval < spec.down_intervals.size() &&
             spec.down_intervals[rs.next_interval].up <= rs.offset) {
        ++rs.next_interval;
      }
      if (rs.next_interval == spec.down_intervals.size()) {
        rs.next_interval = 0;
        rs.shift = horizon_;
      }
    }

    const bool joins_late =
        i < config_.join_at.size() && config_.join_at[i] > 0.0;
    if (joins_late) {
      // Absent until its join time: down (not departed) from t = 0, then
      // joins up and starts its availability process from there.
      queue_.schedule(0.0, [this, i] { set_up(i, false); });
      const common::Seconds join = config_.join_at[i];
      queue_.schedule(join, [this, i] {
        if (is_departed(i)) return;  // left before ever joining
        set_up(i, true);
        arm_node(i);
      });
      schedule_departure(i);
      continue;
    }

    switch (spec.mode) {
      case cluster::AvailabilityMode::kAlwaysUp:
        break;
      case cluster::AvailabilityMode::kModel: {
        if (spec.params.lambda <= 0) break;
        if (!config_.initial_down_until.empty() &&
            config_.initial_down_until[i] > 0.0) {
          // Start mid-outage; the node returns when the residual busy
          // period ends. Fresh arrivals keep queueing onto it for the
          // absolute clock; for the uptime clock the next arrival is
          // armed on recovery.
          ModelState& ms = model_[i];
          ms.busy_until = config_.initial_down_until[i];
          queue_.schedule(0.0, [this, i] { set_up(i, false); });
          if (spec.arrival_clock == cluster::ArrivalClock::kUptime) {
            queue_.schedule(ms.busy_until, [this, i] {
              set_up(i, true);
              arm_model_arrival(i);
            });
          } else {
            ms.up_event = queue_.schedule(ms.busy_until, [this, i] {
              set_up(i, true);
            });
            arm_model_arrival(i);
          }
          break;
        }
        arm_model_arrival(i);
        break;
      }
      case cluster::AvailabilityMode::kReplay: {
        if (spec.down_intervals.empty()) break;
        schedule_replay_next(i);
        break;
      }
    }
    schedule_departure(i);
  }

  if (config_.burst_at >= 0.0 && config_.burst_fraction > 0.0) {
    // Correlated burst: each survivor departs independently with
    // probability burst_fraction at one instant.
    queue_.schedule(config_.burst_at, [this] {
      for (cluster::NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (is_departed(i)) continue;
        if (rng_.uniform() < config_.burst_fraction) depart(i);
      }
    });
  }

  if (config_.domain_burst_at >= 0.0 && config_.domain_burst_count > 0) {
    if (config_.domain_of.size() != nodes_.size()) {
      throw std::invalid_argument(
          "injector: domain burst needs domain_of for every node");
    }
    queue_.schedule(config_.domain_burst_at, [this] {
      // Draw domain_burst_count distinct domains without replacement
      // (partial Fisher-Yates), then kill every survivor inside them.
      std::uint32_t domain_count = 0;
      for (const std::uint32_t d : config_.domain_of) {
        domain_count = std::max(domain_count, d + 1);
      }
      std::vector<std::uint32_t> pool(domain_count);
      for (std::uint32_t d = 0; d < domain_count; ++d) pool[d] = d;
      const std::uint32_t picks =
          std::min(config_.domain_burst_count, domain_count);
      std::vector<bool> hit(domain_count, false);
      for (std::uint32_t k = 0; k < picks; ++k) {
        const std::size_t j =
            k + rng_.uniform_index(pool.size() - k);
        std::swap(pool[k], pool[j]);
        hit[pool[k]] = true;
      }
      for (cluster::NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (is_departed(i)) continue;
        if (hit[config_.domain_of[i]]) depart(i);
      }
    });
  }
}

void InterruptionInjector::schedule_departure(cluster::NodeIndex node) {
  const double rate = config_.departure_rate;
  if (rate <= 0.0) return;  // no draw: unconfigured runs stay untouched
  const common::Seconds at = rng_.exponential(rate);
  queue_.schedule(at, [this, node] { depart(node); });
}

void InterruptionInjector::depart(cluster::NodeIndex node) {
  if (is_departed(node)) return;
  // Recorded before the down event, so listeners that query
  // is_departed() during on_node_down see the final state.
  departed_at_[node] = queue_.now();
  ++departures_;
  model_[node].up_event.cancel();
  set_up(node, false);  // no-op if already down (or never joined)
}

void InterruptionInjector::arm_node(cluster::NodeIndex node) {
  const cluster::NodeSpec& spec = nodes_[node];
  switch (spec.mode) {
    case cluster::AvailabilityMode::kAlwaysUp:
      break;
    case cluster::AvailabilityMode::kModel:
      if (spec.params.lambda > 0) arm_model_arrival(node);
      break;
    case cluster::AvailabilityMode::kReplay:
      if (!spec.down_intervals.empty()) schedule_replay_next(node);
      break;
  }
}

void InterruptionInjector::arm_model_arrival(cluster::NodeIndex node) {
  if (is_departed(node)) return;
  const double lambda = nodes_[node].params.lambda;
  const common::Seconds at = queue_.now() + rng_.exponential(lambda);
  queue_.schedule(at, [this, node] { on_model_arrival(node); });
}

void InterruptionInjector::on_model_arrival(cluster::NodeIndex node) {
  if (is_departed(node)) return;
  const cluster::NodeSpec& spec = nodes_[node];
  const double service = spec.service_time
                             ? spec.service_time->sample(rng_)
                             : rng_.exponential(1.0 / spec.params.mu);
  ModelState& ms = model_[node];
  const common::Seconds now = queue_.now();

  if (spec.arrival_clock == cluster::ArrivalClock::kUptime) {
    // The interruption clock pauses during repair: no overlapping
    // arrivals; the next one is armed only once the node is back.
    set_up(node, false);
    ms.busy_until = now + service;
    queue_.schedule(ms.busy_until, [this, node] {
      set_up(node, true);
      arm_model_arrival(node);
    });
    return;
  }

  // Absolute-time clock: FCFS repair queue, an arrival during an outage
  // extends it (M/G/1).
  ms.busy_until = std::max(ms.busy_until, now) + service;
  set_up(node, false);
  ms.up_event.cancel();
  ms.up_event = queue_.schedule(ms.busy_until, [this, node] {
    // Only the newest up-event survives, so the queue is drained here.
    set_up(node, true);
  });
  arm_model_arrival(node);
}

trace::DownInterval InterruptionInjector::replay_peek(
    cluster::NodeIndex node) const {
  const ReplayState& rs = replay_[node];
  const trace::DownInterval& iv =
      nodes_[node].down_intervals[rs.next_interval];
  return {iv.down - rs.offset + rs.shift, iv.up - rs.offset + rs.shift};
}

void InterruptionInjector::replay_advance(cluster::NodeIndex node) {
  ReplayState& rs = replay_[node];
  ++rs.next_interval;
  if (rs.next_interval >= nodes_[node].down_intervals.size()) {
    rs.next_interval = 0;
    rs.shift += horizon_;
  }
}

void InterruptionInjector::schedule_replay_next(cluster::NodeIndex node) {
  if (is_departed(node)) return;
  const common::Seconds now = queue_.now();
  // Find the next interval still (partially) ahead of now; intervals
  // swallowed by a long repair that ran past them are skipped.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    const trace::DownInterval iv = replay_peek(node);
    if (iv.up <= now) {
      replay_advance(node);
      continue;
    }
    const common::Seconds down_at = std::max(iv.down, now);
    queue_.schedule(down_at, [this, node] { set_up(node, false); });
    queue_.schedule(iv.up, [this, node] {
      if (is_departed(node)) return;  // chain ends with the node
      set_up(node, true);
      replay_advance(node);
      schedule_replay_next(node);
    });
    return;
  }
  throw std::logic_error("injector: replay interval scan diverged");
}

std::vector<common::Seconds> draw_initial_down(
    const std::vector<cluster::NodeSpec>& nodes, common::Rng& rng,
    common::Seconds unstable_residual) {
  std::vector<common::Seconds> out(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const cluster::NodeSpec& node = nodes[i];
    if (node.mode != cluster::AvailabilityMode::kModel ||
        node.params.lambda <= 0 || node.params.mu <= 0) {
      continue;
    }
    const double rho = node.params.utilization();
    if (rng.uniform() >= std::min(rho, 1.0)) continue;  // starts up
    if (node.params.stable()) {
      const double busy_mean = node.params.mu / (1.0 - rho);
      out[i] = rng.exponential(1.0 / busy_mean);
    } else {
      // Unstable queue: the backlog only grows; the node is effectively
      // gone for any job-length horizon.
      out[i] = unstable_residual * (0.5 + rng.uniform());
    }
    if (out[i] <= 0.0) out[i] = 1e-9;
  }
  return out;
}

std::vector<common::Seconds> draw_replay_offsets(
    const std::vector<cluster::NodeSpec>& nodes, common::Seconds horizon,
    common::Rng& rng) {
  std::vector<common::Seconds> offsets(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].mode == cluster::AvailabilityMode::kReplay &&
        !nodes[i].down_intervals.empty()) {
      offsets[i] = rng.uniform(0.0, horizon);
    }
  }
  return offsets;
}

bool replay_up_at(const cluster::NodeSpec& node, common::Seconds offset) {
  // Intervals are sorted and non-overlapping: find the last one starting
  // at or before the offset.
  const auto& ivs = node.down_intervals;
  const auto it = std::upper_bound(
      ivs.begin(), ivs.end(), offset,
      [](common::Seconds t, const trace::DownInterval& iv) {
        return t < iv.down;
      });
  if (it == ivs.begin()) return true;
  return offset >= std::prev(it)->up;
}

}  // namespace adapt::sim
