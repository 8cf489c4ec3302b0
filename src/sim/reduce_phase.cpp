#include "sim/reduce_phase.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapt::sim {

namespace {

InterruptionInjector::Config injector_config(const ReduceConfig& config) {
  InterruptionInjector::Config c;
  c.replay_horizon = config.replay_horizon;
  c.replay_offsets = config.replay_offsets;
  c.initial_down_until = config.initial_down_until;
  return c;
}

}  // namespace

ReducePhaseSimulation::ReducePhaseSimulation(
    const cluster::Cluster& cluster,
    const std::vector<cluster::NodeIndex>& map_winners, ReduceConfig config)
    : cluster_(cluster),
      config_(std::move(config)),
      network_(cluster.network_config()),
      rng_(common::Rng(config_.seed).fork(0x2ed0)),
      injector_(queue_, cluster.nodes, *this,
                common::Rng(config_.seed).fork(0x2ed1),
                injector_config(config_)) {
  if (map_winners.empty()) {
    throw std::invalid_argument("reduce: no map outputs");
  }
  if (config_.output_ratio <= 0) {
    throw std::invalid_argument("reduce: output ratio must be positive");
  }
  const std::uint32_t reducer_count =
      config_.reducers > 0 ? config_.reducers
                           : static_cast<std::uint32_t>(cluster.size());

  // Aggregate map outputs per winner node; each reducer pulls its
  // 1/R share of every node's aggregate.
  std::vector<std::uint64_t> per_node(cluster.size(), 0);
  const double out_bytes =
      static_cast<double>(cluster.block_size_bytes) * config_.output_ratio;
  for (const cluster::NodeIndex winner : map_winners) {
    per_node.at(winner) +=
        static_cast<std::uint64_t>(out_bytes / reducer_count);
  }
  for (cluster::NodeIndex n = 0; n < per_node.size(); ++n) {
    if (per_node[n] > 0) sources_.push_back({n, per_node[n]});
  }
  if (sources_.empty()) {
    throw std::invalid_argument("reduce: empty shuffle");
  }

  if (config_.availability_aware) {
    if (config_.params.size() != cluster.size()) {
      throw std::invalid_argument(
          "reduce: availability-aware placement needs per-node params");
    }
    weights_.reserve(cluster.size());
    for (const avail::InterruptionParams& p : config_.params) {
      const double et = avail::expected_task_time(
          p, std::max(1e-9, config_.gamma_map));
      weights_.push_back(std::isfinite(et) ? 1.0 / et : 0.0);
    }
  }

  if (config_.gamma_reduce >= 0) {
    gamma_reduce_ = config_.gamma_reduce;
  } else {
    // Auto: reduce computation proportional to the bytes it ingests, at
    // the map rate (gamma_map per input block).
    std::uint64_t total = 0;
    for (const auto& [node, bytes] : sources_) total += bytes;
    gamma_reduce_ = config_.gamma_map * static_cast<double>(total) /
                    static_cast<double>(cluster.block_size_bytes);
  }

  reducers_.resize(reducer_count);
}

ReduceResult ReducePhaseSimulation::run() {
  result_ = ReduceResult{};
  result_.reducers = reducers_.size();
  injector_.start();
  queue_.schedule(0.0, [this] {
    for (std::uint32_t r = 0; r < reducers_.size(); ++r) {
      assign_reducer(r);
    }
  });
  const bool done = queue_.run_until([this] { return all_done(); });
  if (!done) {
    throw std::logic_error("reduce phase stalled");
  }
  return result_;
}

std::optional<cluster::NodeIndex> ReducePhaseSimulation::pick_host(
    common::Rng& rng) const {
  // Weighted (availability-aware) or uniform draw over live hosts.
  const cluster::NodeMask& up = injector_.up();
  if (config_.availability_aware) {
    double total = 0.0;
    up.for_each_set([&](std::uint32_t i) { total += weights_[i]; });
    if (total > 0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < up.size(); ++i) {
        if (!up.test(i)) continue;
        r -= weights_[i];
        if (r <= 0) return static_cast<cluster::NodeIndex>(i);
      }
    }
  }
  const std::size_t live = up.count();
  if (live == 0) return std::nullopt;
  return static_cast<cluster::NodeIndex>(
      up.nth_set(rng.uniform_index(live)));
}

void ReducePhaseSimulation::assign_reducer(std::uint32_t r) {
  Reducer& red = reducers_[r];
  const auto host = pick_host(rng_);
  if (!host) {
    // Whole cluster down: retry when something comes back.
    queue_.schedule(queue_.now() + 1.0, [this, r] { assign_reducer(r); });
    return;
  }
  red = Reducer{};
  red.assigned = true;
  red.node = *host;
  advance(r);
}

void ReducePhaseSimulation::advance(std::uint32_t r) {
  Reducer& red = reducers_[r];
  if (red.next_source >= sources_.size()) {
    // Shuffle complete: run the reduce computation.
    red.event = queue_.schedule(queue_.now() + gamma_reduce_,
                                [this, r] { on_reduce_done(r); });
    return;
  }
  const auto [src, bytes] = sources_[red.next_source];
  if (src == red.node) {
    // Local partition: no transfer.
    ++red.next_source;
    advance(r);
    return;
  }
  if (!injector_.up().test(src)) {
    // Source down: wait for it, or take the partition from the origin
    // after the reissue delay (the runtime can re-create map output).
    if (red.stall_since < 0) red.stall_since = queue_.now();
    const common::Seconds ripe = red.stall_since + config_.reissue_delay;
    if (queue_.now() >= ripe) {
      ++result_.origin_refetches;
      begin_fetch(r, /*from_origin=*/true);
      return;
    }
    red.event = queue_.schedule(
        std::min(ripe, queue_.now() + 5.0), [this, r] {
          reducers_[r].event = EventQueue::Handle();
          advance(r);
        });
    return;
  }
  red.stall_since = -1.0;
  begin_fetch(r, /*from_origin=*/false);
}

void ReducePhaseSimulation::begin_fetch(std::uint32_t r, bool from_origin) {
  Reducer& red = reducers_[r];
  const auto [src, bytes] = sources_[red.next_source];
  red.fetching = true;
  red.stall_since = -1.0;
  red.fetch_src = from_origin ? cluster::kOriginEndpoint : src;
  red.fetch = network_.request(red.fetch_src, red.node, bytes, queue_.now());
  ++result_.shuffle_fetches;
  red.event = queue_.schedule(red.fetch.end,
                              [this, r] { on_fetch_done(r); });
}

void ReducePhaseSimulation::on_fetch_done(std::uint32_t r) {
  Reducer& red = reducers_[r];
  red.fetching = false;
  result_.shuffle_bytes += sources_[red.next_source].second;
  network_.on_transfer_complete(sources_[red.next_source].second);
  ++red.next_source;
  advance(r);
}

void ReducePhaseSimulation::on_reduce_done(std::uint32_t r) {
  Reducer& red = reducers_[r];
  red.done = true;
  ++done_count_;
  result_.elapsed = queue_.now();
}

void ReducePhaseSimulation::on_node_down(cluster::NodeIndex node) {
  for (std::uint32_t r = 0; r < reducers_.size(); ++r) {
    Reducer& red = reducers_[r];
    if (!red.assigned || red.done) continue;
    if (red.node == node) {
      // Host died: reassign the attempt and restart its shuffle.
      red.event.cancel();
      if (red.fetching) network_.abort(red.fetch, queue_.now());
      red.assigned = false;
      ++result_.reducer_reassignments;
      const std::uint32_t id = r;
      queue_.schedule(queue_.now(), [this, id] { assign_reducer(id); });
      continue;
    }
    if (red.fetching && red.fetch_src == node) {
      // Source died mid-fetch: stall and retry via advance() (which
      // waits for the node or falls back to the origin).
      red.event.cancel();
      red.fetching = false;
      network_.abort(red.fetch, queue_.now());
      red.stall_since = queue_.now();
      const std::uint32_t id = r;
      queue_.schedule(queue_.now(), [this, id] {
        reducers_[id].event = EventQueue::Handle();
        advance(id);
      });
    }
  }
  network_.reset_uplink(node, queue_.now());
}

void ReducePhaseSimulation::on_node_up(cluster::NodeIndex node) {
  network_.reset_uplink(node, queue_.now());
  // Stalled reducers waiting on this source will notice at their next
  // scheduled retry (<= 5 s away).
}

}  // namespace adapt::sim
