#include "sim/replica_mover.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/backoff.h"

namespace adapt::sim {
namespace {

constexpr BackoffParams kBackoff{};

}  // namespace

std::optional<cluster::NodeIndex> pick_transfer_source(
    const std::vector<cluster::NodeIndex>& holders,
    const cluster::Network& network, const cluster::NodeMask& up) {
  std::optional<cluster::NodeIndex> src;
  common::Seconds src_free = 0.0;
  for (const cluster::NodeIndex holder : holders) {
    if (!up.test(holder)) continue;
    const common::Seconds free_at = network.uplink_available_at(holder);
    if (!src || free_at < src_free || (free_at == src_free && holder < *src)) {
      src = holder;
      src_free = free_at;
    }
  }
  return src;
}

std::optional<cluster::NodeIndex> draw_replica_target(
    const hdfs::NameNode& namenode, hdfs::BlockId block,
    std::uint32_t ordinal, const cluster::NodeMask& up,
    const placement::PlacementPolicy& policy, common::Rng& rng) {
  // The NameNode builds the mask incrementally (placeable, minus holders
  // and pending-move targets).
  cluster::NodeMask eligible = namenode.eligibility_for_new_replica(block);
  eligible &= up;
  if (!eligible.any()) return std::nullopt;
  // Keyed: consistent-hash policies land on their stable bucket for
  // this (block, ordinal); sampling policies consume the rng as choose.
  return policy.choose_keyed(block, ordinal, eligible, rng);
}

ReplicaMover::ReplicaMover(EventQueue& queue, hdfs::NameNode& namenode,
                           cluster::Network& network,
                           const cluster::NodeMask& up,
                           std::uint64_t block_bytes, int max_concurrent,
                           int max_retries, common::Rng rng,
                           const Vocabulary& vocabulary)
    : queue_(queue),
      namenode_(namenode),
      network_(network),
      up_(up),
      block_bytes_(block_bytes),
      rng_(rng),
      max_concurrent_(max_concurrent),
      max_retries_(max_retries),
      vocabulary_(vocabulary) {
  const std::string name = vocabulary_.name;
  if (max_concurrent_ < 1) {
    throw std::invalid_argument(name + ": max_concurrent must be >= 1");
  }
  if (max_retries_ < 0) {
    throw std::invalid_argument(name + ": max_retries must be >= 0");
  }
}

void ReplicaMover::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  const std::string name = vocabulary_.name;
  ctr_started_ = metrics_->counter(name + ".started");
  ctr_landed_ = metrics_->counter(vocabulary_.landed_metric);
  ctr_retries_ = metrics_->counter(name + ".retries");
  ctr_giveups_ = metrics_->counter(name + ".giveups");
  ctr_bytes_ = metrics_->counter(name + ".bytes");
  gauge_backlog_ = metrics_->gauge(vocabulary_.backlog_metric);
}

void ReplicaMover::note_backlog() {
  const auto depth = static_cast<std::uint64_t>(backlog());
  if (depth > stats_.max_backlog) {
    stats_.max_backlog = depth;
    if (metrics_ != nullptr) {
      metrics_->set(gauge_backlog_, static_cast<double>(depth));
    }
  }
}

void ReplicaMover::admit(Item item) {
  pending_.push_back(item);
  note_backlog();
  pump();
}

void ReplicaMover::on_node_up(cluster::NodeIndex node) {
  (void)node;  // any returning node may unblock a source or destination
  pump();
}

void ReplicaMover::on_node_down(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/true);
}

void ReplicaMover::on_node_written_off(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/false);
}

void ReplicaMover::pump() {
  if (!policy_) return;  // not armed yet
  const bool profile = spans_ != nullptr && !pending_.empty();
  if (profile) spans_->begin(vocabulary_.span, span_clock_->now());
  drain();
  if (profile) spans_->end(span_clock_->now());
}

void ReplicaMover::defer(std::size_t index) {
  Item& item = pending_[index];
  item.not_before = queue_.now() + std::max(kBackoff.base, 1.0);
  queue_.schedule(item.not_before, [this] { pump(); });
}

void ReplicaMover::start(std::size_t index, cluster::NodeIndex src,
                         cluster::NodeIndex dst) {
  const common::Seconds now = queue_.now();
  Flight f;
  f.move = pending_[index].move;
  f.move.to = dst;
  f.src = src;
  f.retries = pending_[index].retries;
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));

  f.grant = network_.request(src, dst, block_bytes_, now);
  const std::uint64_t ticket = f.grant.ticket;
  f.done =
      queue_.schedule(f.grant.end, [this, ticket] { on_transfer_done(ticket); });
  ++stats_.started;
  count(ctr_started_);
  trace({.type = vocabulary_.start,
         .node = dst,
         .peer = src,
         .task = static_cast<std::uint32_t>(f.move.block),
         .aux = static_cast<std::uint32_t>(f.retries),
         .ticket = ticket,
         .v0 = f.grant.start,
         .v1 = f.grant.end});
  in_flight_.push_back(std::move(f));
}

ReplicaMover::Flight ReplicaMover::take_flight(std::size_t index) {
  Flight f = std::move(in_flight_[index]);
  in_flight_[index] = std::move(in_flight_.back());
  in_flight_.pop_back();
  return f;
}

void ReplicaMover::on_transfer_done(std::uint64_t ticket) {
  const auto it =
      std::find_if(in_flight_.begin(), in_flight_.end(),
                   [ticket](const Flight& f) { return f.grant.ticket == ticket; });
  if (it == in_flight_.end()) return;  // aborted concurrently
  const Flight f = take_flight(static_cast<std::size_t>(it - in_flight_.begin()));

  network_.on_transfer_complete(block_bytes_);
  ++stats_.landed;
  stats_.bytes_moved += block_bytes_;
  count(ctr_landed_);
  count(ctr_bytes_, static_cast<double>(block_bytes_));
  trace({.type = vocabulary_.landed,
         .node = f.move.to,
         .peer = f.src,
         .task = static_cast<std::uint32_t>(f.move.block),
         .ticket = f.grant.ticket,
         .v0 = static_cast<double>(block_bytes_)});
  land(f);
  pump();
}

void ReplicaMover::fail_touching(cluster::NodeIndex node, bool as_source) {
  // take_flight erases by swap, so walk backwards.
  for (std::size_t i = in_flight_.size(); i-- > 0;) {
    const Flight& f = in_flight_[i];
    if (f.move.to != node && !(as_source && f.src == node)) continue;
    Flight failed = take_flight(i);
    failed.done.cancel();
    network_.abort(failed.grant, queue_.now());
    // A migration keeps its pending move (when the destination survived):
    // the next start re-validates it and redraws only if it is gone.
    schedule_retry({failed.move, failed.retries, 0.0},
                   obs::TraceReason::kNodeDown);
  }
  pump();
}

void ReplicaMover::schedule_retry(Item item, obs::TraceReason reason) {
  const int attempt = item.retries + 1;
  if (attempt > max_retries_) {
    ++stats_.giveups;
    count(ctr_giveups_);
    trace({.type = vocabulary_.giveup,
           .task = static_cast<std::uint32_t>(item.move.block),
           .aux = static_cast<std::uint32_t>(attempt)});
    abandon(item.move);
    return;
  }
  ++stats_.retries;
  count(ctr_retries_);
  const double delay = backoff_delay(kBackoff, item.retries, rng_);
  const common::Seconds next = queue_.now() + delay;
  trace({.type = vocabulary_.retry,
         .reason = reason,
         .task = static_cast<std::uint32_t>(item.move.block),
         .aux = static_cast<std::uint32_t>(attempt),
         .v0 = next});
  item.retries = attempt;
  item.not_before = next;
  pending_.push_back(item);
  queue_.schedule(next, [this] { pump(); });
}

}  // namespace adapt::sim
