#include "sim/rereplication.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace adapt::sim {

ReReplicator::ReReplicator(EventQueue& queue, hdfs::NameNode& namenode,
                           cluster::Network& network,
                           std::uint64_t block_bytes, Config config,
                           common::Rng rng, NodeUpFn node_up)
    : queue_(queue),
      namenode_(namenode),
      network_(network),
      block_bytes_(block_bytes),
      config_(config),
      rng_(rng),
      node_up_(std::move(node_up)) {
  if (config_.max_concurrent < 1) {
    throw std::invalid_argument("rereplication: max_concurrent must be >= 1");
  }
  if (config_.max_retries < 0 || !backoff_params_valid(config_.backoff)) {
    throw std::invalid_argument("rereplication: bad backoff config");
  }
  if (!node_up_) {
    throw std::invalid_argument("rereplication: node_up callback required");
  }
}

void ReReplicator::set_policy(placement::PolicyPtr policy) {
  policy_ = std::move(policy);
}

void ReReplicator::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  ctr_started_ = metrics_->counter("rereplication.started");
  ctr_completed_ = metrics_->counter("rereplication.completed");
  ctr_retries_ = metrics_->counter("rereplication.retries");
  ctr_giveups_ = metrics_->counter("rereplication.giveups");
  ctr_bytes_ = metrics_->counter("rereplication.bytes");
  gauge_backlog_ = metrics_->gauge("rereplication.under_replicated_max");
}

int ReReplicator::target_replication(hdfs::BlockId block) const {
  return namenode_.file(namenode_.block(block).file).replication;
}

bool ReReplicator::tracked(hdfs::BlockId block) const {
  return std::find(tracked_.begin(), tracked_.end(), block) !=
         tracked_.end();
}

void ReReplicator::finish_block(hdfs::BlockId block) {
  const auto it = std::find(tracked_.begin(), tracked_.end(), block);
  if (it != tracked_.end()) tracked_.erase(it);
}

void ReReplicator::note_backlog() {
  const auto depth = static_cast<std::uint64_t>(backlog());
  if (depth > stats_.max_under_replicated) {
    stats_.max_under_replicated = depth;
    if (metrics_ != nullptr) {
      metrics_->set(gauge_backlog_, static_cast<double>(depth));
    }
  }
}

void ReReplicator::enqueue(hdfs::BlockId block) {
  if (!config_.enabled) return;
  if (tracked(block)) return;
  const hdfs::BlockInfo& info = namenode_.block(block);
  if (info.replicas.empty()) {
    // Nothing to copy from: the data is gone. The job layer decides what
    // that means (origin re-fetch or a structured loss report).
    ++stats_.unrecoverable;
    return;
  }
  if (static_cast<int>(info.replicas.size()) >= target_replication(block)) {
    return;  // already at target
  }
  ++stats_.enqueued;
  tracked_.push_back(block);
  pending_.push_back({block, 0, 0.0});
  note_backlog();
  pump();
}

void ReReplicator::on_node_up(cluster::NodeIndex node) {
  (void)node;  // any returning node may unblock a source or destination
  if (!config_.enabled) return;
  pump();
}

void ReReplicator::on_node_down(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/true);
}

void ReReplicator::on_node_written_off(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/false);
}

void ReReplicator::fail_touching(cluster::NodeIndex node, bool as_source) {
  if (!config_.enabled) return;
  // fail_transfer erases by swap, so walk backwards.
  for (std::size_t i = in_flight_.size(); i-- > 0;) {
    const Transfer& t = in_flight_[i];
    if (t.dst == node || (as_source && t.src == node)) {
      fail_transfer(i, obs::TraceReason::kNodeDown);
    }
  }
  pump();
}

void ReReplicator::pump() {
  if (!policy_) return;  // not armed yet
  const bool profile = spans_ != nullptr && !pending_.empty();
  if (profile) spans_->begin("rereplication_batch", span_clock_->now());
  drain();
  if (profile) spans_->end(span_clock_->now());
}

void ReReplicator::drain() {
  // The scan below erases entries as it goes, so "no candidate" needs a
  // sentinel that can never collide with a shrunken pending_.size().
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  while (static_cast<int>(in_flight_.size()) < config_.max_concurrent) {
    // Pick the ready block with the fewest live replicas (ties by id).
    const common::Seconds now = queue_.now();
    std::size_t best = kNone;
    std::size_t best_replicas = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < pending_.size();) {
      const Repair& rep = pending_[i];
      const hdfs::BlockInfo& info = namenode_.block(rep.block);
      if (info.replicas.empty()) {
        // Lost while waiting (its last holder died too).
        ++stats_.unrecoverable;
        finish_block(rep.block);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (static_cast<int>(info.replicas.size()) >=
          target_replication(rep.block)) {
        finish_block(rep.block);  // repaired by other means
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const bool has_source =
          std::any_of(info.replicas.begin(), info.replicas.end(),
                      [this](cluster::NodeIndex n) { return node_up_(n); });
      if (rep.not_before <= now && has_source &&
          (info.replicas.size() < best_replicas ||
           (info.replicas.size() == best_replicas &&
            rep.block < pending_[best].block))) {
        best = i;
        best_replicas = info.replicas.size();
      }
      ++i;
    }
    if (best == kNone) return;        // nothing ready
    if (!start_repair(best)) return;  // no destination available now
  }
}

bool ReReplicator::start_repair(std::size_t pending_index) {
  const Repair rep = pending_[pending_index];
  const common::Seconds now = queue_.now();
  const hdfs::BlockInfo& info = namenode_.block(rep.block);

  const std::optional<cluster::NodeIndex> src =
      pick_transfer_source(info.replicas, network_, node_up_);
  if (!src) return false;  // raced with an outage; pump again later

  // Keyed on the replica ordinal being recreated: consistent-hash
  // policies recover the block's original bucket.
  const std::optional<cluster::NodeIndex> dst = draw_replica_target(
      namenode_, rep.block, static_cast<std::uint32_t>(info.replicas.size()),
      node_up_, *policy_, rng_);
  if (!dst) {
    // No landing spot right now (everything up is full or a holder).
    // Gate this block behind a flat delay and let the pump move on; the
    // retry budget is not consumed — a full cluster is not a transfer
    // failure.
    Repair& entry = pending_[pending_index];
    entry.not_before = now + std::max(config_.backoff.base, 1.0);
    queue_.schedule(entry.not_before, [this] { pump(); });
    return true;
  }

  pending_.erase(pending_.begin() +
                 static_cast<std::ptrdiff_t>(pending_index));

  Transfer t;
  t.block = rep.block;
  t.src = *src;
  t.dst = *dst;
  t.retries = rep.retries;
  t.grant = network_.request(*src, *dst, block_bytes_, now);
  const std::uint64_t ticket = t.grant.ticket;
  t.done =
      queue_.schedule(t.grant.end, [this, ticket] { on_transfer_done(ticket); });
  ++stats_.started;
  if (metrics_ != nullptr) metrics_->add(ctr_started_);
  trace({.type = obs::EventType::kRereplicationStart,
         .node = t.dst,
         .peer = t.src,
         .task = static_cast<std::uint32_t>(t.block),
         .aux = static_cast<std::uint32_t>(t.retries),
         .ticket = t.grant.ticket,
         .v0 = t.grant.start,
         .v1 = t.grant.end});
  in_flight_.push_back(std::move(t));
  return true;
}

void ReReplicator::on_transfer_done(std::uint64_t ticket) {
  std::size_t index = in_flight_.size();
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].grant.ticket == ticket) {
      index = i;
      break;
    }
  }
  if (index == in_flight_.size()) return;  // aborted concurrently
  const Transfer t = std::move(in_flight_[index]);
  in_flight_[index] = std::move(in_flight_.back());
  in_flight_.pop_back();

  network_.on_transfer_complete(block_bytes_);
  // A migration commit can beat this transfer to the same destination
  // (the replica is then already registered there), and a revive block
  // report can refill the block mid-transfer — never push the replica
  // count past target, and only announce a copy that actually landed.
  bool added = false;
  {
    const hdfs::BlockInfo& pre = namenode_.block(t.block);
    if (!pre.hosted_on(t.dst) &&
        static_cast<int>(pre.replicas.size()) <
            target_replication(t.block)) {
      namenode_.add_replica(t.block, t.dst);
      added = true;
    }
  }
  ++stats_.completed;
  stats_.bytes_moved += block_bytes_;
  if (metrics_ != nullptr) {
    metrics_->add(ctr_completed_);
    metrics_->add(ctr_bytes_, static_cast<double>(block_bytes_));
  }
  trace({.type = obs::EventType::kRereplicationDone,
         .node = t.dst,
         .peer = t.src,
         .task = static_cast<std::uint32_t>(t.block),
         .ticket = t.grant.ticket,
         .v0 = static_cast<double>(block_bytes_)});

  const hdfs::BlockInfo& info = namenode_.block(t.block);
  if (static_cast<int>(info.replicas.size()) < target_replication(t.block)) {
    // Still short (the block lost more than one holder): queue the next
    // copy with a fresh retry budget.
    pending_.push_back({t.block, 0, 0.0});
  } else {
    finish_block(t.block);
  }
  if (added && on_replicated_) on_replicated_(t.block, t.dst);
  pump();
}

void ReReplicator::fail_transfer(std::size_t index, obs::TraceReason reason) {
  Transfer t = std::move(in_flight_[index]);
  in_flight_[index] = std::move(in_flight_.back());
  in_flight_.pop_back();
  t.done.cancel();
  network_.abort(t.grant, queue_.now());
  schedule_retry(t.block, t.retries, reason);
}

void ReReplicator::schedule_retry(hdfs::BlockId block, int retries_done,
                                  obs::TraceReason reason) {
  const int attempt = retries_done + 1;
  if (attempt > config_.max_retries) {
    ++stats_.giveups;
    if (metrics_ != nullptr) metrics_->add(ctr_giveups_);
    trace({.type = obs::EventType::kRereplicationGiveup,
           .task = static_cast<std::uint32_t>(block),
           .aux = static_cast<std::uint32_t>(attempt)});
    finish_block(block);
    return;
  }
  ++stats_.retries;
  if (metrics_ != nullptr) metrics_->add(ctr_retries_);
  const double delay = backoff_delay(config_.backoff, retries_done, rng_);
  const common::Seconds next = queue_.now() + delay;
  trace({.type = obs::EventType::kRereplicationRetry,
         .reason = reason,
         .task = static_cast<std::uint32_t>(block),
         .aux = static_cast<std::uint32_t>(attempt),
         .v0 = next});
  pending_.push_back({block, attempt, next});
  queue_.schedule(next, [this] { pump(); });
}

}  // namespace adapt::sim
