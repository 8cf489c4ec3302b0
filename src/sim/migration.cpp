#include "sim/migration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapt::sim {

MigrationDriver::MigrationDriver(EventQueue& queue, hdfs::NameNode& namenode,
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
    throw std::invalid_argument("migration: max_concurrent must be >= 1");
  }
  if (config_.budget_bytes_per_s < 0 ||
      !std::isfinite(config_.budget_bytes_per_s)) {
    throw std::invalid_argument("migration: bad budget_bytes_per_s");
  }
  if (config_.max_retries < 0 || !backoff_params_valid(config_.backoff)) {
    throw std::invalid_argument("migration: bad backoff config");
  }
  if (!node_up_) {
    throw std::invalid_argument("migration: node_up callback required");
  }
}

void MigrationDriver::set_policy(placement::PolicyPtr policy) {
  policy_ = std::move(policy);
}

void MigrationDriver::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  ctr_submitted_ = metrics_->counter("migration.submitted");
  ctr_started_ = metrics_->counter("migration.started");
  ctr_committed_ = metrics_->counter("migration.committed");
  ctr_retries_ = metrics_->counter("migration.retries");
  ctr_giveups_ = metrics_->counter("migration.giveups");
  ctr_redraws_ = metrics_->counter("migration.redraws");
  ctr_bytes_ = metrics_->counter("migration.bytes");
  gauge_backlog_ = metrics_->gauge("migration.backlog_max");
}

void MigrationDriver::note_backlog() {
  const auto depth = static_cast<std::uint64_t>(backlog());
  if (depth > stats_.max_backlog) {
    stats_.max_backlog = depth;
    if (metrics_ != nullptr) {
      metrics_->set(gauge_backlog_, static_cast<double>(depth));
    }
  }
}

void MigrationDriver::release_reservation(const hdfs::ReplicaMove& move) {
  // The reservation can already be gone: mark_node_dead sweeps pending
  // moves into a dead node on the NameNode side.
  if (namenode_.has_pending_move(move.block, move.from, move.to)) {
    namenode_.abort_move(move.block, move.from, move.to);
  }
}

void MigrationDriver::submit(const hdfs::ReplicaMove& move) {
  if (!namenode_.has_pending_move(move.block, move.from, move.to)) {
    throw std::logic_error("migration: submit without begin_move");
  }
  ++stats_.submitted;
  if (metrics_ != nullptr) metrics_->add(ctr_submitted_);
  pending_.push_back({move, 0, 0.0});
  note_backlog();
  pump();
}

void MigrationDriver::on_node_up(cluster::NodeIndex node) {
  (void)node;  // any returning node may unblock a source
  pump();
}

void MigrationDriver::on_node_down(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/true);
}

void MigrationDriver::on_node_written_off(cluster::NodeIndex node) {
  fail_touching(node, /*as_source=*/false);
}

void MigrationDriver::fail_touching(cluster::NodeIndex node, bool as_source) {
  // fail_flight erases by swap, so walk backwards.
  for (std::size_t i = in_flight_.size(); i-- > 0;) {
    const Flight& f = in_flight_[i];
    if (f.move.to == node || (as_source && f.src == node)) {
      fail_flight(i, obs::TraceReason::kNodeDown);
    }
  }
  pump();
}

void MigrationDriver::cancel_all() {
  for (Flight& f : in_flight_) {
    f.done.cancel();
    network_.abort(f.grant, queue_.now());
    release_reservation(f.move);
    ++stats_.cancelled;
  }
  in_flight_.clear();
  for (const Item& item : pending_) {
    release_reservation(item.move);
    ++stats_.cancelled;
  }
  pending_.clear();
}

void MigrationDriver::pump() {
  if (!policy_) return;  // not armed yet
  const bool profile = spans_ != nullptr && !pending_.empty();
  if (profile) spans_->begin("migration_batch", span_clock_->now());
  drain();
  if (profile) spans_->end(span_clock_->now());
}

void MigrationDriver::drain() {
  while (static_cast<int>(in_flight_.size()) < config_.max_concurrent) {
    // FIFO: the earliest-submitted move whose backoff gate has passed.
    const common::Seconds now = queue_.now();
    std::size_t ready = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].not_before <= now) {
        ready = i;
        break;
      }
    }
    if (ready == pending_.size()) return;  // nothing ready
    if (config_.budget_bytes_per_s > 0.0 && budget_free_at_ > now) {
      // Rate budget exhausted: even the head move must wait, keeping
      // starts strictly in submission order under the budget.
      queue_.schedule(budget_free_at_, [this] { pump(); });
      return;
    }
    if (!start_move(ready)) return;
  }
}

bool MigrationDriver::start_move(std::size_t index) {
  const common::Seconds now = queue_.now();
  Item item = pending_[index];
  hdfs::ReplicaMove& move = item.move;

  const hdfs::BlockInfo& info = namenode_.block(move.block);
  if (!info.hosted_on(move.from)) {
    // The holder being vacated no longer holds the block (its death
    // wrote the replica off; re-replication owns restoring the count).
    // The move is moot.
    release_reservation(move);
    ++stats_.cancelled;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    return true;
  }

  if (!namenode_.has_pending_move(move.block, move.from, move.to) ||
      !node_up_(move.to)) {
    // Destination died (reservation swept) or is down: redraw a fresh
    // target from the active policy.
    release_reservation(move);
    const std::optional<cluster::NodeIndex> dst = draw_replica_target(
        namenode_, move.block,
        static_cast<std::uint32_t>(info.replicas.size()), node_up_, *policy_,
        rng_);
    if (!dst) {
      // No landing spot right now: gate behind a flat delay without
      // consuming the retry budget — a full cluster is not a failure.
      pending_[index].not_before = now + std::max(config_.backoff.base, 1.0);
      queue_.schedule(pending_[index].not_before, [this] { pump(); });
      return true;
    }
    namenode_.begin_move(move.block, move.from, *dst);
    move.to = *dst;
    pending_[index].move.to = *dst;
    ++stats_.redraws;
    if (metrics_ != nullptr) metrics_->add(ctr_redraws_);
  }

  // The vacating holder gets no preference as the byte source.
  const std::optional<cluster::NodeIndex> src =
      pick_transfer_source(info.replicas, network_, node_up_);
  if (!src) {
    // Every holder is down; gate and keep the reservation.
    pending_[index].not_before = now + std::max(config_.backoff.base, 1.0);
    queue_.schedule(pending_[index].not_before, [this] { pump(); });
    return true;
  }

  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));

  if (config_.budget_bytes_per_s > 0.0) {
    budget_free_at_ = std::max(budget_free_at_, now) +
                      static_cast<double>(block_bytes_) /
                          config_.budget_bytes_per_s;
  }

  Flight f;
  f.move = move;
  f.src = *src;
  f.retries = item.retries;
  f.grant = network_.request(*src, move.to, block_bytes_, now);
  const std::uint64_t ticket = f.grant.ticket;
  f.done =
      queue_.schedule(f.grant.end, [this, ticket] { on_transfer_done(ticket); });
  ++stats_.started;
  if (metrics_ != nullptr) metrics_->add(ctr_started_);
  trace({.type = obs::EventType::kMigrationStart,
         .node = f.move.to,
         .peer = f.src,
         .task = static_cast<std::uint32_t>(f.move.block),
         .aux = static_cast<std::uint32_t>(f.retries),
         .ticket = f.grant.ticket,
         .v0 = f.grant.start,
         .v1 = f.grant.end});
  in_flight_.push_back(std::move(f));
  return true;
}

void MigrationDriver::on_transfer_done(std::uint64_t ticket) {
  std::size_t index = in_flight_.size();
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].grant.ticket == ticket) {
      index = i;
      break;
    }
  }
  if (index == in_flight_.size()) return;  // aborted concurrently
  const Flight f = std::move(in_flight_[index]);
  in_flight_[index] = std::move(in_flight_.back());
  in_flight_.pop_back();

  network_.on_transfer_complete(block_bytes_);
  namenode_.commit_move(f.move.block, f.move.from, f.move.to);
  ++stats_.committed;
  stats_.bytes_moved += block_bytes_;
  if (metrics_ != nullptr) {
    metrics_->add(ctr_committed_);
    metrics_->add(ctr_bytes_, static_cast<double>(block_bytes_));
  }
  trace({.type = obs::EventType::kMigrationCommit,
         .node = f.move.to,
         .peer = f.src,
         .task = static_cast<std::uint32_t>(f.move.block),
         .ticket = f.grant.ticket,
         .v0 = static_cast<double>(block_bytes_)});
  if (on_committed_) on_committed_(f.move.block, f.move.from, f.move.to);
  pump();
}

void MigrationDriver::fail_flight(std::size_t index, obs::TraceReason reason) {
  Flight f = std::move(in_flight_[index]);
  in_flight_[index] = std::move(in_flight_.back());
  in_flight_.pop_back();
  f.done.cancel();
  network_.abort(f.grant, queue_.now());
  // The reservation (when the destination survived) is kept: the next
  // start re-validates it and redraws only if the destination is gone.
  schedule_retry({f.move, f.retries, 0.0}, reason);
}

void MigrationDriver::schedule_retry(Item item, obs::TraceReason reason) {
  const int attempt = item.retries + 1;
  if (attempt > config_.max_retries) {
    ++stats_.giveups;
    if (metrics_ != nullptr) metrics_->add(ctr_giveups_);
    release_reservation(item.move);
    trace({.type = obs::EventType::kMigrationGiveup,
           .task = static_cast<std::uint32_t>(item.move.block),
           .aux = static_cast<std::uint32_t>(attempt)});
    return;
  }
  ++stats_.retries;
  if (metrics_ != nullptr) metrics_->add(ctr_retries_);
  const double delay = backoff_delay(config_.backoff, item.retries, rng_);
  const common::Seconds next = queue_.now() + delay;
  trace({.type = obs::EventType::kMigrationRetry,
         .reason = reason,
         .task = static_cast<std::uint32_t>(item.move.block),
         .aux = static_cast<std::uint32_t>(attempt),
         .v0 = next});
  item.retries = attempt;
  item.not_before = next;
  pending_.push_back(item);
  note_backlog();
  queue_.schedule(next, [this] { pump(); });
}

}  // namespace adapt::sim
