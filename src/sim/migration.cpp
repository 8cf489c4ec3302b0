#include "sim/migration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapt::sim {

namespace {

constexpr ReplicaMover::Vocabulary kVocabulary{
    .name = "migration",
    .span = "migration_batch",
    .landed_metric = "migration.committed",
    .backlog_metric = "migration.backlog_max",
    .start = obs::EventType::kMigrationStart,
    .landed = obs::EventType::kMigrationCommit,
    .retry = obs::EventType::kMigrationRetry,
    .giveup = obs::EventType::kMigrationGiveup};

}  // namespace

MigrationDriver::MigrationDriver(EventQueue& queue, hdfs::NameNode& namenode,
                                 cluster::Network& network,
                                 std::uint64_t block_bytes, Config config,
                                 common::Rng rng, const cluster::NodeMask& up)
    : ReplicaMover(queue, namenode, network, up, block_bytes,
                   config.max_concurrent, config.max_retries, rng,
                   kVocabulary),
      budget_bytes_per_s_(config.budget_bytes_per_s) {
  if (budget_bytes_per_s_ < 0 || !std::isfinite(budget_bytes_per_s_)) {
    throw std::invalid_argument("migration: bad budget_bytes_per_s");
  }
}

void MigrationDriver::set_metrics(obs::MetricsRegistry* metrics) {
  ReplicaMover::set_metrics(metrics);
  if (metrics == nullptr) return;
  ctr_submitted_ = metrics->counter("migration.submitted");
  ctr_redraws_ = metrics->counter("migration.redraws");
}

void MigrationDriver::abandon(const hdfs::ReplicaMove& move) {
  // The pending move can already be gone: mark_node_dead sweeps pending
  // moves into a dead node on the NameNode side.
  if (namenode_.has_pending_move(move.block, move.from, move.to)) {
    namenode_.abort_move(move.block, move.from, move.to);
  }
}

void MigrationDriver::submit(const hdfs::ReplicaMove& move) {
  if (!namenode_.has_pending_move(move.block, move.from, move.to)) {
    throw std::logic_error("migration: submit without begin_move");
  }
  ++move_stats_.submitted;
  count(ctr_submitted_);
  admit({.move = move});
}

void MigrationDriver::cancel_all() {
  for (Flight& f : in_flight_) {
    f.done.cancel();
    network_.abort(f.grant, queue_.now());
    abandon(f.move);
  }
  for (const Item& item : pending_) abandon(item.move);
  move_stats_.cancelled += in_flight_.size() + pending_.size();
  in_flight_.clear();
  pending_.clear();
}

void MigrationDriver::drain() {
  while (below_cap()) {
    // FIFO: the earliest-submitted move whose backoff gate has passed.
    const common::Seconds now = queue_.now();
    const auto ready =
        std::find_if(pending_.begin(), pending_.end(),
                     [now](const Item& item) { return item.not_before <= now; });
    if (ready == pending_.end()) return;  // nothing ready
    if (budget_bytes_per_s_ > 0.0 && budget_free_at_ > now) {
      // Rate budget exhausted: even the head move must wait, keeping
      // starts strictly in submission order under the budget.
      queue_.schedule(budget_free_at_, [this] { pump(); });
      return;
    }
    start_move(static_cast<std::size_t>(ready - pending_.begin()));
  }
}

void MigrationDriver::start_move(std::size_t index) {
  hdfs::ReplicaMove& move = pending_[index].move;
  const hdfs::BlockInfo& info = namenode_.block(move.block);
  if (!info.hosted_on(move.from)) {
    // The holder being vacated no longer holds the block (its death
    // wrote the replica off; re-replication owns restoring the count).
    // The move is moot.
    abandon(move);
    ++move_stats_.cancelled;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    return;
  }

  if (!namenode_.has_pending_move(move.block, move.from, move.to) ||
      !up_.test(move.to)) {
    // Destination died (pending move swept) or is down: redraw a fresh
    // target from the active policy.
    abandon(move);
    const std::optional<cluster::NodeIndex> dst = draw_replica_target(
        namenode_, move.block,
        static_cast<std::uint32_t>(info.replicas.size()), up_, *policy_,
        rng_);
    if (!dst) {
      defer(index);
      return;
    }
    namenode_.begin_move(move.block, move.from, *dst);
    move.to = *dst;
    ++move_stats_.redraws;
    count(ctr_redraws_);
  }

  // The vacating holder gets no preference as the byte source.
  const std::optional<cluster::NodeIndex> src =
      pick_transfer_source(info.replicas, network_, up_);
  if (!src) {
    defer(index);  // every holder is down; keep the pending move
    return;
  }
  if (budget_bytes_per_s_ > 0.0) {
    budget_free_at_ = std::max(budget_free_at_, queue_.now()) +
                      static_cast<double>(block_bytes_) / budget_bytes_per_s_;
  }
  start(index, *src, move.to);
}

void MigrationDriver::land(const Flight& flight) {
  const hdfs::ReplicaMove& move = flight.move;
  namenode_.commit_move(move.block, move.from, move.to);
  if (on_committed_) on_committed_(move.block, move.from, move.to);
}

}  // namespace adapt::sim
