#include "sim/rereplication.h"

#include <algorithm>
#include <limits>

namespace adapt::sim {

namespace {

constexpr ReplicaMover::Vocabulary kVocabulary{
    .name = "rereplication",
    .span = "rereplication_batch",
    .landed_metric = "rereplication.completed",
    .backlog_metric = "rereplication.under_replicated_max",
    .start = obs::EventType::kRereplicationStart,
    .landed = obs::EventType::kRereplicationDone,
    .retry = obs::EventType::kRereplicationRetry,
    .giveup = obs::EventType::kRereplicationGiveup};

}  // namespace

ReReplicator::ReReplicator(EventQueue& queue, hdfs::NameNode& namenode,
                           cluster::Network& network,
                           std::uint64_t block_bytes, Config config,
                           common::Rng rng, const cluster::NodeMask& up)
    : ReplicaMover(queue, namenode, network, up, block_bytes,
                   config.max_concurrent, config.max_retries, rng,
                   kVocabulary),
      enabled_(config.enabled),
      tracked_(namenode.block_count(), false) {}

int ReReplicator::target_replication(hdfs::BlockId block) const {
  return namenode_.file(namenode_.block(block).file).replication;
}

void ReReplicator::enqueue(hdfs::BlockId block) {
  if (!enabled_ || tracked(block)) return;
  // Nothing to copy from (the data is gone; the job layer decides what
  // that means), or already at target.
  const std::size_t replicas = namenode_.block(block).replicas.size();
  if (replicas == 0 ||
      static_cast<int>(replicas) >= target_replication(block)) {
    return;
  }
  if (block >= tracked_.size()) tracked_.resize(namenode_.block_count());
  tracked_[block] = true;
  admit({.move = {.block = block}});
}

void ReReplicator::abandon(const hdfs::ReplicaMove& move) {
  finish_block(move.block);
}

void ReReplicator::drain() {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  while (below_cap()) {
    // Pick the ready block with the fewest live replicas (ties by id).
    // The same pass drops the entries lost while waiting (their last
    // holder died too) or repaired by other means, keeping the order of
    // the rest.
    const common::Seconds now = queue_.now();
    std::size_t best = kNone;
    std::size_t best_replicas = std::numeric_limits<std::size_t>::max();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Item item = pending_[i];
      const hdfs::BlockInfo& info = namenode_.block(item.move.block);
      const std::size_t replicas = info.replicas.size();
      if (replicas == 0 ||
          static_cast<int>(replicas) >= target_replication(item.move.block)) {
        finish_block(item.move.block);
        continue;
      }
      if (item.not_before <= now &&
          (replicas < best_replicas ||
           (replicas == best_replicas &&
            item.move.block < pending_[best].move.block)) &&
          std::any_of(info.replicas.begin(), info.replicas.end(),
                      [this](cluster::NodeIndex n) { return up_.test(n); })) {
        best = kept;
        best_replicas = replicas;
      }
      pending_[kept++] = item;
    }
    pending_.resize(kept);
    if (best == kNone) return;        // nothing ready
    if (!start_repair(best)) return;  // no source available now
  }
}

bool ReReplicator::start_repair(std::size_t pending_index) {
  const hdfs::BlockId block = pending_[pending_index].move.block;
  const hdfs::BlockInfo& info = namenode_.block(block);

  const std::optional<cluster::NodeIndex> src =
      pick_transfer_source(info.replicas, network_, up_);
  if (!src) return false;  // raced with an outage; pump again later

  // Keyed on the replica ordinal being recreated: consistent-hash
  // policies recover the block's original bucket.
  const std::optional<cluster::NodeIndex> dst = draw_replica_target(
      namenode_, block, static_cast<std::uint32_t>(info.replicas.size()),
      up_, *policy_, rng_);
  if (dst) {
    start(pending_index, *src, *dst);
  } else {
    defer(pending_index);  // and let the pump move on
  }
  return true;
}

void ReReplicator::land(const Flight& flight) {
  const hdfs::BlockId block = flight.move.block;
  const cluster::NodeIndex dst = flight.move.to;
  // A migration commit can beat this transfer to the same destination
  // (the replica is then already registered there), and a revive block
  // report can refill the block mid-transfer — never push the replica
  // count past target, and only announce a copy that actually landed.
  const hdfs::BlockInfo& info = namenode_.block(block);
  const bool added = !info.hosted_on(dst) &&
                     static_cast<int>(info.replicas.size()) <
                         target_replication(block);
  if (added) namenode_.add_replica(block, dst);

  if (static_cast<int>(namenode_.block(block).replicas.size()) <
      target_replication(block)) {
    // Still short (the block lost more than one holder): queue the next
    // copy with a fresh retry budget.
    pending_.push_back({.move = {.block = block}});
  } else {
    finish_block(block);
  }
  if (added && on_replicated_) on_replicated_(block, dst);
}

}  // namespace adapt::sim
