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
                   config.max_concurrent, config.max_retries, config.backoff,
                   rng, kVocabulary),
      enabled_(config.enabled) {}

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

void ReReplicator::enqueue(hdfs::BlockId block) {
  if (!enabled_ || tracked(block)) return;
  // Nothing to copy from (the data is gone; the job layer decides what
  // that means), or already at target.
  const std::size_t replicas = namenode_.block(block).replicas.size();
  if (replicas == 0 ||
      static_cast<int>(replicas) >= target_replication(block)) {
    return;
  }
  tracked_.push_back(block);
  admit({.move = {.block = block}});
}

void ReReplicator::abandon(const hdfs::ReplicaMove& move) {
  finish_block(move.block);
}

void ReReplicator::drain() {
  // The scan below erases entries as it goes, so "no candidate" needs a
  // sentinel that can never collide with a shrunken pending_.size().
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  while (below_cap()) {
    // Pick the ready block with the fewest live replicas (ties by id).
    const common::Seconds now = queue_.now();
    std::size_t best = kNone;
    std::size_t best_replicas = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < pending_.size();) {
      const Item& item = pending_[i];
      const hdfs::BlockInfo& info = namenode_.block(item.move.block);
      // Lost while waiting (its last holder died too), or repaired by
      // other means.
      if (info.replicas.empty() ||
          static_cast<int>(info.replicas.size()) >=
              target_replication(item.move.block)) {
        finish_block(item.move.block);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const bool has_source =
          std::any_of(info.replicas.begin(), info.replicas.end(),
                      [this](cluster::NodeIndex n) { return up_.test(n); });
      if (item.not_before <= now && has_source &&
          (info.replicas.size() < best_replicas ||
           (info.replicas.size() == best_replicas &&
            item.move.block < pending_[best].move.block))) {
        best = i;
        best_replicas = info.replicas.size();
      }
      ++i;
    }
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
