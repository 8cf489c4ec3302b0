// NameNode re-replication pipeline: restores the replication factor of
// blocks whose holders were declared dead (volunteer churn), draining a
// prioritized under-replicated queue over the bounded-bandwidth network.
//
// Queue discipline: fewest live replicas first (ties by block id) — the
// blocks closest to loss are repaired first, matching HDFS's replication
// priority queues. The drain is throttled by a concurrent-transfer cap so
// recovery traffic cannot starve job traffic; retry, backoff and give-up
// are the ReplicaMover's (sim/replica_mover.h). A block given up on may
// still be readable from its surviving replicas.
//
// Source: the live replica holder whose uplink frees up earliest.
// Destination: drawn from the active placement policy over nodes that are
// up, not dead and not already holding the block — the caller refreshes the policy with current (lambda, mu) estimates via
// set_policy whenever its availability beliefs change.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/replica_mover.h"

namespace adapt::sim {

class ReReplicator : public ReplicaMover {
 public:
  struct Config {
    bool enabled = true;
    int max_concurrent = 4;  // transfer cap (recovery vs job bandwidth)
    int max_retries = 6;
  };

  using ReplicatedFn = std::function<void(hdfs::BlockId, cluster::NodeIndex)>;

  // `up` is the injector's up mask; it must outlive the ReReplicator.
  ReReplicator(EventQueue& queue, hdfs::NameNode& namenode,
               cluster::Network& network, std::uint64_t block_bytes,
               Config config, common::Rng rng, const cluster::NodeMask& up);

  // A replica landed (block, destination) — wire scheduler updates here.
  void set_on_replicated(ReplicatedFn fn) { on_replicated_ = std::move(fn); }

  // Admit a block that dropped below its target replication. Blocks
  // already queued or in flight are ignored; blocks with zero live
  // replicas are unrecoverable and dropped (the job layer handles data
  // loss). No-op when disabled.
  void enqueue(hdfs::BlockId block);

 private:
  // Start repairs, ready blocks with the fewest live replicas first.
  void drain() override;
  // Add the landed replica while the block is still short, then queue
  // its next copy or let it go.
  void land(const Flight& flight) override;
  void abandon(const hdfs::ReplicaMove& move) override;
  bool start_repair(std::size_t pending_index);

  int target_replication(hdfs::BlockId block) const;
  bool tracked(hdfs::BlockId block) const {
    return block < tracked_.size() && tracked_[block];
  }
  void finish_block(hdfs::BlockId block) { tracked_[block] = false; }

  bool enabled_;
  ReplicatedFn on_replicated_;
  // Per block: pending or in flight. Sized from the NameNode's block
  // count; a block created later grows it on its first enqueue.
  std::vector<bool> tracked_;
};

}  // namespace adapt::sim
