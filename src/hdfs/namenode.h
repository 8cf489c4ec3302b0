// The NameNode: centralized file/block metadata plus the placement
// decision point ADAPT hooks into (paper Fig. 2, "Data Block
// Distributor").
//
// Placement flow per replica: the NameNode builds the eligibility mask
// (distinct replicas per block, nodes not declared dead, optional
// caller-supplied mask such as "node currently up"), applies the
// Section IV-C fidelity cap when configured, and delegates the draw to
// the active PlacementPolicy. DataNode disks are unbounded: the cap is
// what bounds disk skew.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/fault_domains.h"
#include "cluster/node_mask.h"
#include "common/rng.h"
#include "hdfs/block.h"
#include "placement/policy.h"

namespace adapt::hdfs {

// A replica move produced by the rebalancer. The move is *pending*
// until the caller streams the bytes and calls commit_move (or gives
// up and calls abort_move); the destination holds no readable replica
// while the move is in flight.
struct ReplicaMove {
  BlockId block = 0;
  cluster::NodeIndex from = 0;
  cluster::NodeIndex to = 0;
};

class NameNode {
 public:
  struct Options {
    // Apply the Section IV-C threshold m(k+1)/n per load. The cap is
    // computed per create_file/rebalance call from that call's block
    // count and replication, unless cap_override is non-zero.
    bool fidelity_cap = false;
    std::uint64_t cap_override = 0;
  };

  // Defensive-accounting counters (dedupe guards, revive reclaim);
  // monotonic over the NameNode's lifetime.
  struct Stats {
    std::uint64_t duplicate_replica_inserts = 0;
    std::uint64_t over_replicated_trimmed = 0;
    std::uint64_t replicas_restored = 0;
  };

  // Throws std::invalid_argument when node_count is 0.
  explicit NameNode(std::size_t node_count);
  NameNode(std::size_t node_count, Options options);

  std::size_t node_count() const { return placeable_.size(); }

  // Install the cluster's fault-domain hierarchy. With `anti_affine`
  // set, every eligibility mask additionally excludes domains already
  // holding (or about to receive) a replica of the block, falling back
  // to the fewest-replicas-per-domain rule when every live domain holds
  // one (see FaultDomains::restrict_anti_affine). The hierarchy also
  // steers the excess-replica trim on revive regardless of the flag.
  void set_fault_domains(
      std::shared_ptr<const cluster::FaultDomains> domains,
      bool anti_affine);
  const cluster::FaultDomains* fault_domains() const {
    return domains_.get();
  }

  const Stats& stats() const { return stats_; }

  // Extra eligibility the environment imposes (e.g. only up nodes can
  // receive data during a load). Null = everything eligible.
  using NodeFilter = std::function<bool(cluster::NodeIndex)>;

  // Create a file of `num_blocks` blocks, placing `replication` replicas
  // of each through `policy`. Throws std::runtime_error, registering
  // nothing, when fewer than `replication` nodes are placeable and pass
  // the filter. Returns the FileId.
  FileId create_file(const std::string& name, std::uint32_t num_blocks,
                     int replication, const placement::PolicyPtr& policy,
                     common::Rng& rng, const NodeFilter& filter = nullptr);

  // Re-place every replica of an existing file through `policy` (the
  // `adapt` shell command / rebalance). Replicas whose new draw equals an
  // existing location stay put; others become *pending* moves
  // (begin_move): block metadata is untouched until the caller commits
  // each move after the bytes have actually been transferred. Returns
  // the pending moves.
  std::vector<ReplicaMove> rebalance_file(
      FileId file, const placement::PolicyPtr& policy, common::Rng& rng,
      const NodeFilter& filter = nullptr);

  // -- Pending-move state machine -----------------------------------
  // begin_move records an in-flight migration without making the
  // replica readable at `to`; commit_move flips the metadata (add at
  // `to`, drop at `from`) once the bytes have landed; abort_move drops
  // the record with no metadata change. Invariants enforced: `from`
  // must hold the block and `to` must not (nor already be a pending
  // target for it); `to` must be alive. commit_move tolerates `from`
  // having been written off by a node death mid-transfer (the new
  // replica still lands).
  void begin_move(BlockId block, cluster::NodeIndex from,
                  cluster::NodeIndex to);
  void commit_move(BlockId block, cluster::NodeIndex from,
                   cluster::NodeIndex to);
  void abort_move(BlockId block, cluster::NodeIndex from,
                  cluster::NodeIndex to);
  bool has_pending_move(BlockId block, cluster::NodeIndex from,
                        cluster::NodeIndex to) const;
  const std::vector<ReplicaMove>& pending_moves() const {
    return pending_moves_;
  }

  // Eligibility mask for placing a brand-new replica of `block` right
  // now: placeable nodes minus current holders minus pending-move
  // targets (a node already receiving the block must not be drawn
  // again). Shared by re-replication and migration redraws.
  cluster::NodeMask eligibility_for_new_replica(BlockId block) const;

  bool has_file(const std::string& name) const;
  FileId file_id(const std::string& name) const;
  const FileInfo& file(FileId id) const;
  const BlockInfo& block(BlockId id) const;
  std::size_t block_count() const { return blocks_.size(); }

  // Per-node replica counts for a single file (experiment metric).
  std::vector<std::uint64_t> file_distribution(FileId id) const;

  const Options& options() const { return options_; }

  // Replica-level mutation, used by rebalance internally and available
  // for failure-injection tests. add_replica dedupes on insert: asking
  // to register a holder already present is counted
  // (stats().duplicate_replica_inserts) and ignored, so a policy or
  // migration bug can never double-count a holder in locality or loss
  // accounting.
  void add_replica(BlockId block, cluster::NodeIndex node);
  void remove_replica(BlockId block, cluster::NodeIndex node);

  // -- Dead-node registry -------------------------------------------
  // Declare a node dead: every replica it held is written off (the
  // block map forgets them) and the affected blocks are returned, each
  // once and in ascending order, for re-replication. Pending moves
  // *into* the node are dropped; pending moves *out* stay — the
  // migration driver re-sources them from a surviving holder. The node
  // is ineligible for placement until revived. Idempotent: a second
  // call returns nothing.
  std::vector<BlockId> mark_node_dead(cluster::NodeIndex node);

  // What revive_node did: the blocks whose disk copy was re-registered
  // on the revived node, and the excess replicas reclaimed (block +
  // the holder whose copy was dropped — the revived node itself when
  // its disk copy was the redundant one).
  struct ReplicaDrop {
    BlockId block = 0;
    cluster::NodeIndex node = 0;
  };
  struct ReviveReport {
    std::vector<BlockId> restored;
    std::vector<ReplicaDrop> trimmed;
  };

  // A dead node came back. Its disk still holds every replica written
  // off at death (a false dead declaration deletes metadata, not
  // bytes), so the revive acts as an HDFS block report: each surviving
  // copy is re-registered, and any block the restore pushes past its
  // target replication is trimmed back — preferring to drop a holder
  // whose domain holds a duplicate, so the reclaim improves domain
  // spread rather than fighting it. Counted in
  // stats().replicas_restored / stats().over_replicated_trimmed.
  ReviveReport revive_node(cluster::NodeIndex node);

  bool is_dead(cluster::NodeIndex node) const {
    return !placeable_.test(node);
  }

  // Nodes that can receive a replica: those not declared dead. Only
  // mark_node_dead and revive_node change it; per-draw eligibility is
  // this mask AND the caller filter minus the block's current holders.
  const cluster::NodeMask& placement_mask() const { return placeable_; }

 private:
  // The fidelity cap for one create_file/rebalance_file call placing
  // `blocks` blocks at `replication`: the most replicas the call may put
  // on one node, or 0 when the cap is off.
  std::uint64_t cap_limit(std::uint64_t blocks, int replication) const;

  // Per-draw eligibility: placeable nodes passing `filter_mask` (the
  // caller filter materialized once per call; null = no filter) minus
  // the block's holders, restricted by anti-affinity. `block_id`, when
  // known, additionally excludes the block's pending-move targets
  // (create_file passes nullopt: a brand-new block has none).
  cluster::NodeMask eligibility(const BlockInfo& info,
                                const cluster::NodeMask* filter_mask,
                                std::optional<BlockId> block_id) const;

  // Index of the pending entry for (block, from, to), or npos.
  std::size_t find_pending(BlockId block, cluster::NodeIndex from,
                           cluster::NodeIndex to) const;

  // Evaluate a caller NodeFilter into a mask, once per call (nullopt
  // when there is no filter). Filters are pure within one call: the
  // NameNode is synchronous, so node state cannot change mid-call.
  std::optional<cluster::NodeMask> materialize_filter(
      const NodeFilter& filter) const;

  // Drop `node` from the block's holders, leaving the per-node block
  // lists alone.
  void unlink_replica(BlockId block, cluster::NodeIndex node);
  // Keep the per-node block lists current once they exist.
  void index_add(BlockId block, cluster::NodeIndex node);
  void index_remove(BlockId block, cluster::NodeIndex node);

  // Trim victim when restoring `node`'s disk copy of an over-replicated
  // block: an existing holder sharing a domain with another holder
  // (swapping it for the disk copy improves spread), or nullopt when the
  // disk copy itself is the redundant one.
  std::optional<cluster::NodeIndex> trim_victim(
      const BlockInfo& info, cluster::NodeIndex node) const;

  Options options_;
  std::vector<FileInfo> files_;
  std::unordered_map<std::string, FileId> files_by_name_;
  std::vector<BlockInfo> blocks_;
  cluster::NodeMask placeable_;
  std::vector<ReplicaMove> pending_moves_;
  // Blocks whose replica on node i was written off by mark_node_dead —
  // the "what is still on its disk" ledger revive_node restores from.
  std::vector<std::vector<BlockId>> written_off_;
  // The blocks each node holds a replica of, unordered (HDFS's
  // per-DataNode block list), so a death costs the node's blocks rather
  // than a scan of every block. Built by the first mark_node_dead and
  // kept current by every replica mutation from then on; empty before,
  // so a run that declares no node dead never pays for it. Ids are 32
  // bits wide, as in trace records.
  std::vector<std::vector<std::uint32_t>> held_;
  std::shared_ptr<const cluster::FaultDomains> domains_;
  bool anti_affine_ = false;
  Stats stats_;
};

}  // namespace adapt::hdfs
