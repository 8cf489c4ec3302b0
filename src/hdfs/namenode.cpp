#include "hdfs/namenode.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::hdfs {

NameNode::NameNode(std::size_t node_count)
    : NameNode(node_count, Options{}) {}

NameNode::NameNode(std::size_t node_count, Options options)
    : options_(options),
      placeable_(node_count, true),
      written_off_(node_count) {
  if (node_count == 0) {
    throw std::invalid_argument("namenode: need at least one node");
  }
}

void NameNode::set_fault_domains(
    std::shared_ptr<const cluster::FaultDomains> domains, bool anti_affine) {
  if (domains && !domains->empty() &&
      domains->node_count() != node_count()) {
    throw std::invalid_argument("set_fault_domains: node count mismatch");
  }
  domains_ = std::move(domains);
  anti_affine_ = anti_affine && domains_ && !domains_->empty();
}

std::optional<cluster::NodeMask> NameNode::materialize_filter(
    const NodeFilter& filter) const {
  if (!filter) return std::nullopt;
  cluster::NodeMask mask(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    const auto node = static_cast<cluster::NodeIndex>(i);
    if (filter(node)) mask.set(i);
  }
  return mask;
}

cluster::NodeMask NameNode::eligibility(
    const BlockInfo& info, const cluster::NodeMask* filter_mask,
    std::optional<BlockId> block_id) const {
  cluster::NodeMask eligible = placeable_;
  if (filter_mask) eligible &= *filter_mask;
  for (const cluster::NodeIndex holder : info.replicas) {
    eligible.reset(holder);
  }
  // A brand-new block (create_file) cannot have pending moves; only
  // callers that pass the id pay the pending scan.
  if (block_id && !pending_moves_.empty()) {
    for (const ReplicaMove& move : pending_moves_) {
      if (move.block == *block_id) eligible.reset(move.to);
    }
  }
  if (anti_affine_) {
    // Cross-domain anti-affinity: a pending-move target will hold a
    // copy too, so its domain is as taken as a holder's.
    std::vector<cluster::NodeIndex> taken = info.replicas;
    if (block_id) {
      for (const ReplicaMove& move : pending_moves_) {
        if (move.block == *block_id) taken.push_back(move.to);
      }
    }
    domains_->restrict_anti_affine(eligible, taken);
  }
  return eligible;
}

cluster::NodeMask NameNode::eligibility_for_new_replica(BlockId block) const {
  return eligibility(blocks_.at(block), nullptr, block);
}

std::uint64_t NameNode::cap_limit(std::uint64_t blocks,
                                  int replication) const {
  if (!options_.fidelity_cap) return 0;
  return options_.cap_override
             ? options_.cap_override
             : placement::fidelity_threshold(blocks, replication,
                                             node_count());
}

FileId NameNode::create_file(const std::string& name,
                             std::uint32_t num_blocks, int replication,
                             const placement::PolicyPtr& policy,
                             common::Rng& rng, const NodeFilter& filter) {
  if (!policy) throw std::invalid_argument("create_file: null policy");
  if (num_blocks == 0) throw std::invalid_argument("create_file: no blocks");
  if (replication < 1 ||
      static_cast<std::size_t>(replication) > node_count()) {
    throw std::invalid_argument("create_file: bad replication");
  }
  if (files_by_name_.count(name)) {
    throw std::invalid_argument("create_file: file exists: " + name);
  }

  const auto id = static_cast<FileId>(files_.size());
  FileInfo file_info;
  file_info.name = name;
  file_info.replication = replication;
  file_info.blocks.reserve(num_blocks);

  const std::optional<cluster::NodeMask> filter_mask =
      materialize_filter(filter);
  const cluster::NodeMask* filter_ptr =
      filter_mask ? &*filter_mask : nullptr;

  // The Section IV-C cap over this call: replicas placed per node
  // against `limit` (0 = no cap).
  const std::uint64_t limit = cap_limit(num_blocks, replication);
  std::vector<std::uint64_t> placed(limit ? node_count() : 0, 0);

  // The nodes any draw of this call may pick: placeable, passing the
  // filter and under the cap. Single-bit flips keep the mask and its
  // popcount current as nodes reach the cap, and each draw hides the
  // block's holders in place and restores them afterwards, so a draw
  // copies no mask.
  cluster::NodeMask candidates = placeable_;
  if (filter_ptr) candidates &= *filter_ptr;
  std::size_t candidate_count = candidates.count();
  std::vector<cluster::NodeIndex> hidden;
  hidden.reserve(static_cast<std::size_t>(replication));

  // One replica draw for `info`. Under the cap it draws from the
  // candidates; when only the block's holders are left under the cap,
  // or the capped draw finds nothing, it overflows past the cap into
  // every eligible node: the paper's threshold is a fidelity knob, not a
  // correctness constraint, so it must not fail the load.
  const auto draw = [&](const BlockInfo& info, BlockId key,
                        std::uint32_t ordinal) {
    std::optional<cluster::NodeIndex> node;
    if (anti_affine_) {
      // Anti-affinity clears whole domains of the pre-cap mask, so it
      // builds its own masks per draw.
      const cluster::NodeMask eligible =
          eligibility(info, filter_ptr, std::nullopt);
      if (limit != 0) {
        cluster::NodeMask capped = eligible;
        capped &= candidates;
        if (capped.any()) {
          node = policy->choose_keyed(key, ordinal, capped, rng);
        }
        if (node) return node;
      }
      return policy->choose_keyed(key, ordinal, eligible, rng);
    }
    hidden.clear();
    for (const cluster::NodeIndex holder : info.replicas) {
      if (!candidates.test(holder)) continue;
      candidates.reset(holder);
      hidden.push_back(holder);
    }
    if (limit == 0 || candidate_count > hidden.size()) {
      node = policy->choose_keyed(key, ordinal, candidates, rng);
    }
    for (const cluster::NodeIndex holder : hidden) candidates.set(holder);
    if (node || limit == 0) return node;
    return policy->choose_keyed(
        key, ordinal, eligibility(info, filter_ptr, std::nullopt), rng);
  };

  // Nothing in this call changes placeable_ or the filter, and a draw
  // finds a node whenever the block has fewer holders than there are
  // placeable nodes passing the filter (the cap overflows; anti-affinity
  // never empties a non-empty mask). So a replica that cannot be placed
  // fails the first block, before anything is registered.
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    const BlockId block_id = blocks_.size();
    BlockInfo info;
    info.file = id;
    info.index = b;
    info.replicas.reserve(static_cast<std::size_t>(replication));
    for (int r = 0; r < replication; ++r) {
      const std::optional<cluster::NodeIndex> node =
          draw(info, block_id, static_cast<std::uint32_t>(r));
      if (!node) {
        throw std::runtime_error(
            "create_file: no eligible node for a replica of block " +
            std::to_string(block_id));
      }
      info.replicas.push_back(*node);
      if (limit != 0 && ++placed[*node] >= limit && candidates.test(*node)) {
        candidates.reset(*node);
        --candidate_count;
      }
    }
    for (const cluster::NodeIndex n : info.replicas) index_add(block_id, n);
    blocks_.push_back(std::move(info));
    file_info.blocks.push_back(block_id);
  }

  files_.push_back(std::move(file_info));
  files_by_name_[name] = id;
  return id;
}

std::vector<ReplicaMove> NameNode::rebalance_file(
    FileId file_id, const placement::PolicyPtr& policy, common::Rng& rng,
    const NodeFilter& filter) {
  if (!policy) throw std::invalid_argument("rebalance_file: null policy");
  const FileInfo& info = file(file_id);

  const std::optional<cluster::NodeMask> filter_mask =
      materialize_filter(filter);
  const cluster::NodeMask* filter_ptr =
      filter_mask ? &*filter_mask : nullptr;

  // The cap over this call, counted as in create_file but without the
  // overflow: a replica with no target under the cap stays where it is.
  const std::uint64_t limit = cap_limit(info.blocks.size(), info.replication);
  std::vector<std::uint64_t> placed(limit ? node_count() : 0, 0);
  cluster::NodeMask under_cap(node_count(), true);

  std::vector<ReplicaMove> moves;
  for (const BlockId block_id : info.blocks) {
    // Redraw each replica; a draw landing on the current holder keeps
    // the replica in place (no transfer). Draws that move become
    // pending: metadata untouched until the caller commits the
    // transfer.
    const std::vector<cluster::NodeIndex> old_replicas =
        blocks_.at(block_id).replicas;
    for (std::size_t r = 0; r < old_replicas.size(); ++r) {
      const cluster::NodeIndex old_node = old_replicas[r];
      const auto ordinal = static_cast<std::uint32_t>(r);
      cluster::NodeMask eligible =
          eligibility(blocks_.at(block_id), filter_ptr, block_id);
      eligible.set(old_node);  // staying put is always allowed
      std::optional<cluster::NodeIndex> target;
      if (limit != 0) eligible &= under_cap;
      if (limit == 0 || eligible.any()) {
        target = policy->choose_keyed(block_id, ordinal, eligible, rng);
      }
      if (!target) target = old_node;  // over the cap everywhere: keep
      if (limit != 0 && ++placed[*target] >= limit) under_cap.reset(*target);
      if (*target != old_node) {
        begin_move(block_id, old_node, *target);
        moves.push_back({block_id, old_node, *target});
      }
    }
  }
  return moves;
}

std::size_t NameNode::find_pending(BlockId block, cluster::NodeIndex from,
                                   cluster::NodeIndex to) const {
  for (std::size_t i = 0; i < pending_moves_.size(); ++i) {
    const ReplicaMove& move = pending_moves_[i];
    if (move.block == block && move.from == from && move.to == to) return i;
  }
  return static_cast<std::size_t>(-1);
}

bool NameNode::has_pending_move(BlockId block, cluster::NodeIndex from,
                                cluster::NodeIndex to) const {
  return find_pending(block, from, to) != static_cast<std::size_t>(-1);
}

void NameNode::begin_move(BlockId block, cluster::NodeIndex from,
                          cluster::NodeIndex to) {
  const BlockInfo& info = blocks_.at(block);
  if (!info.hosted_on(from)) {
    throw std::logic_error("begin_move: source does not hold block");
  }
  if (info.hosted_on(to)) {
    throw std::logic_error("begin_move: destination already holds block");
  }
  for (const ReplicaMove& move : pending_moves_) {
    if (move.block == block && move.to == to) {
      throw std::logic_error("begin_move: destination already pending");
    }
  }
  if (is_dead(to)) throw std::logic_error("begin_move: destination dead");
  pending_moves_.push_back({block, from, to});
}

void NameNode::commit_move(BlockId block, cluster::NodeIndex from,
                           cluster::NodeIndex to) {
  const std::size_t idx = find_pending(block, from, to);
  if (idx == static_cast<std::size_t>(-1)) {
    throw std::logic_error("commit_move: no such pending move");
  }
  pending_moves_.erase(pending_moves_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
  if (blocks_.at(block).hosted_on(to)) {
    // Another pipeline (re-replication) landed its own copy at `to`
    // while this move was on the wire. The replica is already real;
    // keep the source copy in place.
    ++stats_.duplicate_replica_inserts;
    return;
  }
  blocks_.at(block).replicas.push_back(to);
  index_add(block, to);
  // Drop the source copy. If a node death already wrote it off
  // mid-transfer the new replica simply lands (net replica gain).
  if (blocks_.at(block).hosted_on(from)) {
    remove_replica(block, from);
  }
}

void NameNode::abort_move(BlockId block, cluster::NodeIndex from,
                          cluster::NodeIndex to) {
  const std::size_t idx = find_pending(block, from, to);
  if (idx == static_cast<std::size_t>(-1)) {
    throw std::logic_error("abort_move: no such pending move");
  }
  pending_moves_.erase(pending_moves_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
}

bool NameNode::has_file(const std::string& name) const {
  return files_by_name_.count(name) != 0;
}

FileId NameNode::file_id(const std::string& name) const {
  const auto it = files_by_name_.find(name);
  if (it == files_by_name_.end()) {
    throw std::out_of_range("no such file: " + name);
  }
  return it->second;
}

const FileInfo& NameNode::file(FileId id) const { return files_.at(id); }

const BlockInfo& NameNode::block(BlockId id) const { return blocks_.at(id); }

std::vector<std::uint64_t> NameNode::file_distribution(FileId id) const {
  std::vector<std::uint64_t> counts(node_count(), 0);
  for (const BlockId b : file(id).blocks) {
    for (const cluster::NodeIndex node : blocks_.at(b).replicas) {
      ++counts[node];
    }
  }
  return counts;
}

void NameNode::add_replica(BlockId block, cluster::NodeIndex node) {
  BlockInfo& info = blocks_.at(block);
  if (info.hosted_on(node)) {
    // Dedupe on insert: racing pipelines (re-replication vs migration
    // commit) may both try to register the same holder. Count it and
    // keep the metadata single-entry.
    ++stats_.duplicate_replica_inserts;
    return;
  }
  info.replicas.push_back(node);
  index_add(block, node);
}

void NameNode::remove_replica(BlockId block, cluster::NodeIndex node) {
  unlink_replica(block, node);
  index_remove(block, node);
}

void NameNode::unlink_replica(BlockId block, cluster::NodeIndex node) {
  BlockInfo& info = blocks_.at(block);
  const auto it =
      std::find(info.replicas.begin(), info.replicas.end(), node);
  if (it == info.replicas.end()) {
    throw std::logic_error("remove_replica: node does not hold block");
  }
  info.replicas.erase(it);
}

void NameNode::index_add(BlockId block, cluster::NodeIndex node) {
  if (!held_.empty()) held_[node].push_back(static_cast<std::uint32_t>(block));
}

void NameNode::index_remove(BlockId block, cluster::NodeIndex node) {
  if (held_.empty()) return;
  std::vector<std::uint32_t>& list = held_[node];
  // The latest additions sit at the back.
  const auto it =
      std::find(list.rbegin(), list.rend(), static_cast<std::uint32_t>(block));
  if (it == list.rend()) {
    throw std::logic_error("replica index: node does not list block");
  }
  *it = list.back();
  list.pop_back();
}

std::vector<BlockId> NameNode::mark_node_dead(cluster::NodeIndex node) {
  if (node >= node_count()) {
    throw std::out_of_range("mark_node_dead: bad node");
  }
  std::vector<BlockId> affected;
  if (is_dead(node)) return affected;
  if (held_.empty()) {
    // First death: build the per-node block lists, each reserved to its
    // exact size.
    std::vector<std::size_t> counts(node_count(), 0);
    for (const BlockInfo& info : blocks_) {
      for (const cluster::NodeIndex n : info.replicas) ++counts[n];
    }
    held_.resize(node_count());
    for (std::size_t n = 0; n < node_count(); ++n) held_[n].reserve(counts[n]);
    for (BlockId b = 0; b < blocks_.size(); ++b) {
      for (const cluster::NodeIndex n : blocks_[b].replicas) {
        held_[n].push_back(static_cast<std::uint32_t>(b));
      }
    }
  }
  placeable_.reset(node);
  // Pending moves *into* the dead node can never complete: drop them
  // here so the ledger stays exact even if the migration driver learns
  // of the death later. Moves *out* survive — they re-source from a
  // live holder.
  for (std::size_t i = pending_moves_.size(); i-- > 0;) {
    if (pending_moves_[i].to == node) {
      pending_moves_.erase(pending_moves_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
  }
  std::vector<std::uint32_t> held = std::move(held_[node]);
  held_[node].clear();
  std::sort(held.begin(), held.end());
  affected.assign(held.begin(), held.end());
  for (const BlockId b : affected) unlink_replica(b, node);
  // The disk still holds these copies; revive_node restores from this
  // ledger if the death turns out to have been a false declaration.
  written_off_[node] = affected;
  return affected;
}

NameNode::ReviveReport NameNode::revive_node(cluster::NodeIndex node) {
  if (node >= node_count()) {
    throw std::out_of_range("revive_node: bad node");
  }
  ReviveReport report;
  if (!is_dead(node)) return report;
  placeable_.set(node);

  // Block report: everything written off at death is still on disk.
  const std::vector<BlockId> ledger = std::move(written_off_[node]);
  written_off_[node].clear();
  for (const BlockId b : ledger) {
    BlockInfo& info = blocks_.at(b);
    if (info.hosted_on(node)) {
      // Should be impossible (the node was dead and thus unplaceable),
      // but a double-registered holder must never happen.
      ++stats_.duplicate_replica_inserts;
      continue;
    }
    const auto target =
        static_cast<std::size_t>(files_.at(info.file).replication);
    if (info.replicas.size() < target) {
      info.replicas.push_back(node);
      index_add(b, node);
      ++stats_.replicas_restored;
      report.restored.push_back(b);
      continue;
    }
    // Re-replication already brought the block back to target: the
    // disk copy is excess. Reclaim it — but if some current holder's
    // domain already has two copies while the revived node's domain
    // has none, swap: the restore then *improves* domain spread.
    ++stats_.over_replicated_trimmed;
    const std::optional<cluster::NodeIndex> victim = trim_victim(info, node);
    if (victim) {
      remove_replica(b, *victim);
      info.replicas.push_back(node);
      index_add(b, node);
      ++stats_.replicas_restored;
      report.restored.push_back(b);
      report.trimmed.push_back({b, *victim});
    } else {
      report.trimmed.push_back({b, node});
    }
  }
  return report;
}

std::optional<cluster::NodeIndex> NameNode::trim_victim(
    const BlockInfo& info, cluster::NodeIndex node) const {
  if (!domains_ || domains_->empty()) return std::nullopt;
  const std::uint32_t my_domain = domains_->domain_of(node);
  std::vector<std::uint32_t> held(domains_->domain_count(), 0);
  for (const cluster::NodeIndex holder : info.replicas) {
    const std::uint32_t d = domains_->domain_of(holder);
    if (d == my_domain) return std::nullopt;  // disk copy is the dup
    ++held[d];
  }
  for (const cluster::NodeIndex holder : info.replicas) {
    if (held[domains_->domain_of(holder)] >= 2) return holder;
  }
  return std::nullopt;
}

}  // namespace adapt::hdfs
