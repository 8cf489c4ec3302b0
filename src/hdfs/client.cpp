#include "hdfs/client.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::hdfs {

Client::Client(NameNode& namenode, placement::PolicyPtr default_policy,
               placement::PolicyPtr adapt_policy, cluster::Network* network,
               std::uint64_t block_size_bytes)
    : namenode_(namenode),
      default_policy_(std::move(default_policy)),
      adapt_policy_(std::move(adapt_policy)),
      network_(network),
      block_size_(block_size_bytes) {
  if (!default_policy_ || !adapt_policy_) {
    throw std::invalid_argument("client: null policy");
  }
  if (block_size_ == 0) {
    throw std::invalid_argument("client: zero block size");
  }
}

placement::PolicyPtr Client::policy_for(bool adapt_enabled) const {
  return adapt_enabled ? adapt_policy_ : default_policy_;
}

bool Client::node_live(cluster::NodeIndex node) const {
  return node == cluster::kOriginEndpoint || !namenode_.is_dead(node);
}

bool Client::charge_transfer(std::uint32_t src, std::uint32_t dst,
                             common::Seconds now, TransferSummary* summary) {
  if (!node_live(src) || !node_live(dst)) {
    // A departed endpoint cannot source or sink bytes; charging the
    // network here would model a full-speed transfer from a ghost.
    return false;
  }
  if (summary) {
    ++summary->blocks_moved;
    summary->bytes_moved += block_size_;
  }
  if (!network_) return true;
  const cluster::TransferGrant grant =
      network_->request(src, dst, block_size_, now);
  network_->on_transfer_complete(block_size_);
  if (summary) {
    summary->completion_time = std::max(summary->completion_time, grant.end);
  }
  return true;
}

FileId Client::copy_from_local(const std::string& name,
                               std::uint32_t num_blocks, int replication,
                               bool adapt_enabled, common::Rng& rng,
                               common::Seconds now, TransferSummary* summary,
                               const NameNode::NodeFilter& filter) {
  const FileId id = namenode_.create_file(
      name, num_blocks, replication, policy_for(adapt_enabled), rng, filter);
  const std::vector<BlockId>& blocks = namenode_.file(id).blocks;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<cluster::NodeIndex>& replicas =
        namenode_.block(blocks[b]).replicas;
    for (std::size_t ri = 0; ri < replicas.size(); ++ri) {
      charge_transfer(cluster::kOriginEndpoint, replicas[ri], now, summary);
      if (tracer_ != nullptr) {
        obs::TraceRecord r;
        r.t = now;
        r.type = obs::EventType::kPlacement;
        r.task = static_cast<std::uint32_t>(b);
        r.aux = static_cast<std::uint32_t>(ri);
        r.node = replicas[ri];
        if (replicas[ri] < quotes_.size()) r.v0 = quotes_[replicas[ri]];
        tracer_->record(r);
      }
    }
  }
  return id;
}

FileId Client::cp(const std::string& src, const std::string& dst,
                  bool adapt_enabled, common::Rng& rng, common::Seconds now,
                  TransferSummary* summary,
                  const NameNode::NodeFilter& filter) {
  const FileId src_id = namenode_.file_id(src);
  const std::uint32_t src_blocks =
      static_cast<std::uint32_t>(namenode_.file(src_id).blocks.size());
  const int src_replication = namenode_.file(src_id).replication;
  const FileId dst_id =
      namenode_.create_file(dst, src_blocks, src_replication,
                            policy_for(adapt_enabled), rng, filter);

  // Each destination replica pulls from a source replica of the same
  // block (round-robin across the source's *live* holders; when every
  // holder is dead the copy falls back to an origin fetch, mirroring
  // the simulator's read path). Both references are taken after
  // create_file: growing the file table can reallocate it, so a
  // reference held across the call would dangle.
  const FileInfo& src_info = namenode_.file(src_id);
  const FileInfo& dst_info = namenode_.file(dst_id);
  for (std::size_t b = 0; b < dst_info.blocks.size(); ++b) {
    const BlockInfo& src_block = namenode_.block(src_info.blocks[b]);
    const BlockInfo& dst_block = namenode_.block(dst_info.blocks[b]);
    std::vector<cluster::NodeIndex> live_sources;
    live_sources.reserve(src_block.replicas.size());
    for (const cluster::NodeIndex holder : src_block.replicas) {
      if (node_live(holder)) live_sources.push_back(holder);
    }
    for (std::size_t r = 0; r < dst_block.replicas.size(); ++r) {
      const cluster::NodeIndex from =
          live_sources.empty() ? cluster::kOriginEndpoint
                               : live_sources[r % live_sources.size()];
      const cluster::NodeIndex to = dst_block.replicas[r];
      if (from != to) charge_transfer(from, to, now, summary);
    }
  }
  return dst_id;
}

TransferSummary Client::adapt_rebalance(const std::string& name,
                                        common::Rng& rng, common::Seconds now,
                                        const NameNode::NodeFilter& filter) {
  const FileId id = namenode_.file_id(name);
  TransferSummary summary;
  const std::vector<ReplicaMove> moves =
      namenode_.rebalance_file(id, adapt_policy_, rng, filter);
  // Data first, metadata second: each pending move only commits once
  // its transfer has been charged. The preferred source is the holder
  // being vacated; if it is dead another live holder serves, and with
  // no live holder at all the origin re-seeds the destination.
  for (const ReplicaMove& move : moves) {
    cluster::NodeIndex src = move.from;
    if (!node_live(src)) {
      src = cluster::kOriginEndpoint;
      for (const cluster::NodeIndex holder :
           namenode_.block(move.block).replicas) {
        if (node_live(holder)) {
          src = holder;
          break;
        }
      }
    }
    if (charge_transfer(src, move.to, now, &summary)) {
      namenode_.commit_move(move.block, move.from, move.to);
    } else {
      namenode_.abort_move(move.block, move.from, move.to);
    }
  }
  return summary;
}

}  // namespace adapt::hdfs
