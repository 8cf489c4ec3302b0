// HDFS client operations — the three ADAPT interfaces of Section IV-A.
//
//  * copy_from_local : load a local file into HDFS; with ADAPT enabled
//    the blocks are distributed availability-aware, otherwise randomly
//    (the stock shell behaviour).
//  * cp              : duplicate an HDFS file under a new name, placing
//    the copy's blocks per the flag.
//  * adapt_rebalance : the new `adapt` shell command, redistributing an
//    existing file's blocks to be availability-aware.
//
// The client also charges the data movement each operation implies to
// the network model, so load/rebalance costs are measurable — the
// "ADAPT potentially increases the data transfer cost" trade-off of
// Section IV-C.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/network.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "obs/trace.h"

namespace adapt::hdfs {

struct TransferSummary {
  std::uint64_t blocks_moved = 0;
  std::uint64_t bytes_moved = 0;
  common::Seconds completion_time = 0.0;  // when the last transfer lands
};

class Client {
 public:
  // `adapt_policy` is used when an operation runs with ADAPT enabled;
  // `default_policy` (stock random) otherwise. The network pointer may
  // be null when transfer costs are not of interest.
  Client(NameNode& namenode, placement::PolicyPtr default_policy,
         placement::PolicyPtr adapt_policy, cluster::Network* network,
         std::uint64_t block_size_bytes);

  // -copyFromLocal [-adapt] <local> <hdfs-name>
  // Every block streams from the origin endpoint to its first replica,
  // then replica-to-replica along the pipeline (charged as origin ->
  // node for each copy, the dominant cost on broadband links).
  FileId copy_from_local(const std::string& name, std::uint32_t num_blocks,
                         int replication, bool adapt_enabled,
                         common::Rng& rng, common::Seconds now = 0.0,
                         TransferSummary* summary = nullptr,
                         const NameNode::NodeFilter& filter = nullptr);

  // -cp [-adapt] <src> <dst>
  FileId cp(const std::string& src, const std::string& dst,
            bool adapt_enabled, common::Rng& rng, common::Seconds now = 0.0,
            TransferSummary* summary = nullptr,
            const NameNode::NodeFilter& filter = nullptr);

  // -adapt <name> : rebalance in place, availability-aware.
  TransferSummary adapt_rebalance(const std::string& name, common::Rng& rng,
                                  common::Seconds now = 0.0,
                                  const NameNode::NodeFilter& filter = nullptr);

  // Emit a placement record per (block, replica) created by
  // copy_from_local (null = off).
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  // Per-node placement-time quotes (Eq. 5 expected task times). When
  // set, each placement record carries the quote of the node it picked,
  // so lineage chains start with what the policy paid for. Empty = off.
  void set_quotes(std::vector<double> quotes) {
    quotes_ = std::move(quotes);
  }

 private:
  placement::PolicyPtr policy_for(bool adapt_enabled) const;
  // Not in the NameNode's dead registry; the origin endpoint is always
  // live. Callers narrow placement further with the NodeFilter argument.
  bool node_live(cluster::NodeIndex node) const;

  // Charge one block transfer to the network model. Returns false —
  // charging nothing — when either endpoint is dead (the bytes could not
  // actually have flowed).
  bool charge_transfer(std::uint32_t src, std::uint32_t dst,
                       common::Seconds now, TransferSummary* summary);

  NameNode& namenode_;
  placement::PolicyPtr default_policy_;
  placement::PolicyPtr adapt_policy_;
  cluster::Network* network_;
  std::uint64_t block_size_;
  obs::EventTracer* tracer_ = nullptr;
  std::vector<double> quotes_;
};

}  // namespace adapt::hdfs
