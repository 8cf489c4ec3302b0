// DataNode storage accounting: how many block replicas each node holds,
// against an optional capacity. The NameNode consults this for placement
// eligibility; experiments read it for the storage-skew metrics of the
// paper's Section IV-C discussion.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.h"

namespace adapt::hdfs {

class DataNodeDirectory {
 public:
  // capacities in blocks; 0 = unbounded.
  explicit DataNodeDirectory(std::vector<std::uint64_t> capacity_blocks);
  explicit DataNodeDirectory(std::size_t node_count);

  std::size_t node_count() const { return stored_.size(); }

  bool has_space(cluster::NodeIndex node) const;
  void add_replica(cluster::NodeIndex node);
  void remove_replica(cluster::NodeIndex node);

  std::uint64_t stored(cluster::NodeIndex node) const;
  std::uint64_t total_stored() const { return total_; }

  // max stored / mean stored — the disk-skew statistic the fidelity
  // threshold is designed to bound.
  double skew() const;

 private:
  std::vector<std::uint64_t> stored_;
  std::vector<std::uint64_t> capacity_;
  std::uint64_t total_ = 0;
};

}  // namespace adapt::hdfs
