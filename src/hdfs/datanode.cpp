#include "hdfs/datanode.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::hdfs {

DataNodeDirectory::DataNodeDirectory(std::vector<std::uint64_t> capacity)
    : stored_(capacity.size(), 0), capacity_(std::move(capacity)) {
  if (stored_.empty()) {
    throw std::invalid_argument("datanodes: need at least one node");
  }
}

DataNodeDirectory::DataNodeDirectory(std::size_t node_count)
    : DataNodeDirectory(std::vector<std::uint64_t>(node_count, 0)) {}

bool DataNodeDirectory::has_space(cluster::NodeIndex node) const {
  const std::uint64_t cap = capacity_.at(node);
  return cap == 0 || stored_.at(node) < cap;
}

void DataNodeDirectory::add_replica(cluster::NodeIndex node) {
  if (!has_space(node)) {
    throw std::logic_error("datanode: capacity exceeded");
  }
  ++stored_.at(node);
  ++total_;
}

void DataNodeDirectory::remove_replica(cluster::NodeIndex node) {
  auto& count = stored_.at(node);
  if (count == 0) throw std::logic_error("datanode: remove from empty");
  --count;
  --total_;
}

std::uint64_t DataNodeDirectory::stored(cluster::NodeIndex node) const {
  return stored_.at(node);
}

double DataNodeDirectory::skew() const {
  if (total_ == 0) return 0.0;
  const std::uint64_t max_stored =
      *std::max_element(stored_.begin(), stored_.end());
  const double mean =
      static_cast<double>(total_) / static_cast<double>(stored_.size());
  return static_cast<double>(max_stored) / mean;
}

}  // namespace adapt::hdfs
