#include "sim/replica_endpoints.h"

namespace adapt::sim {

std::optional<cluster::NodeIndex> pick_transfer_source(
    const std::vector<cluster::NodeIndex>& holders,
    const cluster::Network& network, const NodeUpFn& up) {
  std::optional<cluster::NodeIndex> src;
  common::Seconds src_free = 0.0;
  for (const cluster::NodeIndex holder : holders) {
    if (!up(holder)) continue;
    const common::Seconds free_at = network.uplink_available_at(holder);
    if (!src || free_at < src_free || (free_at == src_free && holder < *src)) {
      src = holder;
      src_free = free_at;
    }
  }
  return src;
}

std::optional<cluster::NodeIndex> draw_replica_target(
    const hdfs::NameNode& namenode, hdfs::BlockId block,
    std::uint32_t ordinal, const NodeUpFn& up,
    const placement::PlacementPolicy& policy, common::Rng& rng,
    const cluster::NodeMask* prefer) {
  // The NameNode builds the mask incrementally (placeable, minus holders
  // and pending-move targets); only nodes that pass it consult `up`.
  cluster::NodeMask eligible = namenode.eligibility_for_new_replica(block);
  eligible.for_each_set([&](std::uint32_t n) {
    if (!up(static_cast<cluster::NodeIndex>(n))) eligible.reset(n);
  });
  if (prefer != nullptr && eligible.intersects(*prefer)) eligible &= *prefer;
  if (!eligible.any()) return std::nullopt;
  // Keyed: consistent-hash policies land on their stable bucket for
  // this (block, ordinal); sampling policies consume the rng as choose.
  return policy.choose_keyed(block, ordinal, eligible, rng);
}

}  // namespace adapt::sim
