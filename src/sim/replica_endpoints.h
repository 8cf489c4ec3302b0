// Endpoint choices shared by every path that creates a replica from an
// existing one (ReReplicator, MigrationDriver and the simulation's
// rebalance pass): which holder streams the bytes, and which node the
// new replica lands on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "placement/policy.h"

namespace adapt::sim {

// Answers whether a node can move data right now.
using NodeUpFn = std::function<bool(cluster::NodeIndex)>;

// The up holder whose uplink frees up earliest (ties by lower index);
// every holder has the bytes, so none gets a preference. nullopt when
// every holder is down.
std::optional<cluster::NodeIndex> pick_transfer_source(
    const std::vector<cluster::NodeIndex>& holders,
    const cluster::Network& network, const NodeUpFn& up);

// Destination of a new replica of `block`: the policy's keyed draw
// (block, ordinal) over the NameNode's eligibility for a new replica,
// restricted to up nodes — and to `prefer` when that leaves a
// candidate. nullopt, with the rng untouched, when no node qualifies.
std::optional<cluster::NodeIndex> draw_replica_target(
    const hdfs::NameNode& namenode, hdfs::BlockId block,
    std::uint32_t ordinal, const NodeUpFn& up,
    const placement::PlacementPolicy& policy, common::Rng& rng,
    const cluster::NodeMask* prefer = nullptr);

}  // namespace adapt::sim
