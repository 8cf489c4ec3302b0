// Block-placement policy interface.
//
// The NameNode asks the policy for one node per replica; eligibility
// masking (the fidelity cap, replicas already placed on a node, node
// currently offline during a load) is the NameNode's job, so policies
// stay pure sampling strategies.
//
// Eligibility travels as a cluster::NodeMask: the NameNode maintains it
// incrementally on liveness changes and hands policies a
// word-packed view instead of materializing a std::vector<bool> per
// draw.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/node_mask.h"
#include "common/rng.h"

namespace adapt::placement {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Pick a node with eligible.test(i) == true, or nullopt when none
  // exists. Implementations must honor the mask exactly; they may bias
  // the draw however they like among eligible nodes.
  virtual std::optional<cluster::NodeIndex> choose(
      const cluster::NodeMask& eligible, common::Rng& rng) const = 0;

  // Keyed variant: `key` identifies the object being placed (block id)
  // and `ordinal` which replica of it this draw is. Consistent-hash
  // policies use the pair to make the draw a pure function of
  // (key, ordinal, membership) so node join/leave remaps O(1/n) of
  // placements; sampling policies ignore both and fall through to
  // choose(), consuming the rng stream identically — callers may switch
  // to the keyed entry point without perturbing existing byte-exact
  // runs.
  virtual std::optional<cluster::NodeIndex> choose_keyed(
      std::uint64_t key, std::uint32_t ordinal,
      const cluster::NodeMask& eligible, common::Rng& rng) const {
    (void)key;
    (void)ordinal;
    return choose(eligible, rng);
  }

  virtual std::string name() const = 0;

  // Per-node target share of blocks (sums to ~1); diagnostics and tests.
  virtual std::vector<double> target_shares() const = 0;
};

using PolicyPtr = std::shared_ptr<const PlacementPolicy>;

// The paper's disk-space fidelity threshold (Section IV-C): no node may
// receive more than ceil(m * (k + 1) / n) of a load's m blocks at
// replication k; a node at the threshold "will not be considered for
// future data block placement". The NameNode enforces it per call.
inline std::uint64_t fidelity_threshold(std::uint64_t blocks, int replication,
                                        std::size_t node_count) {
  if (node_count == 0) throw std::invalid_argument("threshold: no nodes");
  if (replication < 1) throw std::invalid_argument("threshold: bad k");
  const auto numerator =
      blocks * (static_cast<std::uint64_t>(replication) + 1);
  return (numerator + node_count - 1) / node_count;  // ceil
}

}  // namespace adapt::placement
