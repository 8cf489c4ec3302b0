// The block->node hash table of Algorithm 1 (subroutines buildHashTable
// and dataPlacement).
//
// Node i is given w_i = m * rate_i consecutive "keys" (table cells);
// fractional boundaries make some cells map to more than one node — the
// paper's collision chains. dataPlacement draws a uniform key r in
// [0, m); a singleton cell returns its node, a collision chain is
// resolved by a second draw.
//
// The paper resolves collisions with weights rate_i / Omega (Omega = sum
// of chain members' rates), which slightly distorts the achieved shares;
// weighting by each member's *overlap* with the cell instead is exact.
// Both are implemented (ChainWeighting) because the difference is one of
// the design points DESIGN.md calls out for ablation.
//
// Layout: one 32-bit word per cell. A singleton cell holds its node
// inline, so a draw that lands on it is one random memory access. A
// collision chain holds kChain | c, and chain c owns entries_
// [chain_offsets_[c], chain_offsets_[c + 1]): the members in interval
// order, each with its resolution weight normalized within the chain.
// When m >> n at most about n cells are chains.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace adapt::placement {

enum class ChainWeighting {
  kPaper,    // rate_i / Omega over chain members (Algorithm 1 as printed)
  kOverlap,  // overlap length within the cell: exact proportionality
};

std::string to_string(ChainWeighting weighting);

class BlockHashTable {
 public:
  // `weights` are the per-node rates; they are normalized internally, so
  // any non-negative scale works (1/E[T_i] for ADAPT, availability for
  // the naive policy, all-ones for uniform). `cells` is m, the number of
  // blocks. At least one weight must be positive, and there must be
  // fewer than 2^31 nodes.
  BlockHashTable(const std::vector<double>& weights, std::uint64_t cells,
                 ChainWeighting weighting);

  std::uint32_t sample(common::Rng& rng) const;

  std::size_t node_count() const { return shares_.size(); }
  ChainWeighting weighting() const { return weighting_; }

  // Normalized target share per node (w_i / m).
  const std::vector<double>& shares() const { return shares_; }

  // Exact selection probability per node under the configured chain
  // weighting; tests compare this with shares() to quantify the paper
  // scheme's distortion.
  std::vector<double> selection_probabilities() const;

  // Distribution of chain lengths (diagnostics; index = length).
  std::vector<std::size_t> chain_length_histogram() const;

 private:
  struct Entry {
    std::uint32_t node = 0;
    float weight = 0.0f;  // resolution weight, normalized within chain
  };

  static constexpr std::uint32_t kChain = 1u << 31;

  std::vector<std::uint32_t> cells_;
  std::vector<std::uint32_t> chain_offsets_;
  std::vector<Entry> entries_;
  std::vector<double> shares_;
  ChainWeighting weighting_;
};

}  // namespace adapt::placement
