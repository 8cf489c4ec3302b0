// The ADAPT placement policy (Algorithm 1) and the generic
// weighted-hash-table policy it is built on.
#pragma once

#include <cstdint>
#include <mutex>

#include "placement/hash_table.h"
#include "placement/policy.h"

namespace adapt::placement {

// A policy that draws from a BlockHashTable built over per-node weights.
// Ineligible draws are rejected and retried; after a bounded number of
// rejections it falls back to an exact weighted draw over the eligible
// set, so `choose` terminates even under heavy masking. When every
// weight is zero, every node gets equal weight.
class WeightedHashPolicy : public PlacementPolicy {
 public:
  WeightedHashPolicy(std::string name, std::vector<double> weights,
                     std::uint64_t blocks, ChainWeighting weighting);

  using PlacementPolicy::choose;
  std::optional<cluster::NodeIndex> choose(const cluster::NodeMask& eligible,
                                           common::Rng& rng) const override;
  std::string name() const override { return name_; }
  std::vector<double> target_shares() const override {
    return table_.shares();
  }

  const BlockHashTable& table() const { return table_; }

 private:
  std::string name_;
  std::vector<double> weights_;
  BlockHashTable table_;
  // table_.selection_probabilities(), computed on the first masked-draw
  // fallback (most policies never take it); the fallback must match the
  // distribution the rejection loop realizes. choose is const and may
  // run on several threads, hence the once_flag.
  mutable std::once_flag realized_once_;
  mutable std::vector<double> realized_;
};

// ADAPT: weight_i = 1 / E[T_i] (zero for unstable nodes, whose expected
// task time is infinite; uniform when every node is unstable).
// `expected_task_times` is Eq. 5 output per node, typically from
// avail::PerformancePredictor.
PolicyPtr make_adapt_policy(const std::vector<double>& expected_task_times,
                            std::uint64_t blocks,
                            ChainWeighting weighting = ChainWeighting::kPaper);

}  // namespace adapt::placement
