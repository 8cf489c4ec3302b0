#include "placement/adapt_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "placement/masked_draw.h"

namespace adapt::placement {

namespace {

// When no node has a positive weight (every node unstable, so every
// E[T] is infinite and every availability 0), no node is better than
// another: weigh them equally, as the paper does for homogeneous nodes.
std::vector<double> uniform_if_all_zero(std::vector<double> weights) {
  if (std::all_of(weights.begin(), weights.end(),
                  [](double w) { return w == 0.0; })) {
    std::fill(weights.begin(), weights.end(), 1.0);
  }
  return weights;
}

}  // namespace

WeightedHashPolicy::WeightedHashPolicy(std::string name,
                                       std::vector<double> weights,
                                       std::uint64_t blocks,
                                       ChainWeighting weighting)
    : name_(std::move(name)),
      weights_(uniform_if_all_zero(std::move(weights))),
      table_(weights_, blocks, weighting),
      realized_(table_.selection_probabilities()) {}

std::optional<cluster::NodeIndex> WeightedHashPolicy::choose(
    const cluster::NodeMask& eligible, common::Rng& rng) const {
  if (eligible.size() != weights_.size()) {
    throw std::invalid_argument("choose: eligibility mask size mismatch");
  }
  // Rejection-sample the hash table; the bounded fallback draws from the
  // table's realized selection probabilities (not the raw weights, which
  // the paper's chain normalization distorts).
  return masked_choose(
      [this](common::Rng& r) { return table_.sample(r); }, realized_,
      eligible, rng);
}

PolicyPtr make_adapt_policy(const std::vector<double>& expected_task_times,
                            std::uint64_t blocks, ChainWeighting weighting) {
  std::vector<double> weights;
  weights.reserve(expected_task_times.size());
  for (double et : expected_task_times) {
    if (et <= 0) {
      throw std::invalid_argument("adapt policy: E[T] must be positive");
    }
    weights.push_back(std::isfinite(et) ? 1.0 / et : 0.0);
  }
  return std::make_shared<WeightedHashPolicy>("adapt", std::move(weights),
                                              blocks, weighting);
}

}  // namespace adapt::placement
