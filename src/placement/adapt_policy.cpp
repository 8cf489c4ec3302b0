#include "placement/adapt_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapt::placement {

namespace {

// Exact weighted draw over `realized` restricted to the eligible set.
// When every eligible node has zero realized probability, falls back to
// a uniform draw over the eligible set (a load must still complete when
// only capped-out or unstable nodes remain); nullopt when no node is
// eligible at all.
std::optional<cluster::NodeIndex> masked_exact_draw(
    const std::vector<double>& realized, const cluster::NodeMask& eligible,
    common::Rng& rng) {
  double total = 0.0;
  eligible.for_each_set([&](std::uint32_t i) { total += realized[i]; });
  if (total > 0.0) {
    double r = rng.uniform() * total;
    std::optional<cluster::NodeIndex> hit;
    eligible.for_each_set([&](std::uint32_t i) {
      if (hit) return;
      r -= realized[i];
      if (r <= 0.0) hit = static_cast<cluster::NodeIndex>(i);
    });
    if (hit) return hit;
    // Rounding left r marginally positive: return the last eligible node
    // with positive realized probability.
    cluster::NodeMask positive = eligible;
    positive.for_each_set([&](std::uint32_t i) {
      if (realized[i] <= 0.0) positive.reset(i);
    });
    const std::size_t last = positive.last_set();
    if (last < positive.size()) return static_cast<cluster::NodeIndex>(last);
  }
  const std::size_t candidates = eligible.count();
  if (candidates == 0) return std::nullopt;
  return static_cast<cluster::NodeIndex>(
      eligible.nth_set(rng.uniform_index(candidates)));
}

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
      table_(weights_, blocks, weighting) {}

std::optional<cluster::NodeIndex> WeightedHashPolicy::choose(
    const cluster::NodeMask& eligible, common::Rng& rng) const {
  if (eligible.size() != weights_.size()) {
    throw std::invalid_argument("choose: eligibility mask size mismatch");
  }
  // Rejection-sample the hash table against the NameNode's eligibility
  // mask. Under heavy masking the loop is cut off and an exact draw
  // finishes the job. That draw must come from the distribution the
  // rejection loop realizes: the table's realized selection
  // probabilities conditioned on the mask, not the raw weights, which
  // the paper's chain normalization (ChainWeighting::kPaper) distorts.
  constexpr int kMaxRejections = 32;
  for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
    const std::uint32_t node = table_.sample(rng);
    if (eligible.test(node)) return node;
  }
  std::call_once(realized_once_,
                 [this] { realized_ = table_.selection_probabilities(); });
  return masked_exact_draw(realized_, eligible, rng);
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
