// Algorithm 1's hash table: construction, collision chains, sampling
// proportionality, and the paper-vs-overlap chain weighting ablation.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "placement/hash_table.h"

namespace {

using namespace adapt::placement;
using adapt::common::Rng;

TEST(HashTable, UniformWeightsGiveSingletonChains) {
  // Integral widths: every cell maps to exactly one node.
  const BlockHashTable table({1.0, 1.0, 1.0, 1.0}, 100,
                             ChainWeighting::kPaper);
  const auto hist = table.chain_length_histogram();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist[1], 100u);  // all chains length 1
  const auto probs = table.selection_probabilities();
  for (const double p : probs) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(HashTable, SharesAreNormalizedWeights) {
  const BlockHashTable table({2.0, 6.0}, 10, ChainWeighting::kPaper);
  EXPECT_NEAR(table.shares()[0], 0.25, 1e-12);
  EXPECT_NEAR(table.shares()[1], 0.75, 1e-12);
}

TEST(HashTable, FractionalBoundariesCreateChains) {
  // Widths 2.5 and 2.5 over 5 cells: cell 2 is shared.
  const BlockHashTable table({1.0, 1.0}, 5, ChainWeighting::kOverlap);
  const auto hist = table.chain_length_histogram();
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(HashTable, OverlapWeightingIsExact) {
  const std::vector<double> weights = {0.3, 1.7, 2.0, 0.1, 5.9};
  const BlockHashTable table(weights, 997, ChainWeighting::kOverlap);
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  const auto probs = table.selection_probabilities();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(probs[i], weights[i] / total, 1e-6) << "node " << i;
  }
}

TEST(HashTable, PaperWeightingIsCloseButNotExact) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const BlockHashTable table(weights, 101, ChainWeighting::kPaper);
  const auto probs = table.selection_probabilities();
  double distortion = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    distortion += std::abs(probs[i] - table.shares()[i]);
  }
  // The paper's rate_i/Omega rule distorts shares slightly; with m >>
  // n the total distortion is bounded by ~n/m.
  EXPECT_GT(distortion, 0.0);
  EXPECT_LT(distortion, 4.0 / 101.0 * 2.0);
}

// The chain-weighting ablation at placement scale: E[T_i] drawn from
// 8 + 72 U seconds, weights 1/E[T_i], m = 20 cells per node. The paper's
// rate_i/Omega rule realizes shares about 2% (L1) away from the weights;
// exact overlap weighting matches them up to rounding.
TEST(HashTable, ChainWeightingDistortionAtScale) {
  for (const std::size_t nodes : {std::size_t{128}, std::size_t{1024}}) {
    Rng rng(17);
    std::vector<double> weights(nodes);
    for (double& w : weights) w = 1.0 / (8.0 + rng.uniform() * 72.0);
    const auto distortion = [&](ChainWeighting weighting) {
      const BlockHashTable table(weights, nodes * 20, weighting);
      const auto probs = table.selection_probabilities();
      double l1 = 0.0;
      for (std::size_t i = 0; i < nodes; ++i) {
        l1 += std::abs(probs[i] - table.shares()[i]);
      }
      return l1;
    };
    const double paper = distortion(ChainWeighting::kPaper);
    EXPECT_GT(paper, 0.01) << nodes << " nodes";
    EXPECT_LT(paper, 0.04) << nodes << " nodes";
    EXPECT_LT(distortion(ChainWeighting::kOverlap), 1e-8) << nodes << " nodes";
  }
}

class HashTableSampling
    : public ::testing::TestWithParam<ChainWeighting> {};

TEST_P(HashTableSampling, EmpiricalFrequenciesMatchProbabilities) {
  const std::vector<double> weights = {0.5, 1.0, 0.0, 2.5, 1.0};
  const BlockHashTable table(weights, 200, GetParam());
  const auto probs = table.selection_probabilities();
  Rng rng(31);
  std::vector<std::size_t> counts(weights.size(), 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double freq = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(freq, probs[i], 0.01) << "node " << i;
  }
  EXPECT_EQ(counts[2], 0u);  // zero weight -> never sampled
}

INSTANTIATE_TEST_SUITE_P(BothWeightings, HashTableSampling,
                         ::testing::Values(ChainWeighting::kPaper,
                                           ChainWeighting::kOverlap),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(HashTable, SingleNodeTakesEverything) {
  const BlockHashTable table({3.0}, 7, ChainWeighting::kPaper);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(HashTable, ManyMoreNodesThanCells) {
  // n > m: every cell is a long chain; probabilities still normalized.
  const std::vector<double> weights(64, 1.0);
  const BlockHashTable table(weights, 8, ChainWeighting::kOverlap);
  const auto probs = table.selection_probabilities();
  double sum = 0.0;
  for (const double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Property: a positive construction weight must never round away to a
// zero selection probability. Adversarial vectors drive the cumulative
// boundary cursor into rounding drift (tiny trailing shares at the
// clamped top end of the table, extreme dynamic range whose resolution
// weights would underflow the float chain entries).
TEST(HashTable, PositiveWeightAlwaysSelectable) {
  std::vector<std::vector<double>> vectors = {
      {1e12, 1.0, 1e12, 1e-9},
      {1e30, 1e-30, 1e30, 1e-30, 1.0},
      {0.1, 0.0, 1e-12, 7.7, 1e-40},
      {1e150, 1e-150, 1.0},
  };
  // Log-uniform random vectors sprinkle tiny segments across the whole
  // table, not just the top end.
  Rng rng(2024);
  for (int v = 0; v < 16; ++v) {
    std::vector<double> w;
    for (int i = 0; i < 64; ++i) w.push_back(std::exp(rng.uniform(-80.0, 10.0)));
    w[3] = 0.0;  // keep the zero-weight -> zero-probability leg covered
    vectors.push_back(std::move(w));
  }
  for (const auto& weights : vectors) {
    for (const auto weighting :
         {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
      for (const std::uint64_t cells : {7ull, 128ull, 1009ull}) {
        const BlockHashTable table(weights, cells, weighting);
        const auto probs = table.selection_probabilities();
        for (std::size_t i = 0; i < weights.size(); ++i) {
          if (weights[i] > 0.0) {
            EXPECT_GT(probs[i], 0.0)
                << "node " << i << " cells " << cells << " weighting "
                << to_string(weighting);
          } else {
            EXPECT_EQ(probs[i], 0.0) << "node " << i;
          }
        }
      }
    }
  }
}

TEST(HashTable, CursorDriftKeepsTopEndProportional) {
  // The cumulative boundary cursor accumulates one rounding error per
  // node; with hundreds of irrational widths it drifts either way at
  // the top end. The guard must close a downward gap below m without
  // ever widening a segment past its fair share when the cursor
  // overshoots, so the tail nodes keep proportional probabilities.
  std::vector<double> weights;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    weights.push_back(1.0 / 3.0 + rng.uniform() * 1e-3);
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  for (const std::uint64_t cells : {401ull, 997ull, 4096ull}) {
    const BlockHashTable table(weights, cells, ChainWeighting::kOverlap);
    const auto probs = table.selection_probabilities();
    double sum = 0.0;
    for (const double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "cells " << cells;
    // The last node sits on the drift-prone boundary; its probability
    // must stay close to its share, not absorb or lose the drift.
    const std::size_t last = weights.size() - 1;
    EXPECT_NEAR(probs[last], weights[last] / total,
                2.0 / static_cast<double>(cells))
        << "cells " << cells;
  }
}

TEST(HashTable, Validation) {
  EXPECT_THROW(BlockHashTable({}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({1.0}, 0, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({0.0, 0.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({-1.0, 2.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BlockHashTable({inf, 1.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
}

}  // namespace
