// Placement policies: random, ADAPT (Algorithm 1), naive, and the
// Section IV-C fidelity cap.
#include <gtest/gtest.h>

#include <latch>
#include <limits>
#include <thread>

#include "availability/interruption_model.h"
#include "placement/adapt_policy.h"
#include "placement/naive_policy.h"
#include "placement/random_policy.h"

namespace {

using namespace adapt;
using namespace adapt::placement;
using adapt::common::Rng;

std::vector<std::size_t> draw_many(const PlacementPolicy& policy,
                                   std::size_t nodes, int draws, Rng& rng) {
  const cluster::NodeMask eligible(nodes, true);
  std::vector<std::size_t> counts(nodes, 0);
  for (int i = 0; i < draws; ++i) {
    const auto choice = policy.choose(eligible, rng);
    ++counts.at(choice.value());
  }
  return counts;
}

TEST(RandomPolicy, UniformOverNodes) {
  RandomPolicy policy(8);
  Rng rng(5);
  const auto counts = draw_many(policy, 8, 80000, rng);
  for (const std::size_t c : counts) EXPECT_NEAR(c, 10000.0, 600.0);
  for (const double share : policy.target_shares()) {
    EXPECT_NEAR(share, 0.125, 1e-12);
  }
}

TEST(RandomPolicy, HonorsEligibilityMask) {
  RandomPolicy policy(4);
  Rng rng(6);
  const auto eligible =
      cluster::NodeMask::from_vector({false, true, false, false});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.choose(eligible, rng).value(), 1u);
  }
  EXPECT_FALSE(policy.choose(cluster::NodeMask(4, false), rng));
}

TEST(AdaptPolicy, SharesProportionalToInverseExpectedTime) {
  // E[T] = {10, 20, 40}: shares should be {4/7, 2/7, 1/7}.
  const auto policy = make_adapt_policy({10.0, 20.0, 40.0}, 1000);
  const auto shares = policy->target_shares();
  EXPECT_NEAR(shares[0], 4.0 / 7.0, 1e-9);
  EXPECT_NEAR(shares[1], 2.0 / 7.0, 1e-9);
  EXPECT_NEAR(shares[2], 1.0 / 7.0, 1e-9);
}

TEST(AdaptPolicy, UnstableNodesGetNothing) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto policy = make_adapt_policy({10.0, inf, 10.0}, 100);
  Rng rng(7);
  const auto counts = draw_many(*policy, 3, 5000, rng);
  EXPECT_EQ(counts[1], 0u);
}

TEST(AdaptPolicy, HomogeneousDegeneratesToUniform) {
  // "Logically equivalent to the existing data placement algorithm if
  // all the nodes share the same availability pattern."
  // Every node unstable (E[T] infinite) is homogeneous too.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double et : {17.0, inf}) {
    const auto policy = make_adapt_policy(std::vector<double>(6, et), 600);
    Rng rng(8);
    const auto counts = draw_many(*policy, 6, 60000, rng);
    for (const std::size_t c : counts) {
      EXPECT_NEAR(c, 10000.0, 700.0) << "E[T] " << et;
    }
  }
}

TEST(AdaptPolicy, EmpiricalSharesTrackTargets) {
  const auto policy =
      make_adapt_policy({8.0, 16.0, 12.0, 8.0, 100.0}, 2000);
  Rng rng(9);
  constexpr int kDraws = 100000;
  const auto counts = draw_many(*policy, 5, kDraws, rng);
  const auto shares = policy->target_shares();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, shares[i], 0.01);
  }
}

TEST(AdaptPolicy, MaskedFallbackStaysWeighted) {
  const auto policy = make_adapt_policy({8.0, 8.0, 800.0}, 300);
  Rng rng(10);
  // Mask out node 0 (the joint-heaviest): remaining draws should favor
  // node 1 over node 2 by ~100:1.
  const auto eligible = cluster::NodeMask::from_vector({false, true, true});
  std::size_t ones = 0;
  std::size_t twos = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto choice = policy->choose(eligible, rng).value();
    ASSERT_NE(choice, 0u);
    (choice == 1 ? ones : twos) += 1;
  }
  EXPECT_GT(ones, twos * 20);
}

TEST(AdaptPolicy, MaskedFallbackMatchesRealizedDistribution) {
  // Heavy masked nodes + two tiny eligible nodes force nearly every draw
  // through the 32-rejection cutoff into the exact fallback. The
  // fallback must draw from the hash table's *realized* selection
  // probabilities conditioned on the mask — under kPaper chain
  // weighting these differ measurably from the raw weights, which the
  // old fallback sampled.
  const std::vector<double> weights = {2.6, 0.02, 1.4, 0.013, 2.0, 1.0};
  WeightedHashPolicy policy("test", weights, 7, ChainWeighting::kPaper);
  const auto realized = policy.table().selection_probabilities();
  const double p_realized = realized[1] / (realized[1] + realized[3]);
  const double p_raw = weights[1] / (weights[1] + weights[3]);
  // The setup only discriminates if the two conditionals differ by more
  // than the empirical tolerance below.
  ASSERT_GT(std::abs(p_realized - p_raw), 0.03);

  const auto eligible =
      cluster::NodeMask::from_vector({false, true, false, true, false, false});
  Rng rng(42);
  constexpr int kDraws = 120000;
  std::size_t ones = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto choice = policy.choose(eligible, rng).value();
    ASSERT_TRUE(choice == 1 || choice == 3);
    ones += choice == 1;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, p_realized, 0.01);
}

TEST(AdaptPolicy, ConcurrentFirstFallbacksDrawAsOneThreadDoes) {
  // The fallback distribution is computed on the first masked draw that
  // needs it, and choose is const: four threads taking that first
  // fallback at once on one fresh policy must each draw what a
  // single-threaded run with the same seed draws.
  const std::vector<double> weights = {2.6, 0.02, 1.4, 0.013, 2.0, 1.0};
  const auto eligible =
      cluster::NodeMask::from_vector({false, true, false, true, false, false});
  constexpr int kThreads = 4;
  constexpr int kDraws = 2000;
  const auto draws = [&](const PlacementPolicy& policy, int thread) {
    Rng rng(100 + static_cast<std::uint64_t>(thread));
    std::vector<std::size_t> out;
    out.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      out.push_back(policy.choose(eligible, rng).value());
    }
    return out;
  };

  const WeightedHashPolicy reference("test", weights, 7,
                                     ChainWeighting::kPaper);
  std::vector<std::vector<std::size_t>> expected;
  for (int t = 0; t < kThreads; ++t) expected.push_back(draws(reference, t));

  const WeightedHashPolicy shared("test", weights, 7, ChainWeighting::kPaper);
  std::vector<std::vector<std::size_t>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = draws(shared, t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(got, expected);
}

TEST(AdaptPolicy, AllEligibleZeroWeightFallsBackUniform) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto policy = make_adapt_policy({10.0, inf, inf}, 100);
  Rng rng(11);
  const auto eligible = cluster::NodeMask::from_vector({false, true, true});
  std::size_t ones = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto choice = policy->choose(eligible, rng).value();
    ASSERT_NE(choice, 0u);
    ones += choice == 1;
  }
  EXPECT_NEAR(ones, 1000.0, 150.0);
}

TEST(AdaptPolicy, RejectsBadExpectedTimes) {
  EXPECT_THROW(make_adapt_policy({10.0, -1.0}, 100), std::invalid_argument);
  EXPECT_THROW(make_adapt_policy({0.0}, 100), std::invalid_argument);
}

TEST(NaivePolicy, WeightsAreSteadyStateAvailability) {
  const std::vector<avail::InterruptionParams> params = {
      {0.0, 0.0},    // dedicated: availability 1
      {0.1, 4.0},    // rho 0.4 -> 0.6
      {0.5, 3.0},    // unstable -> 0
  };
  const auto policy = make_naive_policy(params, 160);
  const auto shares = policy->target_shares();
  EXPECT_NEAR(shares[0], 1.0 / 1.6, 1e-9);
  EXPECT_NEAR(shares[1], 0.6 / 1.6, 1e-9);
  EXPECT_NEAR(shares[2], 0.0, 1e-12);
  EXPECT_EQ(policy->name(), "naive");
}

TEST(FidelityThreshold, MatchesFormula) {
  // ceil(m (k+1) / n).
  EXPECT_EQ(fidelity_threshold(2560, 1, 128), 40u);
  EXPECT_EQ(fidelity_threshold(2560, 2, 128), 60u);
  EXPECT_EQ(fidelity_threshold(100, 1, 3), 67u);
  EXPECT_THROW(fidelity_threshold(10, 0, 4), std::invalid_argument);
  EXPECT_THROW(fidelity_threshold(10, 1, 0), std::invalid_argument);
}

}  // namespace
