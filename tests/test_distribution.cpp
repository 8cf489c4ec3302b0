#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "availability/distribution.h"
#include "common/stats.h"

namespace {

using namespace adapt::avail;
using adapt::common::Rng;
using adapt::common::RunningStats;

struct DistributionCase {
  const char* name;
  DistributionPtr dist;
};

// Print only the name, so the discovered test names carry no pointer values
// and stay the same from one build to the next.
void PrintTo(const DistributionCase& c, std::ostream* os) { *os << c.name; }

// Property: every distribution's sample moments converge to its declared
// mean()/variance().
class DistributionMoments : public ::testing::TestWithParam<DistributionCase> {
};

TEST_P(DistributionMoments, SampleMomentsMatchDeclared) {
  const DistributionPtr dist = GetParam().dist;
  Rng rng(2024);
  RunningStats stats;
  constexpr int kSamples = 400000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = dist->sample(rng);
    ASSERT_GE(x, 0.0) << dist->describe();
    stats.add(x);
  }
  const double mean = dist->mean();
  EXPECT_NEAR(stats.mean(), mean, std::max(0.02 * mean, 1e-9))
      << dist->describe();
  const double sd = std::sqrt(dist->variance());
  EXPECT_NEAR(stats.stddev(), sd, std::max(0.1 * sd, 1e-9))
      << dist->describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMoments,
    ::testing::Values(
        DistributionCase{"exp", exponential(4.0)},
        DistributionCase{"det", deterministic(8.0)},
        DistributionCase{"lognormal", lognormal_mean_cov(100.0, 1.5)},
        DistributionCase{"weibull", weibull(1.5, 10.0)},
        DistributionCase{"pareto", pareto_mean_shape(50.0, 3.5)},
        DistributionCase{"uniform", uniform_range(2.0, 10.0)}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Distribution, DeterministicIsExact) {
  Rng rng(1);
  const DistributionPtr d = deterministic(8.0);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d->sample(rng), 8.0);
  EXPECT_DOUBLE_EQ(d->variance(), 0.0);
}

TEST(Distribution, LognormalHitsTargetCov) {
  const DistributionPtr d = lognormal_mean_cov(109380.0, 7.3869);
  EXPECT_DOUBLE_EQ(d->mean(), 109380.0);
  EXPECT_NEAR(std::sqrt(d->variance()) / d->mean(), 7.3869, 1e-9);
}

TEST(Distribution, EmpiricalResamples) {
  Rng rng(3);
  const DistributionPtr d = empirical({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d->mean(), 2.0);
  EXPECT_DOUBLE_EQ(d->variance(), 1.0);
  for (int i = 0; i < 100; ++i) {
    const double x = d->sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 3.0);
  }
}

TEST(Distribution, ParameterValidation) {
  EXPECT_THROW(exponential(0.0), std::invalid_argument);
  EXPECT_THROW(exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(deterministic(-1.0), std::invalid_argument);
  EXPECT_THROW(lognormal_mean_cov(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(weibull(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(pareto_mean_shape(10.0, 2.0), std::invalid_argument);
  EXPECT_THROW(uniform_range(5.0, 5.0), std::invalid_argument);
  EXPECT_THROW(empirical({}), std::invalid_argument);
  EXPECT_THROW(empirical({-1.0}), std::invalid_argument);
}

TEST(Distribution, ParseRoundTrips) {
  Rng rng(4);
  EXPECT_NEAR(parse_distribution("exp:4")->mean(), 4.0, 1e-12);
  EXPECT_NEAR(parse_distribution("det:8")->mean(), 8.0, 1e-12);
  EXPECT_NEAR(parse_distribution("lognormal:100:2")->mean(), 100.0, 1e-12);
  EXPECT_GT(parse_distribution("weibull:0.5:100")->mean(), 0.0);
  EXPECT_NEAR(parse_distribution("pareto:100:2.5")->mean(), 100.0, 1e-9);
  EXPECT_NEAR(parse_distribution("uniform:2:10")->mean(), 6.0, 1e-12);
}

TEST(Distribution, ParseErrors) {
  EXPECT_THROW(parse_distribution("exp"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp:1:2"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("nope:1"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("weibull:1"), std::invalid_argument);
}

}  // namespace
