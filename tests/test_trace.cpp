// Trace generator, statistics, and per-host profile extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_stats.h"

namespace {

using namespace adapt;
using namespace adapt::trace;

TEST(GeneratorCalibration, PooledMtbiInversion) {
  double m = 0.0;
  double s = 0.0;
  calibrate_mtbi_population(160290.0, 4.376, m, s);
  // Harmonic mean check: exp(m - s^2/2) == target mean.
  EXPECT_NEAR(std::exp(m - s * s / 2.0), 160290.0, 1.0);
  // CoV identity: 2 e^{s^2} - 1 == cov^2.
  EXPECT_NEAR(2.0 * std::exp(s * s) - 1.0, 4.376 * 4.376, 1e-6);
  EXPECT_THROW(calibrate_mtbi_population(100.0, 0.5, m, s),
               std::invalid_argument);
}

TEST(GeneratorCalibration, DurationDecomposition) {
  const double pop = calibrate_duration_population_cov(7.3869, 2.0);
  EXPECT_NEAR((1 + pop * pop) * (1 + 4.0), 1 + 7.3869 * 7.3869, 1e-9);
  EXPECT_THROW(calibrate_duration_population_cov(1.0, 2.0),
               std::invalid_argument);
}

GeneratorConfig small_config() {
  GeneratorConfig config;
  config.node_count = 2000;
  config.horizon = 30.0 * 24 * 3600;
  config.seed = 7;
  return config;
}

TEST(Generator, DeterministicForSeed) {
  const auto a = generate_seti_like_trace(small_config());
  const auto b = generate_seti_like_trace(small_config());
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  EXPECT_EQ(a.trace.events, b.trace.events);
}

TEST(Generator, EventsSortedAndInRange) {
  const auto gen = generate_seti_like_trace(small_config());
  ASSERT_FALSE(gen.trace.events.empty());
  for (std::size_t i = 0; i < gen.trace.events.size(); ++i) {
    const TraceEvent& e = gen.trace.events[i];
    EXPECT_LT(e.node, gen.trace.node_count);
    EXPECT_GE(e.start, 0.0);
    EXPECT_LT(e.start, gen.trace.horizon);
    EXPECT_GT(e.duration, 0.0);
    if (i > 0) {
      EXPECT_GE(e.start, gen.trace.events[i - 1].start);
    }
  }
}

TEST(Generator, PerHostPopulationHitsTable1) {
  // Larger population for tight population-moment comparison. The
  // per-host summary is the Table 1 reading the generator calibrates to.
  GeneratorConfig config = small_config();
  config.node_count = 20000;
  const auto gen = generate_seti_like_trace(config);

  // Compare the drawn truth against targets (sampling error only).
  common::RunningStats mtbi;
  common::RunningStats duration;
  for (const HostTruth& h : gen.truth) {
    mtbi.add(h.mtbi);
    duration.add(h.mean_duration);
  }
  EXPECT_NEAR(mtbi.mean(), config.mtbi_mean, 0.15 * config.mtbi_mean);
  EXPECT_NEAR(duration.mean(), config.duration_mean,
              0.25 * config.duration_mean);
  // Heavy-tailed CoVs converge slowly; require the right magnitude.
  EXPECT_GT(mtbi.coefficient_of_variation(), 2.0);
  EXPECT_GT(duration.coefficient_of_variation(), 3.0);
}

TEST(Generator, CouplingControlsUnstableFraction) {
  GeneratorConfig config = small_config();
  config.node_count = 5000;
  config.duration_mtbi_coupling = 1.0;  // rho independent of M
  const auto coupled = generate_seti_like_trace(config);
  config.duration_mtbi_coupling = 0.0;  // D independent of M
  const auto uncoupled = generate_seti_like_trace(config);
  config.duration_mtbi_coupling = 0.5;  // the default
  const auto half = generate_seti_like_trace(config);

  auto unstable_fraction = [](const GeneratedTrace& g) {
    std::size_t count = 0;
    for (const HostTruth& h : g.truth) {
      if (!h.params().stable()) ++count;
    }
    return static_cast<double>(count) / static_cast<double>(g.truth.size());
  };
  // More coupling -> fewer unstable hosts.
  EXPECT_LT(unstable_fraction(coupled), unstable_fraction(half));
  EXPECT_LT(unstable_fraction(half), unstable_fraction(uncoupled));
  EXPECT_GT(unstable_fraction(coupled), 0.05);
  // The default leaves about a third of hosts unstable (0.335 here).
  EXPECT_GE(unstable_fraction(half), 0.30);
  EXPECT_LE(unstable_fraction(half), 0.37);
}

TEST(TraceStats, HandComputedExample) {
  Trace trace;
  trace.node_count = 2;
  trace.horizon = 100.0;
  trace.events = {
      {0, 10.0, 5.0}, {1, 20.0, 3.0}, {0, 40.0, 7.0},
  };
  const TraceStats stats = compute_trace_stats(trace);
  EXPECT_EQ(stats.event_count, 3u);
  EXPECT_EQ(stats.hosts_with_events, 2u);
  // Gaps: node0 -> 10 and 30; node1 -> 20. Durations: 5, 3, 7.
  EXPECT_DOUBLE_EQ(stats.mtbi.mean, 20.0);
  EXPECT_DOUBLE_EQ(stats.duration.mean, 5.0);
  // Per-host means: node0 gap (10+30)/2 = 20, node1 gap 20.
  EXPECT_DOUBLE_EQ(stats.mtbi_per_host.mean, 20.0);
  EXPECT_DOUBLE_EQ(stats.duration_per_host.mean, (6.0 + 3.0) / 2.0);
}

TEST(Profile, BusyPeriodMerging) {
  // Second arrival lands during the first outage: FCFS extends it.
  const std::vector<TraceEvent> events = {
      {0, 10.0, 20.0},  // down [10, 30)
      {0, 25.0, 5.0},   // queued -> up extends to 35
      {0, 50.0, 2.0},   // separate outage [50, 52)
  };
  const auto merged = merge_busy_periods(events);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (DownInterval{10.0, 35.0}));
  EXPECT_EQ(merged[1], (DownInterval{50.0, 52.0}));
}

TEST(Profile, ExtractParamsAndAvailability) {
  Trace trace;
  trace.node_count = 2;
  trace.horizon = 100.0;
  trace.events = {{0, 10.0, 10.0}, {0, 50.0, 10.0}};
  const auto params = extract_params(trace);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_DOUBLE_EQ(params[0].lambda, 2.0 / 100.0);
  EXPECT_DOUBLE_EQ(params[0].mu, 10.0);
  EXPECT_DOUBLE_EQ(params[1].lambda, 0.0);

  const auto avail = extract_availability(trace);
  EXPECT_DOUBLE_EQ(avail[0], 0.8);
  EXPECT_DOUBLE_EQ(avail[1], 1.0);
}

TEST(Profile, AvailabilityClampsAtHorizon) {
  Trace trace;
  trace.node_count = 1;
  trace.horizon = 100.0;
  trace.events = {{0, 90.0, 50.0}};  // outage runs past the horizon
  const auto avail = extract_availability(trace);
  EXPECT_DOUBLE_EQ(avail[0], 0.9);
}

}  // namespace
