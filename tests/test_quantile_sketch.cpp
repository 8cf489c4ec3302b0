// QuantileSketch: exactness below the compaction threshold, bounded
// error past it, and the deterministic-serialization contract the
// cross-thread export byte-compare relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/quantile_sketch.h"

namespace {

using namespace adapt;
using obs::QuantileSketch;

TEST(QuantileSketch, EmptyAndEndpoints) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);

  s.observe(3.0);
  s.observe(1.0);
  s.observe(2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  // q is clamped; the endpoints are exact min/max.
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(7.0), 3.0);
}

TEST(QuantileSketch, TinyCapacityThrows) {
  EXPECT_THROW(QuantileSketch(3), std::invalid_argument);
  EXPECT_NO_THROW(QuantileSketch(4));
}

TEST(QuantileSketch, ExactBelowCapacity) {
  QuantileSketch s(64);
  for (int v = 1; v <= 5; ++v) s.observe(static_cast<double>(v));
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  // Midpoint convention: the median of {1..5} is the middle entry.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
}

TEST(QuantileSketch, DuplicatesCoalesce) {
  QuantileSketch s(8);
  for (int i = 0; i < 100; ++i) s.observe(42.0);
  // 100 observations of one value never trigger compaction: they
  // coalesce into a single weighted entry.
  ASSERT_EQ(s.entries().size(), 1u);
  EXPECT_EQ(s.entries()[0].weight, 100u);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
}

TEST(QuantileSketch, InsertionOrderIrrelevantBelowCapacity) {
  std::vector<double> values;
  common::Rng rng(11);
  for (int i = 0; i < 50; ++i) values.push_back(rng.uniform() * 100.0);

  QuantileSketch forward(128);
  for (const double v : values) forward.observe(v);
  std::reverse(values.begin(), values.end());
  QuantileSketch backward(128);
  for (const double v : values) backward.observe(v);

  // The retained summary is a sorted set: identical whichever way the
  // stream arrived. (sum is float addition in arrival order, so only
  // near-equal — the byte-identity contract fixes the order instead.)
  ASSERT_EQ(forward.entries().size(), backward.entries().size());
  for (std::size_t i = 0; i < forward.entries().size(); ++i) {
    EXPECT_EQ(forward.entries()[i].value, backward.entries()[i].value);
    EXPECT_EQ(forward.entries()[i].weight, backward.entries()[i].weight);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), backward.quantile(q));
  }
  EXPECT_NEAR(forward.sum(), backward.sum(), 1e-9);
}

TEST(QuantileSketch, CountAndSumSurviveCompaction) {
  QuantileSketch s(16);
  common::Rng rng(5);
  double expected_sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform() * 10.0;
    expected_sum += v;
    s.observe(v);
  }
  EXPECT_EQ(s.count(), 10'000u);
  EXPECT_DOUBLE_EQ(s.sum(), expected_sum);
  EXPECT_LE(s.entries().size(), 16u);
  std::uint64_t weight = 0;
  for (const auto& e : s.entries()) weight += e.weight;
  EXPECT_EQ(weight, 10'000u);  // compaction conserves total weight
}

TEST(QuantileSketch, QuantileAccuracyAfterCompaction) {
  // Uniform stream: sketched quantiles must stay close to the exact
  // order statistics even after many recompressions.
  QuantileSketch s(256);
  std::vector<double> all;
  common::Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    s.observe(v);
  }
  std::sort(all.begin(), all.end());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = common::percentile_sorted(all, q);
    EXPECT_NEAR(s.quantile(q), exact, 0.02)
        << "q=" << q;  // 2% of the value range on capacity 256
  }
  EXPECT_DOUBLE_EQ(s.quantile(0.0), all.front());
  EXPECT_DOUBLE_EQ(s.quantile(1.0), all.back());
}

TEST(QuantileSketch, JsonShape) {
  QuantileSketch s(16);
  s.observe(1.0);
  s.observe(2.0);
  s.observe(3.0);
  s.observe(4.0);
  std::string out;
  s.append_json(out);
  EXPECT_EQ(out,
            "{\"count\": 4, \"sum\": 10, \"min\": 1, \"max\": 4, "
            "\"p50\": 2.5, \"p90\": 4, \"p95\": 4, \"p99\": 4}");
}

}  // namespace
