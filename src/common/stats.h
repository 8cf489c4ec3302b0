// Streaming and batch descriptive statistics used throughout the
// library: model validation, trace calibration (Table 1), and the
// multi-run averaging the paper applies to every experiment point.
#pragma once

#include <cstddef>
#include <vector>

namespace adapt::common {

// Welford online accumulator: numerically stable mean/variance without
// retaining samples. Suitable for the NameNode-side per-node estimates,
// which the paper requires to be O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  // sample variance (n - 1 denominator)
  double stddev() const;
  double coefficient_of_variation() const;  // stddev / mean
  double min() const;
  double max() const;
  double sum() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Batch summary over a retained sample, adding order statistics and a
// normal-approximation confidence interval for the mean.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double cov = 0.0;  // coefficient of variation
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double ci95_half_width = 0.0;  // mean +/- this covers ~95%
};

Summary summarize(std::vector<double> samples);

// Percentile of a sample by linear interpolation; q is clamped to
// [0, 1]. Sorts a copy — for several quantiles of the same sample use
// percentiles() (one sort) or percentile_sorted() on presorted data.
double percentile(std::vector<double> samples, double q);

// Percentile of an already ascending-sorted sample; q clamped to [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

// All requested quantiles with a single sort; results align with `qs`.
std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double>& qs);

// Relative difference |a - b| / max(|a|, |b|, eps).
double relative_error(double a, double b);

}  // namespace adapt::common
