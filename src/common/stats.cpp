#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace adapt::common {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::coefficient_of_variation() const {
  return mean() == 0.0 ? 0.0 : stddev() / mean();
}

double RunningStats::min() const { return min_; }
double RunningStats::max() const { return max_; }
double RunningStats::sum() const { return sum_; }

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double>& qs) {
  std::sort(samples.begin(), samples.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) out.push_back(percentile_sorted(samples, q));
  return out;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  RunningStats rs;
  for (double x : samples) rs.add(x);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.cov = rs.coefficient_of_variation();
  s.min = rs.min();
  s.max = rs.max();
  std::sort(samples.begin(), samples.end());
  s.median = percentile_sorted(samples, 0.5);
  s.p95 = percentile_sorted(samples, 0.95);
  s.p99 = percentile_sorted(samples, 0.99);
  s.ci95_half_width =
      1.96 * s.stddev / std::sqrt(static_cast<double>(s.count));
  return s;
}

double relative_error(double a, double b) {
  const double scale =
      std::max({std::abs(a), std::abs(b), std::numeric_limits<double>::min()});
  return std::abs(a - b) / scale;
}

}  // namespace adapt::common
