#include "obs/quantile_sketch.h"

#include <algorithm>
#include <stdexcept>

#include "common/jsonfmt.h"

namespace adapt::obs {

QuantileSketch::QuantileSketch(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 4) {
    throw std::invalid_argument("quantile sketch: capacity must be >= 4");
  }
  entries_.reserve(capacity_ + 1);
}

void QuantileSketch::observe(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;

  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const Entry& e, double x) { return e.value < x; });
  if (it != entries_.end() && it->value == v) {
    ++it->weight;  // exact duplicate: coalesce instead of growing
  } else {
    entries_.insert(it, Entry{v, 1});
    if (entries_.size() > capacity_) compact();
  }
}

void QuantileSketch::compact() {
  const std::size_t m = capacity_ / 2;
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.weight;

  std::vector<Entry> out;
  out.reserve(m);
  const std::uint64_t base = total / m;
  const std::uint64_t extra = total % m;
  // Each surviving entry takes the value at its own future midrank
  // (weight already assigned + half its own), read off the same midrank
  // polyline quantile() interpolates along. Sampling anywhere else —
  // e.g. snapping to the nearest retained value, or at the idealized
  // rank (j + 0.5) * W / m that ignores where the W mod m remainder
  // weights land — leaves each value slightly below the rank it will be
  // quoted at, a bias that compounds across recompressions.
  std::size_t src = 0;
  double before = 0.0;  // cumulative weight of entries before `src`
  double prev_mid = 0.0;
  double prev_value = min_;
  std::uint64_t assigned = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t weight = base + (j < extra ? 1 : 0);
    const double rank = static_cast<double>(assigned) +
                        static_cast<double>(weight) / 2.0;
    assigned += weight;
    while (src < entries_.size() &&
           before + static_cast<double>(entries_[src].weight) / 2.0 < rank) {
      prev_mid = before + static_cast<double>(entries_[src].weight) / 2.0;
      prev_value = entries_[src].value;
      before += static_cast<double>(entries_[src].weight);
      ++src;
    }
    double value;
    if (src == entries_.size()) {
      const double span = static_cast<double>(total) - prev_mid;
      value = span <= 0.0
                  ? max_
                  : prev_value +
                        (rank - prev_mid) / span * (max_ - prev_value);
    } else {
      const double mid =
          before + static_cast<double>(entries_[src].weight) / 2.0;
      const double span = mid - prev_mid;
      value = span <= 0.0
                  ? entries_[src].value
                  : prev_value + (rank - prev_mid) / span *
                                     (entries_[src].value - prev_value);
    }
    if (!out.empty() && out.back().value == value) {
      out.back().weight += weight;  // keep values strictly increasing
    } else {
      out.push_back(Entry{value, weight});
    }
  }
  entries_ = std::move(out);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);

  // Midpoint convention: entry i covers cumulative weight
  // (before_i, before_i + w_i] and sits at rank before_i + w_i / 2.
  double before = 0.0;
  double prev_mid = 0.0;
  double prev_value = min_;
  for (const Entry& e : entries_) {
    const double mid = before + static_cast<double>(e.weight) / 2.0;
    if (target <= mid) {
      const double span = mid - prev_mid;
      if (span <= 0.0) return e.value;
      const double frac = (target - prev_mid) / span;
      return prev_value + frac * (e.value - prev_value);
    }
    prev_mid = mid;
    prev_value = e.value;
    before += static_cast<double>(e.weight);
  }
  // Past the last midpoint: interpolate toward the exact maximum.
  const double span = static_cast<double>(count_) - prev_mid;
  if (span <= 0.0) return max_;
  const double frac = (target - prev_mid) / span;
  return prev_value + frac * (max_ - prev_value);
}

void QuantileSketch::append_json(std::string& out) const {
  using common::json_number;
  out += "{\"count\": " + std::to_string(count_) +
         ", \"sum\": " + json_number(sum_) +
         ", \"min\": " + json_number(min()) +
         ", \"max\": " + json_number(max()) +
         ", \"p50\": " + json_number(quantile(0.50)) +
         ", \"p90\": " + json_number(quantile(0.90)) +
         ", \"p95\": " + json_number(quantile(0.95)) +
         ", \"p99\": " + json_number(quantile(0.99)) + "}";
}

}  // namespace adapt::obs
