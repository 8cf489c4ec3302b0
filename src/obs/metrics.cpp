#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/jsonfmt.h"

namespace adapt::obs {

namespace {

using common::json_escape;
using common::json_number;

template <typename Series>
std::uint32_t find_or_append(std::vector<Series>& store,
                             const std::string& name) {
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    if (store[i].name == name) return i;
  }
  store.push_back({});
  store.back().name = name;
  return static_cast<std::uint32_t>(store.size() - 1);
}

void append_scalar_object(
    std::string& out,
    const std::vector<std::pair<std::string, double>>& series) {
  out += "{";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(series[i].first);
    out += "\": ";
    out += json_number(series[i].second);
  }
  out += "}";
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return find_or_append(counters_, name);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return find_or_append(gauges_, name);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name,
                                               std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i] > bounds[i - 1])) {
      throw std::invalid_argument(
          "metrics: histogram bounds must be strictly increasing");
    }
  }
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) return i;
  }
  Histogram h;
  h.name = name;
  h.counts.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  histograms_.push_back(std::move(h));
  return static_cast<std::uint32_t>(histograms_.size() - 1);
}

void MetricsRegistry::observe(Id id, double v) {
  Histogram& h = histograms_[id];
  const auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), v);
  ++h.counts[static_cast<std::size_t>(it - h.bounds.begin())];
  ++h.total;
  h.sum += v;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const Scalar& c : counters_) snap.counters.emplace_back(c.name, c.value);
  snap.gauges.reserve(gauges_.size());
  for (const Scalar& g : gauges_) snap.gauges.emplace_back(g.name, g.value);
  snap.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    snap.histograms.push_back({h.name, h.bounds, h.counts, h.total, h.sum});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::sample(common::Seconds t) {
  RawSample row;
  row.t = t;
  row.counter_values.reserve(counters_.size());
  for (const Scalar& c : counters_) row.counter_values.push_back(c.value);
  row.gauge_values.reserve(gauges_.size());
  for (const Scalar& g : gauges_) row.gauge_values.push_back(g.value);
  samples_.push_back(std::move(row));
}

TimeSeriesSnapshot MetricsRegistry::take_timeseries() {
  TimeSeriesSnapshot ts;
  if (samples_.empty()) return ts;
  ts.times.reserve(samples_.size());
  for (const RawSample& row : samples_) ts.times.push_back(row.t);

  // One column per scalar series; rows taken before a series was
  // registered pad with 0.
  const auto column = [&](std::size_t idx, bool is_counter) {
    std::vector<double> col;
    col.reserve(samples_.size());
    for (const RawSample& row : samples_) {
      const std::vector<double>& values =
          is_counter ? row.counter_values : row.gauge_values;
      col.push_back(idx < values.size() ? values[idx] : 0.0);
    }
    return col;
  };
  ts.series.reserve(counters_.size() + gauges_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    ts.series.emplace_back(counters_[i].name, column(i, true));
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    ts.series.emplace_back(gauges_[i].name, column(i, false));
  }
  std::sort(ts.series.begin(), ts.series.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  samples_.clear();
  return ts;
}

std::vector<double> MetricsRegistry::exponential_bounds(double start,
                                                        double factor,
                                                        std::size_t count) {
  if (start <= 0 || factor <= 1.0) {
    throw std::invalid_argument("metrics: need start > 0, factor > 1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> MetricsRegistry::log_bounds(double lo, double hi,
                                                std::size_t count) {
  if (!(lo > 0.0) || !(hi > lo) || count < 2) {
    throw std::invalid_argument(
        "metrics: log bounds need 0 < lo < hi and count >= 2");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  const double ratio = hi / lo;
  for (std::size_t i = 0; i < count; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(count - 1);
    bounds.push_back(i + 1 == count ? hi : lo * std::pow(ratio, frac));
  }
  return bounds;
}

namespace {

void merge_scalars(std::vector<std::pair<std::string, double>>& into,
                   const std::vector<std::pair<std::string, double>>& from,
                   bool sum) {
  // Both sides are name-sorted; classic merge keeps the result sorted.
  std::vector<std::pair<std::string, double>> merged;
  merged.reserve(into.size() + from.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < into.size() || j < from.size()) {
    if (j == from.size() ||
        (i < into.size() && into[i].first < from[j].first)) {
      merged.push_back(into[i++]);
    } else if (i == into.size() || from[j].first < into[i].first) {
      merged.push_back(from[j++]);
    } else {
      merged.emplace_back(into[i].first,
                          sum ? into[i].second + from[j].second
                              : std::max(into[i].second, from[j].second));
      ++i;
      ++j;
    }
  }
  into = std::move(merged);
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_scalars(counters, other.counters, /*sum=*/true);
  merge_scalars(gauges, other.gauges, /*sum=*/false);
  for (const HistogramSnapshot& h : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const HistogramSnapshot& mine) {
                             return mine.name == h.name;
                           });
    if (it == histograms.end()) {
      const auto pos = std::find_if(histograms.begin(), histograms.end(),
                                    [&](const HistogramSnapshot& mine) {
                                      return mine.name > h.name;
                                    });
      histograms.insert(pos, h);
      continue;
    }
    if (it->bounds != h.bounds) {
      throw std::invalid_argument("metrics: merging histogram '" + h.name +
                                  "' with a different bucket layout");
    }
    for (std::size_t b = 0; b < it->counts.size(); ++b) {
      it->counts[b] += h.counts[b];
    }
    it->total += h.total;
    it->sum += h.sum;
  }
}

void MetricsSnapshot::append_json(std::string& out,
                                  const std::string& indent) const {
  out += "{\n" + indent + "  \"counters\": ";
  append_scalar_object(out, counters);
  out += ",\n" + indent + "  \"gauges\": ";
  append_scalar_object(out, gauges);
  out += ",\n" + indent + "  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i > 0 ? ",\n" : "\n";
    out += indent + "    {\"name\": \"" + json_escape(h.name) + "\", ";
    out += "\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += json_number(h.bounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "], \"total\": " + std::to_string(h.total);
    out += ", \"sum\": " + json_number(h.sum) + "}";
  }
  out += histograms.empty() ? "]\n" : "\n" + indent + "  ]\n";
  out += indent + "}";
}

}  // namespace adapt::obs
