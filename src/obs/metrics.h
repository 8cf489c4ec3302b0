// Metrics registry: counters, gauges and fixed-bucket histograms with a
// deterministic export format.
//
// Design rules that make the output reproducible:
//  * bucket layouts are fixed at registration time (no dynamic
//    resizing from observed data), so two runs always produce
//    structurally identical histograms;
//  * snapshots sort series by name, and serialization uses the shared
//    fixed-key-order/"%.17g" conventions (common/jsonfmt.h);
//  * every simulation run owns its own registry, and cross-run merging
//    walks runs in index order — so aggregates are bit-identical for
//    any `--threads` value.
//
// The registry is not thread-safe by design: one registry per
// single-threaded simulation run, merged afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace adapt::obs {

struct HistogramSnapshot {
  std::string name;
  // Upper bounds of the finite buckets, strictly increasing; counts has
  // bounds.size() + 1 entries, the last being the overflow bucket.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;
};

// Metric trajectories: one row per sample() call, one column per scalar
// series (counters and gauges together, name-sorted). Columns are
// aligned with `times`; series registered after a sample was taken pad
// the earlier rows with 0.
struct TimeSeriesSnapshot {
  std::vector<common::Seconds> times;
  std::vector<std::pair<std::string, std::vector<double>>> series;

  bool empty() const { return times.empty(); }
};

// A frozen copy of a registry's state; mergeable across runs.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> counters;  // sorted by name
  std::vector<std::pair<std::string, double>> gauges;    // sorted by name
  std::vector<HistogramSnapshot> histograms;             // sorted by name

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Merge another run into this one: counters and histogram buckets add
  // up; gauges keep the maximum (they record run-level quantities like
  // elapsed time, where the max across runs is the useful aggregate).
  // Histograms with the same name must share a bucket layout.
  void merge(const MetricsSnapshot& other);

  // Deterministic JSON object ({"counters": {...}, "gauges": {...},
  // "histograms": [...]}), appended to `out`.
  void append_json(std::string& out, const std::string& indent) const;
};

class MetricsRegistry {
 public:
  using Id = std::uint32_t;

  // Registration returns a stable id for cheap updates; re-registering
  // a name returns the existing id. Ids are per-kind (a counter id is
  // only valid with add()).
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  Id histogram(const std::string& name, std::vector<double> bounds);

  void add(Id id, double v = 1.0) { counters_[id].value += v; }
  void set(Id id, double v) { gauges_[id].value = v; }
  void observe(Id id, double v);

  MetricsSnapshot snapshot() const;

  // Record one time-series row: the current value of every registered
  // counter and gauge, stamped with simulated time `t`.
  void sample(common::Seconds t);

  // Materialize and drain the sampled rows (empty if sample() was never
  // called).
  TimeSeriesSnapshot take_timeseries();

  // Helper for a deterministic fixed layout: `count` bounds starting at
  // `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

  // `count` log-spaced bounds from `lo` to `hi` inclusive — the right
  // shape for heavy-tailed durations, where a fixed linear layout clips
  // the tail into the overflow bucket. Requires 0 < lo < hi, count >= 2.
  static std::vector<double> log_bounds(double lo, double hi,
                                        std::size_t count);

 private:
  struct Scalar {
    std::string name;
    double value = 0.0;
  };
  struct Histogram {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1
    std::uint64_t total = 0;
    double sum = 0.0;
  };
  struct RawSample {
    common::Seconds t = 0.0;
    std::vector<double> counter_values;
    std::vector<double> gauge_values;
  };

  std::vector<Scalar> counters_;
  std::vector<Scalar> gauges_;
  std::vector<Histogram> histograms_;
  std::vector<RawSample> samples_;
};

}  // namespace adapt::obs
