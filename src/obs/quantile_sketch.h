// Streaming quantile sketch: a fixed-size summary of a value
// distribution with deterministic compaction.
//
// Design: the sketch keeps at most `capacity` (value, weight) entries
// sorted by value. Inserts splice unit-weight entries into the sorted
// list (coalescing exact duplicates); once the list outgrows the
// capacity it is recompressed to capacity/2 equi-depth entries — entry j
// gets an integer weight of W/m (the first W mod m entries take one
// extra, conserving total weight exactly) and the midrank-interpolated
// value at the rank it will occupy after recompression, so the summary
// stays unbiased across repeated compactions. Interpolated values need
// not be observed values. Compaction is a pure function
// of the sorted retained summary: no RNG, no arrival-position
// tie-breaking, no host state. Two replays of the same stream therefore
// produce byte-identical serialized sketches for any `--threads` value,
// the same contract the metrics registry and event tracer already
// honor.
//
// Below the compaction threshold the sketch is exact (it still holds
// every observation), which the tests lean on; past it, quantiles are
// equi-depth approximations with error that shrinks as capacity grows.
// min/max are tracked exactly and pin the q = 0 / q = 1 endpoints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace adapt::obs {

class QuantileSketch {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  // Throws std::invalid_argument when capacity < 4 (equi-depth
  // recompression needs at least two surviving entries).
  explicit QuantileSketch(std::size_t capacity = kDefaultCapacity);

  void observe(double v);

  // Weighted percentile with midpoint interpolation; q clamped to
  // [0, 1]. q = 0 returns the exact minimum, q = 1 the exact maximum.
  // Returns 0.0 on an empty sketch.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return count_ == 0; }

  struct Entry {
    double value = 0.0;
    std::uint64_t weight = 0;
  };
  // Retained entries, sorted by value; weights sum to count(). Exposed
  // for tests.
  const std::vector<Entry>& entries() const { return entries_; }

  // Fixed-key-order JSON object appended to `out`:
  // {"count": N, "sum": ..., "min": ..., "max": ...,
  //  "p50": ..., "p90": ..., "p95": ..., "p99": ...}
  // using the shared %.17g convention (common/jsonfmt.h).
  void append_json(std::string& out) const;

 private:
  void compact();

  std::size_t capacity_;
  std::vector<Entry> entries_;  // sorted by value
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace adapt::obs
