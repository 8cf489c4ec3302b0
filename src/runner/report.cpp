#include "runner/report.h"

#include "common/jsonfmt.h"

namespace adapt::runner {

namespace {

using common::json_escape;
using common::json_number;

void append_metrics(
    std::string& out,
    const std::vector<std::pair<std::string, double>>& metrics) {
  out += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(metrics[i].first);
    out += "\": ";
    out += json_number(metrics[i].second);
  }
  out += "}";
}

}  // namespace

Report::Report(std::string bench, std::uint64_t seed, int runs)
    : bench_(std::move(bench)), seed_(seed), runs_(runs) {}

void Report::add_result(const std::string& sweep, const std::string& point,
                        const std::string& series,
                        const core::RepeatedResult& result) {
  Row row;
  row.sweep = sweep;
  row.point = point;
  row.series = series;
  row.metrics = {
      {"elapsed_mean", result.elapsed.mean},
      {"elapsed_stddev", result.elapsed.stddev},
      {"elapsed_p95", result.elapsed.p95},
      {"elapsed_ci95", result.elapsed.ci95_half_width},
      {"locality_mean", result.locality.mean},
      {"rework_ratio", result.rework_ratio},
      {"recovery_ratio", result.recovery_ratio},
      {"migration_ratio", result.migration_ratio},
      {"misc_ratio", result.misc_ratio},
      {"total_ratio", result.total_ratio},
      {"samples", static_cast<double>(result.elapsed.count)},
      {"failed_runs", static_cast<double>(result.failed_runs)},
      {"nodes_departed", static_cast<double>(result.nodes_departed)},
      {"nodes_dead", static_cast<double>(result.nodes_dead)},
      {"blocks_lost", static_cast<double>(result.blocks_lost)},
      {"tasks_lost", static_cast<double>(result.tasks_lost)},
      {"rereplications", static_cast<double>(result.rereplications)},
      {"rereplication_giveups",
       static_cast<double>(result.rereplication_giveups)},
      {"rereplication_bytes",
       static_cast<double>(result.rereplication_bytes)},
  };
  rows_.push_back(std::move(row));
}

void Report::add_row(const std::string& sweep, const std::string& point,
                     const std::string& series,
                     std::vector<std::pair<std::string, double>> metrics) {
  Row row;
  row.sweep = sweep;
  row.point = point;
  row.series = series;
  row.metrics = std::move(metrics);
  rows_.push_back(std::move(row));
}

void Report::set_config(const std::string& key, double value) {
  config_.emplace_back(key, value);
}

void Report::set_observability(
    const std::vector<obs::RunObservations>& runs) {
  have_obs_ = true;
  obs_metrics_ = obs::MetricsSnapshot{};
  obs_records_.clear();
  obs_dropped_.clear();
  obs_replays_.clear();
  obs_span_counts_.clear();
  obs_sample_counts_.clear();
  obs_calibrations_.clear();
  bool any_spans = false;
  bool any_samples = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const obs::RunObservations& run = runs[i];
    obs_metrics_.merge(run.metrics);
    obs_records_.push_back(run.records.size());
    obs_dropped_.push_back(run.dropped);
    if (!run.records.empty()) {
      obs_replays_.push_back(obs::replay(run.records));
    }
    obs_span_counts_.push_back(run.spans.size());
    obs_sample_counts_.push_back(run.timeseries.times.size());
    any_spans = any_spans || !run.spans.empty();
    any_samples = any_samples || !run.timeseries.empty();
    if (!run.calibration.empty()) {
      obs_calibrations_.emplace_back(i, run.calibration);
    }
  }
  if (!any_spans) obs_span_counts_.clear();
  if (!any_samples) obs_sample_counts_.clear();
}

std::string Report::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + json_escape(bench_) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed_) + ",\n";
  out += "  \"runs\": " + std::to_string(runs_) + ",\n";
  out += "  \"config\": ";
  append_metrics(out, config_);
  if (have_obs_) {
    out += ",\n  \"observability\": {\n    \"metrics\": ";
    obs_metrics_.append_json(out, "    ");
    out += ",\n    \"trace_records\": [";
    for (std::size_t i = 0; i < obs_records_.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(obs_records_[i]);
    }
    out += "],\n    \"trace_dropped\": [";
    for (std::size_t i = 0; i < obs_dropped_.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(obs_dropped_[i]);
    }
    out += "],\n    \"timelines\": [";
    for (std::size_t i = 0; i < obs_replays_.size(); ++i) {
      const obs::ReplaySummary& rs = obs_replays_[i];
      out += i > 0 ? ",\n" : "\n";
      out += "      {\"run\": " + std::to_string(i) +
             ", \"elapsed\": " + json_number(rs.elapsed) +
             ", \"downtime\": " + json_number(rs.total_downtime) +
             ", \"busy\": " + json_number(rs.total_busy) +
             ", \"recovery\": " + json_number(rs.recovery_node_seconds) +
             ", \"nodes\": [";
      for (std::size_t n = 0; n < rs.nodes.size(); ++n) {
        const obs::NodeTotals& nt = rs.nodes[n];
        if (n > 0) out += ", ";
        out += "{\"node\": " + std::to_string(n) +
               ", \"transitions\": " + std::to_string(nt.transitions) +
               ", \"attempts\": " + std::to_string(nt.attempts) +
               ", \"downtime\": " + json_number(nt.downtime) +
               ", \"busy\": " + json_number(nt.busy) + "}";
      }
      out += "]}";
    }
    out += obs_replays_.empty() ? "]" : "\n    ]";
    if (!obs_span_counts_.empty()) {
      out += ",\n    \"spans\": [";
      for (std::size_t i = 0; i < obs_span_counts_.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(obs_span_counts_[i]);
      }
      out += "]";
    }
    if (!obs_sample_counts_.empty()) {
      out += ",\n    \"samples\": [";
      for (std::size_t i = 0; i < obs_sample_counts_.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(obs_sample_counts_[i]);
      }
      out += "]";
    }
    if (!obs_calibrations_.empty()) {
      out += ",\n    \"calibration\": [";
      for (std::size_t i = 0; i < obs_calibrations_.size(); ++i) {
        out += i > 0 ? ",\n" : "\n";
        out += "      {\"run\": " +
               std::to_string(obs_calibrations_[i].first) +
               ", \"summary\": ";
        obs_calibrations_[i].second.append_json(out);
        out += "}";
      }
      out += "\n    ]";
    }
    out += "\n  }";
  }
  out += ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    out += "    {\"sweep\": \"" + json_escape(row.sweep) + "\", ";
    out += "\"point\": \"" + json_escape(row.point) + "\", ";
    out += "\"series\": \"" + json_escape(row.series) + "\", ";
    out += "\"metrics\": ";
    append_metrics(out, row.metrics);
    out += i + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void Report::write(const std::string& path) const {
  common::write_file(path, to_json());
}

}  // namespace adapt::runner
