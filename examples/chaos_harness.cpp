// Chaos-invariant harness: sweep randomized gray-failure schedules and
// check the post-convergence invariants (metadata consistency, loss
// honesty, determinism) on every one. Each seed denotes one schedule —
// lossy heartbeats, timed partitions, stragglers and bitrot layered on
// crash-stop churn — so a violation is reproducible by rerunning its
// seed.
//
//   ./chaos_harness [--seeds N] [--base-seed S] [--nodes N] [--blocks M]
//                   [--dump-dir DIR] [--warn-only] [--ci]
//                   [--post-mortem PATH]
//
// On a violation the offending run's schedule and full event trace are
// written under --dump-dir (for CI artifact upload), and block-scoped
// violations print the offending block's causal lineage chain — what
// placed, repaired, wrote off and lost its replicas — instead of
// pointing at the raw trace dump. --warn-only keeps the exit status
// zero; --ci additionally emits GitHub "::warning" annotations.
// --post-mortem PATH appends every seed's loss post-mortem to PATH;
// same seeds must reproduce the file byte-for-byte (CI diffs two
// invocations).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "obs/lineage.h"
#include "obs/replay.h"
#include "sim/chaos.h"

namespace {

using namespace adapt;

// Human-readable dump of the sampled schedule, enough to reconstruct
// the ChurnConfig by hand when replaying a violation.
std::string describe_schedule(const sim::SimJobConfig::ChurnConfig& c) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "heartbeat_loss_prob %.6f\ndeparture_rate %.6g\n"
                "heartbeat_interval %.3f\ndead_timeout %.3f\n",
                c.heartbeat_loss_prob, c.departure_rate, c.heartbeat_interval,
                c.dead_timeout);
  out += buf;
  for (const auto& p : c.partitions) {
    std::snprintf(buf, sizeof(buf), "partition at %.3f heal %.3f nodes",
                  p.at, p.heal_at);
    out += buf;
    for (const auto n : p.nodes) {
      std::snprintf(buf, sizeof(buf), " %u", n);
      out += buf;
    }
    out += '\n';
  }
  for (const auto& s : c.stragglers) {
    std::snprintf(buf, sizeof(buf),
                  "straggler node %u at %.3f until %.3f slow %.3f\n", s.node,
                  s.at, s.until, s.slow_factor);
    out += buf;
  }
  for (const auto& corr : c.corruptions) {
    std::snprintf(buf, sizeof(buf), "corruption at %.3f block %u node %lld\n",
                  corr.at, corr.block, static_cast<long long>(corr.node));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "scan_interval %.3f scan_budget %d\n"
                "safe_mode_threshold %.3f safe_mode_hold %.3f\n",
                c.scan_interval, c.scan_blocks_per_sweep,
                c.safe_mode_threshold, c.safe_mode_hold);
  out += buf;
  return out;
}

void dump_artifacts(const std::string& dir, std::uint64_t seed,
                    const sim::ChaosReport& report) {
  std::filesystem::create_directories(dir);
  const std::string stem = dir + "/seed_" + std::to_string(seed);
  std::ofstream(stem + "_schedule.txt") << describe_schedule(report.schedule);
  std::ofstream(stem + "_trace.jsonl") << report.trace_jsonl;
  std::ofstream(stem + "_postmortem.txt") << report.post_mortem;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const auto seeds = static_cast<std::uint64_t>(flags.get_int("seeds", 20));
  const auto base = static_cast<std::uint64_t>(flags.get_int("base-seed", 1));
  const bool warn_only = flags.get_bool("warn-only", false);
  const bool ci = flags.get_bool("ci", false);
  const std::string dump_dir =
      flags.get_string("dump-dir", "chaos_artifacts");
  const std::string post_mortem_path = flags.get_string("post-mortem", "");
  std::ofstream post_mortem_out;
  if (!post_mortem_path.empty()) {
    post_mortem_out.open(post_mortem_path, std::ios::binary);
    if (!post_mortem_out) {
      std::fprintf(stderr, "cannot open --post-mortem path %s\n",
                   post_mortem_path.c_str());
      return 2;
    }
  }

  sim::ChaosConfig config;
  config.nodes = static_cast<std::size_t>(
      flags.get_int("nodes", static_cast<std::int64_t>(config.nodes)));
  config.blocks =
      static_cast<std::uint32_t>(flags.get_int("blocks", config.blocks));
  config.replication =
      static_cast<int>(flags.get_int("replication", config.replication));
  config.gamma = flags.get_double("gamma", config.gamma);
  config.check_determinism = flags.get_bool("determinism", true);

  std::printf("chaos sweep: %llu seeds, %zu nodes, %u blocks x%d\n\n",
              static_cast<unsigned long long>(seeds), config.nodes,
              config.blocks, config.replication);
  std::printf("%6s  %9s  %5s  %5s  %5s  %5s  %5s  %6s  %s\n", "seed",
              "makespan", "lost", "fdead", "rot", "creads", "safe", "scans",
              "verdict");

  std::size_t violating_seeds = 0;
  for (std::uint64_t i = 0; i < seeds; ++i) {
    config.seed = base + i;
    const sim::ChaosReport report = sim::run_chaos(config);
    const sim::JobResult& job = report.job;
    std::printf("%6llu  %9.2f  %5zu  %5llu  %5llu  %5llu  %5llu  %6llu  %s\n",
                static_cast<unsigned long long>(config.seed), job.elapsed,
                job.lost_blocks.size(),
                static_cast<unsigned long long>(job.false_dead_declarations),
                static_cast<unsigned long long>(job.replicas_corrupted),
                static_cast<unsigned long long>(job.corrupt_reads),
                static_cast<unsigned long long>(job.safe_mode_entries),
                static_cast<unsigned long long>(job.blocks_scanned),
                report.ok() ? "ok" : "VIOLATION");
    if (!post_mortem_path.empty()) {
      post_mortem_out << "=== seed " << config.seed << " ===\n"
                      << report.post_mortem;
    }
    if (!report.ok()) {
      ++violating_seeds;
      // Rebuild the lineage once per violating seed so block-scoped
      // violations can print the offending block's causal chain.
      obs::LineageSnapshot lineage;
      bool have_lineage = false;
      try {
        const std::vector<obs::RunObservations> runs =
            obs::parse_jsonl(report.trace_jsonl);
        if (!runs.empty()) {
          lineage = obs::build_lineage(runs.front().records);
          have_lineage = true;
        }
      } catch (const std::exception&) {
        // Fall back to the detail string alone.
      }
      for (const sim::ChaosViolation& v : report.violations) {
        std::printf("        %s: %s\n", v.invariant.c_str(),
                    v.detail.c_str());
        if (have_lineage && v.block != sim::ChaosViolation::kNoBlock) {
          if (const obs::BlockLineage* b = obs::find_block(lineage, v.block)) {
            std::printf("%s", obs::describe_block(*b).c_str());
          }
        }
        if (ci) {
          std::printf("::warning title=chaos %s (seed %llu)::%s\n",
                      v.invariant.c_str(),
                      static_cast<unsigned long long>(config.seed),
                      v.detail.c_str());
        }
      }
      if (!dump_dir.empty()) dump_artifacts(dump_dir, config.seed, report);
    }
  }

  std::printf("\n%zu/%llu seeds violated an invariant\n", violating_seeds,
              static_cast<unsigned long long>(seeds));
  if (violating_seeds > 0 && !dump_dir.empty()) {
    std::printf("artifacts under %s/\n", dump_dir.c_str());
  }
  return (violating_seeds > 0 && !warn_only) ? 1 : 0;
}
