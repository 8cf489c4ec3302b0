// Trace inspector: replay a JSONL event trace written by any bench's
// --trace flag and print summary tables — per-run event counts, the
// busiest per-node timelines, and the trace-derived recovery overhead
// (downtime while a node still held undone home tasks), which can be
// audited against the JobResult accounting in the matching --json
// report.
//
// With --spans it additionally (or instead) folds a span-profile stream
// written by a bench's --spans flag into per-phase self-time tables:
// simulated seconds attributed to each phase with child time subtracted,
// so nested spans never double-count.
//
// Lineage queries rebuild the causal index from the trace and answer
// "what happened to this block/task" directly:
//   --lineage B   print block B's full replica chain (placed → repaired
//                 → written off → …) with the loss verdict
//   --task T      print task T's attempt tree (speculative siblings,
//                 kill reasons, stalls)
//   --why-lost    loss post-mortem: classify every lost block by root
//                 cause and print per-cause counts + one line per loss
//   --perfetto P  export the trace as Perfetto/Chrome trace-event JSON
//                 (open in ui.perfetto.dev or chrome://tracing)
//
//   ./trace_inspect [<trace.jsonl>] [--spans spans.jsonl]
//                   [--nodes N] [--runs R] [--lineage B] [--task T]
//                   [--why-lost] [--perfetto out.json]
//     --spans P   fold span-profile JSONL P into per-phase tables
//     --nodes N   show the N busiest node timelines per run (default 8)
//     --runs R    inspect only the first R runs (default: all)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "obs/lineage.h"
#include "obs/perfetto.h"
#include "obs/replay.h"

namespace {

using namespace adapt;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void print_run(std::uint64_t run_index, const obs::RunObservations& run,
               std::size_t show_nodes) {
  const obs::ReplaySummary summary = obs::replay(run.records);

  // When the ring overflowed, every table below undercounts — stamp the
  // warning on each header so a table screenshotted in isolation still
  // carries it.
  const std::string trunc =
      run.dropped > 0
          ? " [TRUNCATED: ring dropped " + std::to_string(run.dropped) +
                " record(s) — totals undercount; raise --ring-capacity]"
          : std::string();

  std::printf("\n=== run %llu: %zu record(s)",
              static_cast<unsigned long long>(run_index),
              run.records.size());
  if (run.dropped > 0) {
    std::printf(" (%llu dropped — ring too small; raw totals below "
                "undercount)",
                static_cast<unsigned long long>(run.dropped));
  }
  std::printf(" ===\n");
  std::printf("nodes %zu, tasks %llu, elapsed %s\n", summary.node_count,
              static_cast<unsigned long long>(summary.task_count),
              common::format_seconds(summary.elapsed).c_str());

  common::Table events({"event", "count"});
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    const auto type = static_cast<obs::EventType>(i);
    if (summary.count(type) == 0) continue;
    events.add_row({obs::to_string(type),
                    std::to_string(summary.count(type))});
  }
  std::printf("event counts%s:\n%s", trunc.c_str(),
              events.to_string().c_str());

  std::printf("\ntotal downtime %s, total busy %s\n",
              common::format_seconds(summary.total_downtime).c_str(),
              common::format_seconds(summary.total_busy).c_str());
  std::printf("recovery (downtime with undone home tasks): "
              "%.17g node-seconds\n",
              summary.recovery_node_seconds);

  using obs::EventType;
  const auto n = [&](EventType type) { return summary.count(type); };
  const auto str = [&](EventType type) { return std::to_string(n(type)); };

  // Churn & recovery: only shown when the trace has any churn activity.
  if (n(EventType::kNodeDead) > 0 || n(EventType::kReplicaLost) > 0 ||
      n(EventType::kRereplicationDone) > 0 ||
      n(EventType::kRereplicationRetry) > 0 ||
      n(EventType::kRereplicationGiveup) > 0) {
    common::Table recovery({"dead nodes", "replicas lost", "re-repl",
                            "retries", "give-ups", "moved"});
    recovery.add_row(
        {str(EventType::kNodeDead), str(EventType::kReplicaLost),
         str(EventType::kRereplicationDone),
         str(EventType::kRereplicationRetry),
         str(EventType::kRereplicationGiveup),
         common::format_bytes(
             static_cast<std::uint64_t>(summary.rereplication_bytes))});
    std::printf("\nchurn & recovery%s:\n%s", trunc.c_str(),
                recovery.to_string().c_str());
  }

  // Failure audit: only shown when the trace carries gray-failure
  // activity — false-positive dead declarations (nodes revived by a
  // later beat), checksum catches and their recovery path, safe-mode
  // entries/exits, and re-replication give-ups (repairs abandoned).
  if (n(EventType::kNodeRevived) > 0 || n(EventType::kCorruptRead) > 0 ||
      n(EventType::kReplicaCorrupt) > 0 ||
      n(EventType::kSafeModeEnter) > 0 ||
      n(EventType::kPartitionStart) > 0 ||
      n(EventType::kStragglerStart) > 0) {
    common::Table audit({"false dead", "revived repl", "corrupt",
                         "caught reads", "by scan", "safe in/out",
                         "deferred w/o", "give-ups"});
    audit.add_row(
        {str(EventType::kNodeRevived),
         std::to_string(summary.revived_replicas_restored) + "+" +
             std::to_string(summary.revived_replicas_trimmed) + "t",
         str(EventType::kReplicaCorrupt), str(EventType::kCorruptRead),
         std::to_string(summary.corrupt_reads_scan),
         str(EventType::kSafeModeEnter) + "/" +
             str(EventType::kSafeModeExit),
         std::to_string(summary.safe_mode_writeoffs),
         str(EventType::kRereplicationGiveup)});
    std::printf("\nfailure audit%s:\n%s", trunc.c_str(),
                audit.to_string().c_str());
    if (n(EventType::kPartitionStart) > 0 ||
        n(EventType::kStragglerStart) > 0) {
      std::printf("injected: %llu partition(s) (%llu healed), "
                  "%llu straggler(s)\n",
                  static_cast<unsigned long long>(
                      n(EventType::kPartitionStart)),
                  static_cast<unsigned long long>(
                      n(EventType::kPartitionHeal)),
                  static_cast<unsigned long long>(
                      n(EventType::kStragglerStart)));
    }
  }

  // Online rebalancing: only shown when the drift→rebalance loop ran.
  if (n(EventType::kRebalanceTrigger) > 0 ||
      n(EventType::kMigrationCommit) > 0 ||
      n(EventType::kMigrationRetry) > 0 ||
      n(EventType::kMigrationGiveup) > 0) {
    common::Table migration({"triggers", "committed", "retries",
                             "give-ups", "moved"});
    migration.add_row(
        {str(EventType::kRebalanceTrigger),
         str(EventType::kMigrationCommit), str(EventType::kMigrationRetry),
         str(EventType::kMigrationGiveup),
         common::format_bytes(
             static_cast<std::uint64_t>(summary.migration_bytes))});
    std::printf("\nonline rebalancing%s:\n%s", trunc.c_str(),
                migration.to_string().c_str());
  }

  // Scheduling: only shown when duplicate attempts were launched —
  // speculation or redundant k-launch.
  if (summary.duplicate_launches > 0 || summary.duplicate_wins > 0 ||
      summary.redundant_cancels > 0 || summary.redundant_waste_bytes > 0) {
    common::Table scheduling({"dup launches", "dup wins", "cancels",
                              "waste"});
    scheduling.add_row(
        {std::to_string(summary.duplicate_launches),
         std::to_string(summary.duplicate_wins),
         std::to_string(summary.redundant_cancels),
         common::format_bytes(
             static_cast<std::uint64_t>(summary.redundant_waste_bytes))});
    std::printf("\nscheduling%s:\n%s", trunc.c_str(),
                scheduling.to_string().c_str());
  }

  // Busiest nodes first; ties broken by index for a stable listing.
  std::vector<std::size_t> order(summary.nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&summary](std::size_t a, std::size_t b) {
              const obs::NodeTotals& na = summary.nodes[a];
              const obs::NodeTotals& nb = summary.nodes[b];
              if (na.busy != nb.busy) return na.busy > nb.busy;
              return a < b;
            });
  common::Table timeline(
      {"node", "attempts", "transitions", "busy (s)", "down (s)",
       "utilization"});
  const std::size_t shown = std::min(show_nodes, order.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const std::size_t node = order[i];
    const obs::NodeTotals& totals = summary.nodes[node];
    const double util =
        summary.elapsed > 0 ? totals.busy / summary.elapsed : 0.0;
    timeline.add_row({std::to_string(node),
                      std::to_string(totals.attempts),
                      std::to_string(totals.transitions),
                      common::format_double(totals.busy, 1),
                      common::format_double(totals.downtime, 1),
                      common::format_percent(util)});
  }
  std::printf("\nbusiest %zu of %zu node(s)%s:\n%s", shown,
              summary.nodes.size(), trunc.c_str(),
              timeline.to_string().c_str());
}

void print_phase_table(const char* title,
                       const std::vector<obs::PhaseTotals>& phases) {
  double total_self = 0.0;
  for (const obs::PhaseTotals& p : phases) total_self += p.self_sim;
  common::Table table({"phase", "spans", "total (s)", "self (s)",
                       "self share"});
  for (const obs::PhaseTotals& p : phases) {
    table.add_row({p.name, std::to_string(p.count),
                   common::format_double(p.dur_sim, 3),
                   common::format_double(p.self_sim, 3),
                   common::format_percent(
                       total_self > 0 ? p.self_sim / total_self : 0.0)});
  }
  std::printf("%s\n%s", title, table.to_string().c_str());
}

int inspect_spans(const std::string& path, std::int64_t max_runs) {
  std::vector<std::vector<obs::SpanRecord>> runs;
  try {
    runs = obs::parse_spans_jsonl(read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::size_t spans = 0;
  std::vector<obs::SpanRecord> all;
  for (const auto& run : runs) {
    spans += run.size();
    all.insert(all.end(), run.begin(), run.end());
  }
  std::printf("\n%s: %zu run(s), %zu span(s)\n", path.c_str(),
              runs.size(), spans);
  print_phase_table("\nper-phase self time, all runs:",
                    obs::fold_spans(all));
  const std::size_t limit =
      max_runs < 0 ? runs.size()
                   : std::min(runs.size(), static_cast<std::size_t>(max_runs));
  if (runs.size() > 1) {
    for (std::size_t i = 0; i < limit; ++i) {
      std::printf("\n=== run %zu: %zu span(s) ===\n", i, runs[i].size());
      print_phase_table("", obs::fold_spans(runs[i]));
    }
  }
  return 0;
}

// Lineage queries: rebuild the causal index from each run's records and
// answer --lineage/--task/--why-lost. Returns nonzero when a queried id
// exists in no run.
int run_queries(const std::vector<obs::RunObservations>& runs,
                std::size_t limit, std::int64_t lineage_block,
                std::int64_t task_id, bool why_lost) {
  bool found_block = lineage_block < 0;
  bool found_task = task_id < 0;
  for (std::size_t i = 0; i < limit; ++i) {
    const obs::RunObservations& run = runs[i];
    if (run.dropped > 0) {
      std::printf("\n=== run %zu === [TRUNCATED: ring dropped %llu "
                  "record(s); chains rebuilt from a partial trace — "
                  "re-export with --lineage/--ring-capacity for exact "
                  "history]\n",
                  i, static_cast<unsigned long long>(run.dropped));
    } else {
      std::printf("\n=== run %zu ===\n", i);
    }
    const obs::LineageSnapshot snapshot = obs::build_lineage(run.records);
    if (lineage_block >= 0) {
      const obs::BlockLineage* b = obs::find_block(
          snapshot, static_cast<std::uint32_t>(lineage_block));
      if (b == nullptr) {
        std::printf("block %lld: no lineage in this run\n",
                    static_cast<long long>(lineage_block));
      } else {
        found_block = true;
        std::printf("%s", obs::describe_block(*b).c_str());
      }
    }
    if (task_id >= 0) {
      const obs::TaskLineage* t =
          obs::find_task(snapshot, static_cast<std::uint32_t>(task_id));
      if (t == nullptr) {
        std::printf("task %lld: no lineage in this run\n",
                    static_cast<long long>(task_id));
      } else {
        found_task = true;
        std::printf("%s", obs::describe_task(*t).c_str());
      }
    }
    if (why_lost) {
      std::printf("%s",
                  obs::post_mortem_text(obs::post_mortem(snapshot)).c_str());
    }
  }
  return found_block && found_task ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const std::string spans_path = flags.get_string("spans", "");
  if (flags.positional().size() != 1 &&
      !(flags.positional().empty() && !spans_path.empty())) {
    std::fprintf(stderr,
                 "usage: trace_inspect [<trace.jsonl>] "
                 "[--spans spans.jsonl] [--nodes N] [--runs R]\n"
                 "       trace_inspect <trace.jsonl> [--lineage B] "
                 "[--task T] [--why-lost] [--perfetto out.json]\n");
    return 2;
  }
  const auto show_nodes =
      static_cast<std::size_t>(flags.get_int("nodes", 8));
  const std::int64_t max_runs = flags.get_int("runs", -1);
  const std::int64_t lineage_block = flags.get_int("lineage", -1);
  const std::int64_t task_id = flags.get_int("task", -1);
  const bool why_lost = flags.get_bool("why-lost", false);
  const std::string perfetto_path = flags.get_string("perfetto", "");
  if (flags.positional().empty()) {
    return inspect_spans(spans_path, max_runs);
  }
  const std::string path = flags.positional()[0];

  std::vector<obs::RunObservations> runs;
  try {
    runs = obs::parse_jsonl(read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }

  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  for (const obs::RunObservations& run : runs) {
    records += run.records.size();
    dropped += run.dropped;
  }
  std::printf("%s: %zu run(s), %llu record(s), %llu dropped\n",
              path.c_str(), runs.size(),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(dropped));

  const std::size_t limit =
      max_runs < 0 ? runs.size()
                   : std::min(runs.size(), static_cast<std::size_t>(max_runs));

  if (!perfetto_path.empty()) {
    try {
      obs::write_perfetto_json(perfetto_path, runs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("wrote Perfetto timeline to %s (load in ui.perfetto.dev "
                "or chrome://tracing)\n",
                perfetto_path.c_str());
  }
  // Query mode replaces the summary tables: answer the question asked,
  // nothing else.
  if (lineage_block >= 0 || task_id >= 0 || why_lost) {
    return run_queries(runs, limit, lineage_block, task_id, why_lost);
  }
  if (!perfetto_path.empty()) return 0;

  for (std::size_t i = 0; i < limit; ++i) {
    print_run(i, runs[i], show_nodes);
  }
  if (!spans_path.empty()) {
    return inspect_spans(spans_path, max_runs);
  }
  return 0;
}
