#include "obs/replay.h"

#include <algorithm>
#include <map>
#include <utility>

namespace adapt::obs {

namespace {

template <typename T>
void grow_to(std::vector<T>& v, std::size_t index) {
  if (v.size() <= index) v.resize(index + 1);
}

struct NodeState {
  bool down = false;
  common::Seconds down_since = 0.0;
  common::Seconds recovery_open = -1.0;
  std::uint32_t undone_home = 0;
  std::uint32_t running = 0;        // attempts currently running here
  common::Seconds busy_from = 0.0;
};

}  // namespace

ReplaySummary replay(const std::vector<TraceRecord>& records) {
  ReplaySummary out;
  out.event_counts.assign(kEventTypeCount, 0);

  std::vector<NodeState> nodes;
  std::vector<std::vector<std::uint32_t>> task_homes;
  std::vector<bool> task_done;
  // Spec flag of the most recent attempt_start per (task, node), so a
  // finish can be attributed to a speculative copy without attempt ids.
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> attempt_spec;

  const auto close_recovery = [&](NodeState& ns, common::Seconds now) {
    if (ns.recovery_open >= 0.0) {
      out.recovery_node_seconds += std::max(0.0, now - ns.recovery_open);
      ns.recovery_open = -1.0;
    }
  };

  for (const TraceRecord& r : records) {
    ++out.event_counts[static_cast<std::size_t>(r.type)];
    switch (r.type) {
      case EventType::kPlacement: {
        grow_to(nodes, r.node);
        grow_to(task_homes, r.task);
        grow_to(task_done, r.task);
        task_homes[r.task].push_back(r.node);
        ++nodes[r.node].undone_home;
        break;
      }
      case EventType::kJobStart:
        grow_to(nodes, r.node > 0 ? r.node - 1 : 0);
        out.task_count = std::max<std::uint64_t>(out.task_count, r.task);
        break;
      case EventType::kNodeDown: {
        grow_to(nodes, r.node);
        NodeState& ns = nodes[r.node];
        ns.down = true;
        ns.down_since = r.t;
        if (ns.undone_home > 0) ns.recovery_open = r.t;
        grow_to(out.nodes, r.node);
        ++out.nodes[r.node].transitions;
        break;
      }
      case EventType::kNodeUp: {
        grow_to(nodes, r.node);
        NodeState& ns = nodes[r.node];
        close_recovery(ns, r.t);
        if (ns.down) {
          grow_to(out.nodes, r.node);
          out.nodes[r.node].downtime += r.t - ns.down_since;
          ns.down = false;
        }
        grow_to(out.nodes, r.node);
        ++out.nodes[r.node].transitions;
        break;
      }
      case EventType::kAttemptStart: {
        grow_to(nodes, r.node);
        NodeState& ns = nodes[r.node];
        if (ns.running++ == 0) ns.busy_from = r.t;
        grow_to(out.nodes, r.node);
        ++out.nodes[r.node].attempts;
        if (r.aux != 0) ++out.duplicate_launches;
        attempt_spec[{r.task, r.node}] = r.aux != 0;
        break;
      }
      case EventType::kAttemptFinish: {
        grow_to(nodes, r.node);
        NodeState& ns = nodes[r.node];
        if (ns.running > 0 && --ns.running == 0) {
          grow_to(out.nodes, r.node);
          out.nodes[r.node].busy += r.t - ns.busy_from;
        }
        const auto spec = attempt_spec.find({r.task, r.node});
        if (spec != attempt_spec.end() && spec->second) {
          ++out.duplicate_wins;
        }
        grow_to(task_done, r.task);
        grow_to(task_homes, r.task);
        if (!task_done[r.task]) {
          task_done[r.task] = true;
          for (const std::uint32_t home : task_homes[r.task]) {
            NodeState& hs = nodes[home];
            if (--hs.undone_home == 0) close_recovery(hs, r.t);
          }
        }
        break;
      }
      case EventType::kAttemptKill: {
        grow_to(nodes, r.node);
        NodeState& ns = nodes[r.node];
        if (ns.running > 0 && --ns.running == 0) {
          grow_to(out.nodes, r.node);
          out.nodes[r.node].busy += r.t - ns.busy_from;
        }
        if (r.reason == TraceReason::kRedundant) ++out.redundant_cancels;
        break;
      }
      case EventType::kJobEnd: {
        out.elapsed = r.t;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          NodeState& ns = nodes[i];
          close_recovery(ns, r.t);
          grow_to(out.nodes, i);
          if (ns.down) {
            out.nodes[i].downtime += r.t - ns.down_since;
            ns.down = false;
          }
          if (ns.running > 0) {
            out.nodes[i].busy += r.t - ns.busy_from;
            ns.running = 0;
          }
        }
        break;
      }
      case EventType::kRereplicationDone:
        out.rereplication_bytes += r.v0;
        break;
      case EventType::kMigrationCommit:
        out.migration_bytes += r.v0;
        break;
      case EventType::kCorruptRead:
        if (r.aux == 2) ++out.corrupt_reads_scan;
        break;
      case EventType::kSafeModeExit:
        if (r.aux != 0) ++out.safe_mode_healed;
        out.safe_mode_writeoffs += r.task;
        break;
      case EventType::kNodeRevived:
        out.revived_replicas_restored += r.task;
        out.revived_replicas_trimmed += r.aux;
        break;
      case EventType::kRedundantWaste:
        out.redundant_waste_bytes += r.v0;
        break;
      default:
        break;
    }
  }

  out.node_count = std::max(nodes.size(), out.nodes.size());
  out.nodes.resize(out.node_count);
  if (out.task_count == 0) out.task_count = task_homes.size();
  for (const NodeTotals& n : out.nodes) {
    out.total_downtime += n.downtime;
    out.total_busy += n.busy;
  }
  return out;
}

std::vector<PhaseTotals> fold_spans(const std::vector<SpanRecord>& spans) {
  std::vector<PhaseTotals> out;
  for (const SpanRecord& s : spans) {
    auto it = std::find_if(
        out.begin(), out.end(),
        [&](const PhaseTotals& p) { return p.name == s.name; });
    if (it == out.end()) {
      out.push_back(PhaseTotals{s.name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    ++it->count;
    it->dur_sim += s.dur_sim;
    it->self_sim += s.self_sim;
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseTotals& a, const PhaseTotals& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace adapt::obs
