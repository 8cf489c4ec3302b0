#include "obs/perfetto.h"

#include <cmath>
#include <limits>

#include "common/jsonfmt.h"

namespace adapt::obs {

namespace {

constexpr std::uint32_t kOrigin = std::numeric_limits<std::uint32_t>::max();

std::int64_t micros(common::Seconds t) {
  return static_cast<std::int64_t>(std::llround(t * 1e6));
}

std::string num(std::int64_t v) { return std::to_string(v); }

// One trace event as a single JSON line (keys in fixed order).
struct EventWriter {
  std::string& out;
  std::uint64_t run;

  void meta(std::int64_t tid, const char* what, const std::string& name) {
    out += "{\"ph\": \"M\", \"pid\": " + std::to_string(run) +
           ", \"tid\": " + num(tid) + ", \"name\": \"" + what +
           "\", \"args\": {\"name\": \"" + name + "\"}},\n";
  }

  void slice(std::int64_t tid, common::Seconds t0, common::Seconds t1,
             const std::string& name, const char* cat,
             const std::string& args_json) {
    const std::int64_t ts = micros(t0);
    const std::int64_t dur = micros(t1) - ts;
    out += "{\"ph\": \"X\", \"pid\": " + std::to_string(run) +
           ", \"tid\": " + num(tid) + ", \"ts\": " + num(ts) +
           ", \"dur\": " + num(dur < 0 ? 0 : dur) + ", \"name\": \"" +
           name + "\", \"cat\": \"" + cat + "\"";
    if (!args_json.empty()) out += ", \"args\": {" + args_json + "}";
    out += "},\n";
  }

  void instant(std::int64_t tid, common::Seconds t, const std::string& name,
               const char* cat) {
    out += "{\"ph\": \"i\", \"pid\": " + std::to_string(run) +
           ", \"tid\": " + num(tid) + ", \"ts\": " + num(micros(t)) +
           ", \"name\": \"" + name + "\", \"cat\": \"" + cat +
           "\", \"s\": \"t\"},\n";
  }

  void flow(const char* ph, std::int64_t tid, common::Seconds t,
            const std::string& id, const char* cat) {
    out += "{\"ph\": \"" + std::string(ph) +
           "\", \"pid\": " + std::to_string(run) + ", \"tid\": " + num(tid) +
           ", \"ts\": " + num(micros(t)) + ", \"name\": \"transfer\"" +
           ", \"cat\": \"" + cat + "\", \"id\": \"" + id + "\"";
    if (ph[0] == 'f') out += ", \"bp\": \"e\"";
    out += "},\n";
  }
};

struct OpenAttempt {
  std::uint32_t task = 0;
  common::Seconds start = 0.0;
  std::uint32_t src = 0;
  bool dup = false;
  bool open = true;
};

std::string src_str(std::uint32_t src) {
  return src == kOrigin ? "-1" : std::to_string(src);
}

void export_run(std::string& out, std::uint64_t run,
                const std::vector<TraceRecord>& records) {
  EventWriter w{out, run};

  // Node count from the job-start record (fall back to the max node id
  // touched, scanned up front so metadata can lead the run's events).
  std::uint32_t node_count = 0;
  common::Seconds end_t = 0.0;
  for (const TraceRecord& r : records) {
    if (r.type == EventType::kJobStart) {
      node_count = std::max(node_count, r.node);
    } else if (r.node != kOrigin && r.node + 1 > node_count &&
               r.type != EventType::kJobEnd) {
      node_count = r.node + 1;
    }
    if (r.t > end_t) end_t = r.t;
  }
  const std::int64_t control = node_count;

  w.meta(0, "process_name", "run " + std::to_string(run));
  for (std::uint32_t n = 0; n < node_count; ++n) {
    w.meta(n, "thread_name", "node " + std::to_string(n));
  }
  w.meta(control, "thread_name", "control");

  // Per-node open state: attempts (stacked per node) and down spans.
  std::vector<std::vector<OpenAttempt>> open_attempts(node_count);
  std::vector<common::Seconds> down_since(node_count, -1.0);

  const auto close_attempt = [&](const TraceRecord& r, const char* outcome) {
    if (r.node >= node_count) return;
    std::vector<OpenAttempt>& stack = open_attempts[r.node];
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->open && it->task == r.task) {
        std::string args = "\"task\": " + std::to_string(it->task) +
                           ", \"src\": " + src_str(it->src) +
                           ", \"dup\": " + (it->dup ? "1" : "0") +
                           ", \"outcome\": \"" + outcome + "\"";
        if (r.type == EventType::kAttemptKill) {
          args += ", \"reason\": \"" + std::string(to_string(r.reason)) +
                  "\"";
        }
        w.slice(r.node, it->start, r.t,
                "task " + std::to_string(it->task), "attempt", args);
        it->open = false;
        return;
      }
    }
  };

  for (const TraceRecord& r : records) {
    switch (r.type) {
      case EventType::kAttemptStart: {
        if (r.node >= node_count) break;
        OpenAttempt a;
        a.task = r.task;
        a.start = r.t;
        a.src = r.peer;
        a.dup = r.aux != 0;
        open_attempts[r.node].push_back(a);
        break;
      }
      case EventType::kAttemptFinish:
        close_attempt(r, "finished");
        break;
      case EventType::kAttemptKill:
        close_attempt(r, "killed");
        break;
      case EventType::kNodeDown:
        if (r.node < node_count) down_since[r.node] = r.t;
        break;
      case EventType::kNodeUp:
        if (r.node < node_count && down_since[r.node] >= 0.0) {
          w.slice(r.node, down_since[r.node], r.t, "down", "node", "");
          down_since[r.node] = -1.0;
        }
        break;
      case EventType::kNodeDead:
        w.instant(r.node < node_count ? r.node : control, r.t,
                  "declared dead", "churn");
        break;
      case EventType::kRereplicationStart:
      case EventType::kMigrationStart: {
        const bool repair = r.type == EventType::kRereplicationStart;
        const char* cat = repair ? "rereplication" : "migration";
        const std::string name =
            std::string(repair ? "rerepl b" : "migrate b") +
            std::to_string(r.task);
        const std::string id =
            std::to_string(run) + "." + std::to_string(r.ticket);
        const std::int64_t src_tid =
            (r.peer == kOrigin || r.peer >= node_count) ? control : r.peer;
        // Arrow from the serving source to the destination grant window.
        w.instant(src_tid, r.v0, "serve b" + std::to_string(r.task), cat);
        w.flow("s", src_tid, r.v0, id, cat);
        w.slice(r.node < node_count ? r.node : control, r.v0, r.v1, name,
                cat,
                "\"block\": " + std::to_string(r.task) +
                    ", \"src\": " + src_str(r.peer) +
                    ", \"attempt\": " + std::to_string(r.aux));
        w.flow("f", r.node < node_count ? r.node : control, r.v1, id, cat);
        break;
      }
      case EventType::kRereplicationDone:
        w.instant(r.node < node_count ? r.node : control, r.t,
                  "landed b" + std::to_string(r.task), "rereplication");
        break;
      case EventType::kRereplicationGiveup:
        w.instant(control, r.t, "giveup b" + std::to_string(r.task),
                  "rereplication");
        break;
      case EventType::kMigrationCommit:
        w.instant(r.node < node_count ? r.node : control, r.t,
                  "committed b" + std::to_string(r.task), "migration");
        break;
      case EventType::kReplicaLost:
        w.instant(control, r.t, "lost b" + std::to_string(r.task), "churn");
        break;
      case EventType::kSafeModeEnter:
        w.instant(control, r.t, "safe mode enter", "churn");
        break;
      case EventType::kSafeModeExit:
        w.instant(control, r.t, "safe mode exit", "churn");
        break;
      case EventType::kPartitionStart:
        w.instant(control, r.t, "partition start", "gray");
        break;
      case EventType::kPartitionHeal:
        w.instant(control, r.t, "partition heal", "gray");
        break;
      default:
        break;
    }
  }

  // Close anything still open at the end of the run so every span
  // renders (an unclosed slice is dropped by the viewer).
  for (std::uint32_t n = 0; n < node_count; ++n) {
    for (const OpenAttempt& a : open_attempts[n]) {
      if (!a.open) continue;
      w.slice(n, a.start, end_t, "task " + std::to_string(a.task),
              "attempt",
              "\"task\": " + std::to_string(a.task) +
                  ", \"src\": " + src_str(a.src) +
                  ", \"dup\": " + (a.dup ? "1" : "0") +
                  ", \"outcome\": \"open\"");
    }
    if (down_since[n] >= 0.0) {
      w.slice(n, down_since[n], end_t, "down", "node", "");
    }
  }
}

}  // namespace

std::string perfetto_json(const std::vector<RunObservations>& runs) {
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  for (std::size_t run = 0; run < runs.size(); ++run) {
    export_run(out, run, runs[run].records);
  }
  // Strip the trailing ",\n" left by the last event (JSON forbids it).
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

void write_perfetto_json(const std::string& path,
                         const std::vector<RunObservations>& runs) {
  common::write_file(path, perfetto_json(runs));
}

}  // namespace adapt::obs
