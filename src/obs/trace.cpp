#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/jsonfmt.h"

namespace adapt::obs {

namespace {

using common::json_number;

// Matches cluster::kOriginEndpoint without pulling in the cluster
// library; the origin is serialized as src = -1.
constexpr std::uint32_t kOrigin = std::numeric_limits<std::uint32_t>::max();

// ---------------------------------------------------------------------
// The trace schema: for every EventType, its JSONL name and the ordered
// keys after "run", "t" and "ev". Each key reads one TraceRecord slot
// through one codec. The writer, the parser and to_string all read this
// table and nothing else.
// ---------------------------------------------------------------------

// kNode..kAux index kU32Slots; the other slots are read by name.
enum Slot : std::uint8_t {
  kNode, kPeer, kTask, kAux, kTicket, kV0, kV1, kReason
};

constexpr std::uint32_t TraceRecord::*kU32Slots[] = {
    &TraceRecord::node, &TraceRecord::peer, &TraceRecord::task,
    &TraceRecord::aux};

enum Codec : std::uint8_t {
  kUint,        // unsigned decimal
  kReal,        // "%.17g" double
  kQuote,       // "%.17g" double, written only when positive; +inf is null
  kEndpoint,    // unsigned decimal; the origin is -1
  kReasonName,  // to_string(TraceReason), quoted
  kKindName,    // kKindNames[value], quoted
  kPathName,    // kPathNames[value], quoted
};

// Index 2 also stands for any larger value.
using NameList = const char* const[3];
constexpr NameList kKindNames = {"local", "remote", "origin"};
constexpr NameList kPathNames = {"local", "remote", "scan"};

struct Field {
  const char* key = nullptr;  // nullptr ends the row
  Slot slot = kNode;
  Codec codec = kUint;
};

struct EventSchema {
  const char* name;
  Field fields[7];  // rereplication_start and migration_start use all 7
};

constexpr EventSchema kSchema[] = {
    {"placement",
     {{"block", kTask}, {"replica", kAux}, {"node", kNode},
      {"quote", kV0, kQuote}}},
    {"job_start", {{"nodes", kNode}, {"tasks", kTask}}},
    {"node_down", {{"node", kNode}}},
    {"node_up", {{"node", kNode}}},
    {"attempt_start",
     {{"task", kTask}, {"node", kNode}, {"src", kPeer, kEndpoint},
      {"spec", kAux}, {"ticket", kTicket}}},
    {"attempt_finish",
     {{"task", kTask}, {"node", kNode}, {"kind", kAux, kKindName}}},
    {"attempt_kill",
     {{"task", kTask}, {"node", kNode}, {"reason", kReason, kReasonName}}},
    {"transfer_request",
     {{"task", kTask}, {"src", kPeer, kEndpoint}, {"dst", kNode},
      {"ticket", kTicket}, {"start", kV0, kReal}, {"end", kV1, kReal}}},
    {"transfer_stall",
     {{"task", kTask}, {"src", kPeer, kEndpoint}, {"ticket", kTicket}}},
    {"transfer_resume",
     {{"task", kTask}, {"src", kPeer, kEndpoint}, {"ticket", kTicket},
      {"end", kV0, kReal}}},
    {"transfer_abort",
     {{"task", kTask}, {"src", kPeer, kEndpoint}, {"ticket", kTicket},
      {"reason", kReason, kReasonName}, {"reclaimed", kV0, kReal}}},
    {"task_park", {{"task", kTask}}},
    {"task_revive", {{"task", kTask}, {"node", kNode}}},
    {"job_end", {{"tasks", kTask}}},
    {"node_dead", {{"node", kNode}, {"replicas", kAux}}},
    {"replica_lost", {{"block", kTask}, {"recoverable", kAux}}},
    {"rereplication_start",
     {{"block", kTask}, {"src", kPeer, kEndpoint}, {"dst", kNode},
      {"ticket", kTicket}, {"attempt", kAux}, {"start", kV0, kReal},
      {"end", kV1, kReal}}},
    {"rereplication_done",
     {{"block", kTask}, {"src", kPeer, kEndpoint}, {"dst", kNode},
      {"ticket", kTicket}, {"bytes", kV0, kReal}}},
    {"rereplication_retry",
     {{"block", kTask}, {"reason", kReason, kReasonName}, {"attempt", kAux},
      {"next", kV0, kReal}}},
    {"rereplication_giveup", {{"block", kTask}, {"attempts", kAux}}},
    {"predictor_drift",
     {{"node", kNode}, {"score", kV0, kReal}, {"latency", kV1, kReal}}},
    {"rebalance_trigger", {{"moves", kTask}, {"alarms", kAux}}},
    {"migration_start",
     {{"block", kTask}, {"src", kPeer, kEndpoint}, {"dst", kNode},
      {"ticket", kTicket}, {"attempt", kAux}, {"start", kV0, kReal},
      {"end", kV1, kReal}}},
    {"migration_commit",
     {{"block", kTask}, {"src", kPeer, kEndpoint}, {"dst", kNode},
      {"ticket", kTicket}, {"bytes", kV0, kReal}}},
    {"migration_retry",
     {{"block", kTask}, {"reason", kReason, kReasonName}, {"attempt", kAux},
      {"next", kV0, kReal}}},
    {"migration_giveup", {{"block", kTask}, {"attempts", kAux}}},
    {"partition_start", {{"nodes", kAux}}},
    {"partition_heal", {{"nodes", kAux}}},
    {"straggler_start", {{"node", kNode}, {"slow", kV0, kReal}}},
    {"straggler_end", {{"node", kNode}}},
    {"replica_corrupt", {{"block", kTask}, {"node", kNode}}},
    {"corrupt_read",
     {{"block", kTask}, {"node", kNode}, {"path", kAux, kPathName}}},
    {"safe_mode_enter", {{"deferred", kAux}, {"fraction", kV0, kReal}}},
    {"safe_mode_exit", {{"writeoffs", kTask}, {"healed", kAux}}},
    {"node_revived",
     {{"node", kNode}, {"restored", kTask}, {"trimmed", kAux}}},
    {"redundant_waste",
     {{"task", kTask}, {"node", kNode}, {"bytes", kV0, kReal}}},
    {"replica_writeoff",
     {{"block", kTask}, {"node", kNode}, {"false_positive", kAux}}},
    {"replica_restore", {{"block", kTask}, {"node", kNode}}},
    {"replica_trim", {{"block", kTask}, {"node", kNode}}},
};
static_assert(std::size(kSchema) == kEventTypeCount,
              "one schema row per EventType, in enum order");

// Indexed by TraceReason. A kill because a node went down carries the
// name of the event that caused it.
constexpr const char* kReasonNames[] = {
    "none", kSchema[static_cast<std::size_t>(EventType::kNodeDown)].name,
    "source_timeout", "redundant", "checksum"};
static_assert(std::size(kReasonNames) ==
              static_cast<std::size_t>(TraceReason::kChecksum) + 1);

// Every uint/name codec reads kNode..kTicket, every double codec kV0 or
// kV1 and the reason codec kReason, so the accessors below stay in range.
constexpr bool slots_match_codecs() {
  for (const EventSchema& row : kSchema) {
    for (const Field& f : row.fields) {
      if (f.key == nullptr) break;
      const bool real = f.codec == kReal || f.codec == kQuote;
      const bool reason = f.codec == kReasonName;
      if (real != (f.slot == kV0 || f.slot == kV1)) return false;
      if (reason != (f.slot == kReason)) return false;
    }
  }
  return true;
}
static_assert(slots_match_codecs());

std::uint64_t get_uint(const TraceRecord& r, Slot slot) {
  return slot == kTicket ? r.ticket : r.*kU32Slots[slot];
}

void set_uint(TraceRecord& r, Slot slot, std::uint64_t value) {
  if (slot == kTicket) {
    r.ticket = value;
  } else {
    r.*kU32Slots[slot] = static_cast<std::uint32_t>(value);
  }
}

double TraceRecord::*real_slot(Slot slot) {
  return slot == kV1 ? &TraceRecord::v1 : &TraceRecord::v0;
}

const NameList& names_of(Codec codec) {
  return codec == kKindName ? kKindNames : kPathNames;
}

void append_quoted(std::string& out, const char* name) {
  out += '"';
  out += name;
  out += '"';
}

void append_value(std::string& out, const TraceRecord& r, const Field& f) {
  switch (f.codec) {
    case kUint:
      out += std::to_string(get_uint(r, f.slot));
      break;
    case kReal:
    case kQuote:
      out += json_number(r.*real_slot(f.slot));
      break;
    case kEndpoint:
      out += get_uint(r, f.slot) == kOrigin
                 ? "-1"
                 : std::to_string(get_uint(r, f.slot));
      break;
    case kReasonName:
      append_quoted(out, to_string(r.reason));
      break;
    case kKindName:
    case kPathName:
      append_quoted(out, names_of(f.codec)[std::min<std::uint64_t>(
                             get_uint(r, f.slot), 2)]);
      break;
  }
}

double as_double(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

std::uint64_t as_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

// Position of `name` in `names`, or `unknown` when it is not there.
template <std::size_t N>
std::uint32_t index_of(const char* const (&names)[N], const std::string& name,
                       std::uint32_t unknown) {
  for (std::uint32_t i = 0; i < N; ++i) {
    if (name == names[i]) return i;
  }
  return unknown;
}

void parse_value(TraceRecord& r, const Field& f, const std::string& value) {
  switch (f.codec) {
    case kUint:
      set_uint(r, f.slot, as_u64(value));
      break;
    case kReal:
      r.*real_slot(f.slot) = as_double(value);
      break;
    case kQuote:
      // json_number writes a +inf quote (lambda * mu >= 1) as null.
      r.*real_slot(f.slot) = value == "null"
                                 ? std::numeric_limits<double>::infinity()
                                 : as_double(value);
      break;
    case kEndpoint:
      set_uint(r, f.slot,
               !value.empty() && value[0] == '-' ? kOrigin : as_u64(value));
      break;
    case kReasonName:
      r.reason = static_cast<TraceReason>(index_of(kReasonNames, value, 0));
      break;
    case kKindName:
    case kPathName:
      set_uint(r, f.slot, index_of(names_of(f.codec), value, 2));
      break;
  }
}

[[noreturn]] void parse_error(const char* what_kind, std::size_t line_no,
                              const std::string& what) {
  throw std::runtime_error(std::string(what_kind) + " parse error on line " +
                           std::to_string(line_no) + ": " + what);
}

EventType event_from_name(const std::string& name, std::size_t line_no) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    if (name == kSchema[i].name) return static_cast<EventType>(i);
  }
  parse_error("trace", line_no, "unknown event '" + name + "'");
}

}  // namespace

const char* to_string(EventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kEventTypeCount ? kSchema[i].name : "?";
}

const char* to_string(TraceReason reason) {
  const auto i = static_cast<std::size_t>(reason);
  return i < std::size(kReasonNames) ? kReasonNames[i] : "?";
}

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void EventTracer::record(const TraceRecord& r) {
  if (sink_ != nullptr) sink_->observe(r);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceRecord> EventTracer::take_records() {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  // head_ is the oldest record once the ring wrapped; 0 otherwise.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  ring_.clear();
  head_ = 0;
  return out;
}

void append_jsonl(std::string& out, std::uint64_t run_index,
                  const TraceRecord& r) {
  out += "{\"run\": ";
  out += std::to_string(run_index);
  out += ", \"t\": ";
  out += json_number(r.t);
  out += ", \"ev\": ";
  append_quoted(out, to_string(r.type));
  for (const Field& f : kSchema[static_cast<std::size_t>(r.type)].fields) {
    if (f.key == nullptr) break;
    if (f.codec == kQuote && !(r.*real_slot(f.slot) > 0.0)) continue;
    out += ", \"";
    out += f.key;
    out += "\": ";
    append_value(out, r, f);
  }
  out += '}';
}

std::string to_jsonl(const std::vector<RunObservations>& runs) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    if (runs[run].dropped > 0) {
      out += "{\"run\": " + std::to_string(run) +
             ", \"ev\": \"dropped\", \"count\": " +
             std::to_string(runs[run].dropped) + "}\n";
    }
    for (const TraceRecord& r : runs[run].records) {
      append_jsonl(out, run, r);
      out += "\n";
    }
  }
  return out;
}

void write_jsonl(const std::string& path,
                 const std::vector<RunObservations>& runs) {
  common::write_file(path, to_jsonl(runs));
}

std::string spans_to_jsonl(const std::vector<RunObservations>& runs,
                           bool include_host) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    for (const SpanRecord& s : runs[run].spans) {
      out += "{\"run\": " + std::to_string(run) + ", \"span\": \"" +
             common::json_escape(s.name) +
             "\", \"depth\": " + std::to_string(s.depth) +
             ", \"t0\": " + json_number(s.start) +
             ", \"dur\": " + json_number(s.dur_sim) +
             ", \"self\": " + json_number(s.self_sim);
      if (include_host) {
        out += ", \"host_ns\": " + std::to_string(s.dur_host_ns) +
               ", \"host_self_ns\": " + std::to_string(s.self_host_ns);
      }
      out += "}\n";
    }
  }
  return out;
}

void write_spans_jsonl(const std::string& path,
                       const std::vector<RunObservations>& runs,
                       bool include_host) {
  common::write_file(path, spans_to_jsonl(runs, include_host));
}

std::string timeseries_to_jsonl(const std::vector<RunObservations>& runs) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    const TimeSeriesSnapshot& ts = runs[run].timeseries;
    for (std::size_t row = 0; row < ts.times.size(); ++row) {
      out += "{\"run\": " + std::to_string(run) +
             ", \"t\": " + json_number(ts.times[row]) + ", \"series\": {";
      for (std::size_t col = 0; col < ts.series.size(); ++col) {
        if (col > 0) out += ", ";
        out += '"';
        out += common::json_escape(ts.series[col].first);
        out += "\": ";
        out += json_number(ts.series[col].second[row]);
      }
      out += "}}\n";
    }
  }
  return out;
}

void write_timeseries_jsonl(const std::string& path,
                            const std::vector<RunObservations>& runs) {
  common::write_file(path, timeseries_to_jsonl(runs));
}

// ---------------------------------------------------------------------
// JSONL parsing (the subset the writers above emit: one flat object per
// line, string values without escapes, integer and %.17g number values).
// ---------------------------------------------------------------------

namespace {

struct LineFields {
  // Parallel key/value lists in line order.
  std::vector<std::pair<std::string, std::string>> fields;

  const std::string* find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

LineFields parse_line(const std::string& line, std::size_t line_no) {
  LineFields out;
  std::size_t i = 0;
  const auto fail = [line_no](const std::string& what) {
    parse_error("trace", line_no, what);
  };
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') fail("expected '{'");
  ++i;
  while (true) {
    skip_ws();
    if (i < line.size() && line[i] == '}') break;
    if (i >= line.size() || line[i] != '"') fail("expected key");
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) fail("unterminated key");
    std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= line.size() || line[i] != ':') fail("expected ':'");
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      const std::size_t val_end = line.find('"', i + 1);
      if (val_end == std::string::npos) fail("unterminated value");
      value = line.substr(i + 1, val_end - i - 1);
      i = val_end + 1;
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && value.back() == ' ') value.pop_back();
      if (value.empty()) fail("empty value");
    }
    out.fields.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') break;
    fail("expected ',' or '}'");
  }
  return out;
}

// Calls on_line(fields, line_no) for every non-blank line of `text`.
template <typename OnLine>
void for_each_line(const std::string& text, OnLine on_line) {
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    on_line(parse_line(line, line_no), line_no);
  }
}

}  // namespace

std::vector<RunObservations> parse_jsonl(const std::string& text) {
  std::vector<RunObservations> runs;
  for_each_line(text, [&](const LineFields& fields, std::size_t line_no) {
    const std::string* run_str = fields.find("run");
    const std::string* ev = fields.find("ev");
    if (run_str == nullptr || ev == nullptr) {
      parse_error("trace", line_no, "missing run/ev");
    }
    const auto run = static_cast<std::size_t>(as_u64(*run_str));
    if (runs.size() <= run) runs.resize(run + 1);
    if (*ev == "dropped") {
      if (const std::string* count = fields.find("count")) {
        runs[run].dropped = as_u64(*count);
      }
      return;
    }

    TraceRecord r;
    r.type = event_from_name(*ev, line_no);
    if (const std::string* v = fields.find("t")) r.t = as_double(*v);
    // Keys the line lacks leave their slot zero.
    for (const Field& f : kSchema[static_cast<std::size_t>(r.type)].fields) {
      if (f.key == nullptr) break;
      if (const std::string* v = fields.find(f.key)) parse_value(r, f, *v);
    }
    runs[run].records.push_back(r);
  });
  return runs;
}

std::vector<std::vector<SpanRecord>> parse_spans_jsonl(
    const std::string& text) {
  std::vector<std::vector<SpanRecord>> runs;
  for_each_line(text, [&](const LineFields& fields, std::size_t line_no) {
    const std::string* run_str = fields.find("run");
    const std::string* name = fields.find("span");
    if (run_str == nullptr || name == nullptr) {
      parse_error("span", line_no, "missing run/span");
    }
    const auto run = static_cast<std::size_t>(as_u64(*run_str));
    if (runs.size() <= run) runs.resize(run + 1);

    SpanRecord s;
    s.name = *name;
    if (const auto* v = fields.find("depth")) {
      s.depth = static_cast<std::uint32_t>(as_u64(*v));
    }
    if (const auto* v = fields.find("t0")) s.start = as_double(*v);
    if (const auto* v = fields.find("dur")) s.dur_sim = as_double(*v);
    if (const auto* v = fields.find("self")) s.self_sim = as_double(*v);
    if (const auto* v = fields.find("host_ns")) s.dur_host_ns = as_u64(*v);
    if (const auto* v = fields.find("host_self_ns")) {
      s.self_host_ns = as_u64(*v);
    }
    runs[run].push_back(std::move(s));
  });
  return runs;
}

}  // namespace adapt::obs
