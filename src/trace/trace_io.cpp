#include "trace/trace_io.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace adapt::trace {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + message);
}

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  out << "# adapt-trace v1 nodes=" << trace.node_count
      << " horizon=" << trace.horizon << '\n';
  out << "node,start,duration\n";
  char buf[96];
  for (const TraceEvent& e : trace.events) {
    std::snprintf(buf, sizeof buf, "%" PRIu32 ",%.6f,%.6f\n", e.node, e.start,
                  e.duration);
    out << buf;
  }
}

Trace read_trace(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(in, line)) fail(1, "empty input");
  ++line_no;
  {
    std::size_t nodes = 0;
    double horizon = 0.0;
    if (std::sscanf(line.c_str(), "# adapt-trace v1 nodes=%zu horizon=%lf",
                    &nodes, &horizon) != 2) {
      fail(line_no, "bad header, expected '# adapt-trace v1 nodes=N "
                    "horizon=H'");
    }
    trace.node_count = nodes;
    trace.horizon = horizon;
  }

  if (!std::getline(in, line)) fail(2, "missing column header");
  ++line_no;
  if (line != "node,start,duration") fail(line_no, "bad column header");

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    TraceEvent e;
    if (std::sscanf(line.c_str(), "%" SCNu32 ",%lf,%lf", &e.node, &e.start,
                    &e.duration) != 3) {
      fail(line_no, "bad event row: " + line);
    }
    if (e.node >= trace.node_count) fail(line_no, "node id out of range");
    if (e.start < 0 || e.duration < 0) fail(line_no, "negative time");
    if (!trace.events.empty() && e.start < trace.events.back().start) {
      fail(line_no, "events out of order");
    }
    trace.events.push_back(e);
  }
  return trace;
}

}  // namespace adapt::trace
