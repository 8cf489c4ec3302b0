// Trace serialization: a small CSV dialect so traces can be generated
// once, inspected with standard tools, and replayed across experiments.
//
// Format:
//   # adapt-trace v1 nodes=<n> horizon=<seconds>
//   node,start,duration
//   0,1234.5,60.0
//   ...
#pragma once

#include <iosfwd>
#include <string>

#include "trace/event.h"

namespace adapt::trace {

void write_trace(std::ostream& out, const Trace& trace);

// Throws std::runtime_error with a line number on malformed input.
Trace read_trace(std::istream& in);

}  // namespace adapt::trace
