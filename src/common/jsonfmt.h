// Deterministic JSON fragment formatting and the file writer shared by
// every machine-readable emitter (runner reports, observability traces,
// metrics).
//
// The contract all emitters rely on: fixed key order decided by the
// caller, locale-independent "%.17g" doubles (round-trip exact), and no
// environment-dependent data — so two runs with the same seed produce
// byte-identical files regardless of thread count or host.
#pragma once

#include <string>

namespace adapt::common {

// Backslash-escape quotes, backslashes and control characters.
std::string json_escape(const std::string& s);

// "%.17g" rendering; non-finite values become "null" so consumers fail
// loudly rather than parse garbage (JSON has no Infinity/NaN).
std::string json_number(double v);

// Write `text` to `path` in one piece; throws std::runtime_error naming
// the path when the file cannot be opened or fully written.
void write_file(const std::string& path, const std::string& text);

}  // namespace adapt::common
