// Perfetto trace_event JSON export.
//
// The emitted document is the JSON object form of the Chrome trace_event
// format that Perfetto (https://ui.perfetto.dev) loads directly:
//
//   {"displayTimeUnit": "ms",
//    "otherData": {"tool": "svagc-telemetry", "time_unit": "modeled-cycles"},
//    "traceEvents": [
//      {"name": "...", "cat": "...", "ph": "X",
//       "pid": 1, "tid": 0, "ts": 0, "dur": 123.5}, ...]}
//
// ts/dur are printed with %.17g so every modeled-cycle double reads back
// bit-identically (the golden-bytes test in tests/telemetry_test.cc pins
// the exact output; bench/check_regression.py checks every trace a bench
// harness writes against this shape).
#pragma once

#include <string>
#include <vector>

#include "telemetry/trace_recorder.h"

namespace svagc::telemetry {

// Serializes events in order. This is the only writer; TraceRecorder's
// ToJson/WriteFile delegate here.
std::string TraceToJson(const std::vector<TraceEvent>& events);

}  // namespace svagc::telemetry
