#include "telemetry/trace_json.h"

#include <cstdio>

#include "support/table.h"

namespace svagc::telemetry {

namespace {

void AppendDouble(std::string& out, double v) {
  char buf[40];
  // %.17g is the shortest format guaranteed to round-trip an IEEE double.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string TraceToJson(const std::vector<TraceEvent>& events) {
  std::string out =
      "{\"displayTimeUnit\": \"ms\", \"otherData\": "
      "{\"tool\": \"svagc-telemetry\", \"time_unit\": \"modeled-cycles\"}, "
      "\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) out += ", ";
    out += "\n{\"name\": ";
    AppendJsonString(out, e.name);
    out += ", \"cat\": ";
    AppendJsonString(out, e.cat);
    out += ", \"ph\": \"X\", \"pid\": ";
    out += std::to_string(e.pid);
    out += ", \"tid\": ";
    out += std::to_string(e.tid);
    out += ", \"ts\": ";
    AppendDouble(out, e.ts);
    out += ", \"dur\": ";
    AppendDouble(out, e.dur);
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace svagc::telemetry
