// Loader for the FlightRecorder's Chrome/Perfetto trace_event JSON
// export — the read side of the flight-recorder round trip, used by the
// sbk_trace analyzer CLI and the schema-validation tests. This is a
// deliberately small hand-rolled JSON parser (the repo takes no external
// dependencies): it accepts any well-formed JSON document and extracts
// the trace_event fields the recorder emits, throwing std::runtime_error
// with a byte offset on malformed input.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace sbk::obs {

/// Parses a {"traceEvents":[...]} document back into TraceEvents.
/// Events with an unknown `ph` are skipped (foreign tools may add
/// metadata events); unknown keys are ignored. Throws std::runtime_error
/// on malformed JSON or a missing/ill-typed traceEvents array.
[[nodiscard]] std::vector<TraceEvent> load_trace_json(std::istream& in);
[[nodiscard]] std::vector<TraceEvent> load_trace_json(const std::string& text);

}  // namespace sbk::obs
