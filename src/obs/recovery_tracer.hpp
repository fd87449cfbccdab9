// Per-incident recovery timeline tracing (§5.3 made measurable). The
// paper's end-to-end claim is about a pipeline — failure injection →
// detection → controller notification → decision → circuit
// reconfiguration → table activation, with offline diagnosis and restore
// trailing in the background — and the tracer records what the simulated
// pipeline actually did as ordered spans, one incident per failed
// element, so experiments can validate measured timelines against the
// recovery_latency.hpp component model instead of trusting it.
//
// Lifecycle: an injector (test, example, failure storm) opens an
// incident with note_injection(); components that only observe an
// element mid-pipeline correlate through ensure_incident(), which
// reuses the open incident for that element or opens one at a fallback
// timestamp. Elements are opaque keys: every caller must name one
// element the same way (the control plane uses control::element_name),
// or its incidents split. Spans are half-open intervals [start, end] in
// simulation seconds; a point-in-time event is a zero-length span.
// close_incident() marks the element recovered; trailing background
// spans (diagnosis, restore) may still be appended afterwards, and a
// new failure of the same element opens a fresh incident. The tracer
// has no off switch of its own: a component with no tracer attached
// records nothing.
#pragma once

#include <cstddef>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace sbk::obs {

struct RecoverySpan {
  std::string stage;  ///< "injection", "detection", "notification", ...
  Seconds start = 0.0;
  Seconds end = 0.0;
  [[nodiscard]] Seconds duration() const noexcept { return end - start; }
};

struct RecoveryIncident {
  std::size_t id = 0;
  std::string element;
  Seconds injected_at = 0.0;
  /// Set by close_incident(); negative while the element is unrecovered.
  Seconds recovered_at = -1.0;
  bool closed = false;
  std::vector<RecoverySpan> spans;

  [[nodiscard]] const RecoverySpan* span(std::string_view stage) const;
};

class RecoveryTracer {
 public:
  static constexpr std::size_t kNoIncident =
      std::numeric_limits<std::size_t>::max();

  /// Opens a new incident for `element` at injection time `at`, closing
  /// over any still-open incident for the same element (a re-failure
  /// before recovery is a new incident). Records an "injection" point
  /// span.
  std::size_t note_injection(std::string element, Seconds at);

  /// The open incident for `element`, or a fresh one injected at
  /// `fallback_injected_at` when the injector did not announce itself
  /// (e.g. a failure storm driving the network directly).
  std::size_t ensure_incident(std::string_view element,
                              Seconds fallback_injected_at);

  /// Appends a span; no-op for kNoIncident.
  void add_span(std::size_t incident, std::string_view stage, Seconds start,
                Seconds end);

  /// Marks the incident's element recovered at `at`. Idempotent.
  void close_incident(std::size_t incident, Seconds at);

  [[nodiscard]] Seconds injected_at(std::size_t incident) const;
  [[nodiscard]] const std::vector<RecoveryIncident>& incidents()
      const noexcept {
    return incidents_;
  }

  /// True iff spans, in recorded order, never run backwards: every span
  /// has end >= start and starts no earlier than the previous span's
  /// start (stages overlap only at boundaries in the modeled pipeline,
  /// but background spans may attach later at larger timestamps).
  [[nodiscard]] static bool spans_monotone(const RecoveryIncident& incident,
                                           Seconds eps = 1e-9);

  /// True iff every recorded incident satisfies spans_monotone — the
  /// end-of-run invariant the chaos soak asserts over whole schedules.
  [[nodiscard]] bool all_spans_monotone(Seconds eps = 1e-9) const;

  /// One row per span:
  /// incident,element,injected_at,recovered_at,stage,start,end,duration
  /// (recovered_at empty while the incident is open).
  void write_csv(std::ostream& out) const;

 private:
  std::vector<RecoveryIncident> incidents_;
  std::unordered_map<std::string, std::size_t> open_by_element_;
};

}  // namespace sbk::obs
