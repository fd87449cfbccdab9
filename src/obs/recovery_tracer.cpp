#include "obs/recovery_tracer.hpp"

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace sbk::obs {

const RecoverySpan* RecoveryIncident::span(std::string_view stage) const {
  for (const RecoverySpan& s : spans) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

std::size_t RecoveryTracer::note_injection(std::string element, Seconds at) {
  // A re-failure before recovery supersedes the open incident; the old
  // one stays in the log, unclosed, as the record of a failed recovery.
  open_by_element_.erase(element);
  RecoveryIncident inc;
  inc.id = incidents_.size();
  inc.element = element;
  inc.injected_at = at;
  inc.spans.push_back(RecoverySpan{"injection", at, at});
  incidents_.push_back(std::move(inc));
  open_by_element_.emplace(std::move(element), incidents_.back().id);
  return incidents_.back().id;
}

std::size_t RecoveryTracer::ensure_incident(std::string_view element,
                                            Seconds fallback_injected_at) {
  auto it = open_by_element_.find(std::string(element));
  if (it != open_by_element_.end()) return it->second;
  return note_injection(std::string(element), fallback_injected_at);
}

void RecoveryTracer::add_span(std::size_t incident, std::string_view stage,
                              Seconds start, Seconds end) {
  if (incident == kNoIncident) return;
  SBK_EXPECTS(incident < incidents_.size());
  SBK_EXPECTS_MSG(end >= start, "spans must not run backwards");
  incidents_[incident].spans.push_back(
      RecoverySpan{std::string(stage), start, end});
}

void RecoveryTracer::close_incident(std::size_t incident, Seconds at) {
  if (incident == kNoIncident) return;
  SBK_EXPECTS(incident < incidents_.size());
  RecoveryIncident& inc = incidents_[incident];
  if (inc.closed) return;
  inc.closed = true;
  inc.recovered_at = at;
  auto it = open_by_element_.find(inc.element);
  if (it != open_by_element_.end() && it->second == incident) {
    open_by_element_.erase(it);
  }
}

Seconds RecoveryTracer::injected_at(std::size_t incident) const {
  SBK_EXPECTS(incident < incidents_.size());
  return incidents_[incident].injected_at;
}

bool RecoveryTracer::spans_monotone(const RecoveryIncident& incident,
                                    Seconds eps) {
  Seconds prev_start = -std::numeric_limits<Seconds>::infinity();
  for (const RecoverySpan& s : incident.spans) {
    if (s.end < s.start - eps) return false;
    if (s.start < prev_start - eps) return false;
    prev_start = s.start;
  }
  return true;
}

bool RecoveryTracer::all_spans_monotone(Seconds eps) const {
  for (const RecoveryIncident& inc : incidents_) {
    if (!spans_monotone(inc, eps)) return false;
  }
  return true;
}

void RecoveryTracer::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.row({"incident", "element", "injected_at", "recovered_at", "stage",
           "start", "end", "duration"});
  for (const RecoveryIncident& inc : incidents_) {
    // Times use the exact round-trip form: at 6 significant digits a
    // 70 ns circuit reset at 12.25 ms would print equal start and end
    // times. The golden failure_drill entry pins these bytes.
    const std::string recovered =
        inc.closed ? CsvWriter::num_exact(inc.recovered_at) : std::string{};
    for (const RecoverySpan& s : inc.spans) {
      csv.row({CsvWriter::num(inc.id), inc.element,
               CsvWriter::num_exact(inc.injected_at), recovered, s.stage,
               CsvWriter::num_exact(s.start), CsvWriter::num_exact(s.end),
               CsvWriter::num_exact(s.duration())});
    }
  }
}

}  // namespace sbk::obs
