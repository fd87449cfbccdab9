#include "obs/flight_recorder.hpp"

#include <chrono>
#include <utility>

#include "obs/recovery_tracer.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace sbk::obs {

FlightRecorder::FlightRecorder(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  SBK_EXPECTS(capacity >= 1);
}

double FlightRecorder::wall_now_us() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::micro>(
             clock::now().time_since_epoch())
      .count();
}

TraceEvent& FlightRecorder::next_slot() {
  // The reserve runs once: after it, recording never reallocates (the
  // "preallocated" contract — deferred to first use so disabled or
  // never-used recorders cost nothing but their own footprint).
  if (ring_.capacity() < capacity_) ring_.reserve(capacity_);
  ++recorded_;
  if (size_ < capacity_) {
    if (size_ == ring_.size()) ring_.emplace_back();
    return ring_[size_++];
  }
  // Full: overwrite the oldest event and advance the wrap point.
  TraceEvent& slot = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  return slot;
}

TraceEvent& FlightRecorder::begin_event(TracePhase phase,
                                        std::string_view category,
                                        std::string_view name, Seconds at) {
  TraceEvent& e = next_slot();
  e.phase = phase;
  e.track = 0;
  e.category.assign(category);
  e.name.assign(name);
  e.ts = at;
  e.dur = 0.0;
  e.value = 0.0;
  e.wall_us = -1.0;
  return e;
}

void FlightRecorder::instant(std::string_view category, std::string_view name,
                             Seconds at, std::string_view detail) {
  if (!enabled_) return;
  begin_event(TracePhase::kInstant, category, name, at).detail.assign(detail);
}

void FlightRecorder::instant(
    std::string_view category, std::string_view name, Seconds at,
    std::initializer_list<std::string_view> detail_parts) {
  if (!enabled_) return;
  std::string& detail =
      begin_event(TracePhase::kInstant, category, name, at).detail;
  detail.clear();
  for (std::string_view part : detail_parts) detail.append(part);
}

void FlightRecorder::complete(std::string_view category, std::string_view name,
                              Seconds start, Seconds end, double wall_us,
                              std::string_view detail) {
  if (!enabled_) return;
  SBK_EXPECTS_MSG(end >= start, "spans must not run backwards");
  TraceEvent& e = begin_event(TracePhase::kComplete, category, name, start);
  e.dur = end - start;
  e.wall_us = wall_us;
  e.detail.assign(detail);
}

void FlightRecorder::counter(std::string_view category, std::string_view name,
                             Seconds at, double value) {
  if (!enabled_) return;
  TraceEvent& e = begin_event(TracePhase::kCounter, category, name, at);
  e.value = value;
  e.detail.clear();
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  if (size_ < capacity_) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(size_));
    return out;
  }
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void FlightRecorder::merge(const FlightRecorder& other, std::uint32_t track) {
  if (!enabled_) return;
  for (TraceEvent e : other.events()) {
    TraceEvent& slot = next_slot();
    slot = std::move(e);
    slot.track = track;
  }
}

void FlightRecorder::clear() {
  size_ = 0;
  head_ = 0;
  recorded_ = 0;
}

void FlightRecorder::write_trace_json(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
        << json_escape(e.category) << "\",\"ph\":\""
        << static_cast<char>(e.phase) << "\",\"pid\":" << e.track
        << ",\"tid\":0,\"ts\":" << CsvWriter::num_exact(e.ts * 1e6);
    if (e.phase == TracePhase::kComplete) {
      out << ",\"dur\":" << CsvWriter::num_exact(e.dur * 1e6);
    }
    if (e.phase == TracePhase::kInstant) {
      out << ",\"s\":\"g\"";  // global-scope instant: visible at any zoom
    }
    out << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const char* key, const std::string& value) {
      if (!first_arg) out << ",";
      first_arg = false;
      out << "\"" << key << "\":" << value;
    };
    if (e.phase == TracePhase::kCounter) {
      arg("value", CsvWriter::num_exact(e.value));
    }
    if (e.wall_us >= 0.0) arg("wall_us", CsvWriter::num(e.wall_us));
    if (!e.detail.empty()) {
      std::string quoted = "\"";
      quoted += json_escape(e.detail);
      quoted += "\"";
      arg("detail", quoted);
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
}

void FlightRecorder::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.row({"track", "phase", "category", "name", "ts", "dur", "value",
           "wall_us", "detail"});
  for (const TraceEvent& e : events()) {
    csv.row({CsvWriter::num(static_cast<std::size_t>(e.track)),
             std::string(1, static_cast<char>(e.phase)), e.category, e.name,
             CsvWriter::num_exact(e.ts), CsvWriter::num_exact(e.dur),
             CsvWriter::num_exact(e.value),
             e.wall_us >= 0.0 ? CsvWriter::num(e.wall_us) : std::string{},
             e.detail});
  }
}

void ScopedSpan::begin(FlightRecorder* recorder, std::string_view category,
                       std::string_view name, Seconds at) {
  category_ = category;
  name_ = name;
  sim_start_ = at;
  sim_end_ = at;
  wall_start_us_ = FlightRecorder::wall_now_us();
  recorder_ = recorder;
}

void ScopedSpan::end() {
  recorder_->complete(category_, name_, sim_start_, sim_end_,
                      FlightRecorder::wall_now_us() - wall_start_us_,
                      detail_);
}

void export_recovery_spans(const RecoveryTracer& tracer,
                           FlightRecorder& recorder) {
  for (const RecoveryIncident& inc : tracer.incidents()) {
    const std::string detail =
        inc.element + "#" + std::to_string(inc.id);
    for (const RecoverySpan& s : inc.spans) {
      recorder.complete("recovery", s.stage, s.start, s.end, -1.0, detail);
    }
    if (inc.closed) {
      recorder.instant("recovery", "recovered", inc.recovered_at, detail);
    }
  }
}

}  // namespace sbk::obs
