// Whole-run event tracing: a low-overhead, preallocated ring buffer of
// structured trace events that any component can record into. Where
// MetricsRegistry answers "how much, in total" and RecoveryTracer
// answers "what happened to this incident", the flight recorder answers
// "what was the system doing, and when" — every event carries a
// simulation timestamp, and phase timers additionally carry the measured
// wall-clock cost, so one recording serves both behavioral debugging
// (open the Perfetto export in chrome://tracing) and self-profiling
// (where does wall time go inside a sweep).
//
// Design goals, in order:
//   1. Near-zero cost when disabled or detached — every recording call
//      is a single branch on the enabled flag before any allocation or
//      clock read; components hold a plain pointer and pass nullptr to
//      detach. Disabled-mode experiment output is bit-identical to a
//      build that never heard of the recorder.
//   2. Bounded memory — the buffer is sized up front (storage is
//      reserved on the first recorded event) and overwrites the OLDEST
//      events once full, so a long run keeps its most recent window and
//      `dropped()` reports exactly how much history was shed. Events
//      are written field by field into the slot they take, so a slot's
//      strings keep their storage; clear() keeps the slots too, and a
//      recorder reused pass after pass stops allocating once its slots
//      have held each pass's longest strings.
//   3. Deterministic content — simulation timestamps, names, and values
//      depend only on the scenario; wall-clock fields are the one
//      explicitly nondeterministic channel, and every consumer that
//      compares traces (tests, the sweep merge) excludes them.
//   4. Deterministic merging — sweep workers record into per-scenario
//      recorders that are folded together in scenario order with the
//      scenario index as the Perfetto process id, exactly like
//      MetricsRegistry merging.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace sbk::obs {

class RecoveryTracer;

/// Chrome trace_event phases we emit (the value is the `ph` letter).
enum class TracePhase : char {
  kComplete = 'X',  ///< span with a duration
  kInstant = 'i',   ///< point event
  kCounter = 'C',   ///< sampled numeric value
};

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  /// Perfetto process id; 0 until a merge assigns scenario indices.
  std::uint32_t track = 0;
  std::string category;
  std::string name;
  Seconds ts = 0.0;   ///< simulation time of the event / span start
  Seconds dur = 0.0;  ///< simulation duration (kComplete only)
  double value = 0.0;  ///< payload for kCounter
  /// Measured wall-clock duration in microseconds; negative = not
  /// measured. Excluded from determinism comparisons.
  double wall_us = -1.0;
  std::string detail;  ///< optional free-form annotation
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  explicit FlightRecorder(bool enabled = true,
                          std::size_t capacity = kDefaultCapacity);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events overwritten by ring wrap-around (recorded - size).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - size_;
  }

  void instant(std::string_view category, std::string_view name, Seconds at,
               std::string_view detail = {});
  /// An instant whose detail is the concatenation of `detail_parts`,
  /// composed in the slot itself (no temporary string).
  void instant(std::string_view category, std::string_view name, Seconds at,
               std::initializer_list<std::string_view> detail_parts);
  void complete(std::string_view category, std::string_view name,
                Seconds start, Seconds end, double wall_us = -1.0,
                std::string_view detail = {});
  void counter(std::string_view category, std::string_view name, Seconds at,
               double value);

  /// Snapshot in record order (oldest surviving event first).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Appends `other`'s events (oldest first) with their track set to
  /// `track` — the deterministic sweep merge. Respects this recorder's
  /// enabled flag and capacity (oldest events are shed as usual).
  void merge(const FlightRecorder& other, std::uint32_t track);

  /// Forgets every event and restarts the count; the slots and their
  /// string storage stay allocated for the next recording.
  void clear();

  /// Chrome/Perfetto trace_event JSON ({"traceEvents":[...]}); open the
  /// file in chrome://tracing or ui.perfetto.dev. `ts` is simulation
  /// time in microseconds; measured wall time rides in args.wall_us.
  void write_trace_json(std::ostream& out) const;
  /// One row per event: track,phase,category,name,ts,dur,value,wall_us,
  /// detail (RFC 4180 quoting).
  void write_csv(std::ostream& out) const;

  /// Monotonic wall clock in microseconds (steady_clock).
  [[nodiscard]] static double wall_now_us();

 private:
  /// The slot the next event takes (the oldest one once the ring is
  /// full), counted as recorded. Its fields still hold whatever it held
  /// before: the caller overwrites every one of them.
  TraceEvent& next_slot();
  /// next_slot() with the fields every phase shares written.
  TraceEvent& begin_event(TracePhase phase, std::string_view category,
                          std::string_view name, Seconds at);

  bool enabled_;
  std::size_t capacity_;
  /// Storage is reserved to `capacity_` on the first event; slots are
  /// constructed on first use and survive clear(). The first `size_`
  /// slots hold events; once full, `head_` is the slot holding the
  /// oldest event (and the next to be overwritten).
  std::vector<TraceEvent> ring_;
  std::size_t size_ = 0;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
};

/// RAII phase timer: measures the wall-clock time of a scope and records
/// one kComplete event when the scope exits. The simulation interval is
/// [at, at] unless set_end() provides a later simulation end. When the
/// recorder is null or disabled the constructor and destructor are an
/// inline branch and nothing else — no call, no clock read, no strings.
/// The span keeps `category` and `name` as views: every caller passes
/// string literals, which outlive any scope.
class ScopedSpan {
 public:
  ScopedSpan(FlightRecorder* recorder, std::string_view category,
             std::string_view name, Seconds at) {
    if (recorder != nullptr && recorder->enabled()) {
      begin(recorder, category, name, at);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (recorder_ != nullptr) end();
  }

  /// True when the span records (recorder attached and enabled).
  [[nodiscard]] bool active() const noexcept { return recorder_ != nullptr; }
  /// Extends the span's simulation interval to [at, sim_end].
  void set_end(Seconds sim_end) noexcept { sim_end_ = sim_end; }
  void set_detail(std::string detail) { detail_ = std::move(detail); }

 private:
  void begin(FlightRecorder* recorder, std::string_view category,
             std::string_view name, Seconds at);
  void end();

  FlightRecorder* recorder_ = nullptr;  // nullptr when inactive
  std::string_view category_;
  std::string_view name_;
  std::string detail_;
  Seconds sim_start_ = 0.0;
  Seconds sim_end_ = 0.0;
  double wall_start_us_ = 0.0;
};

/// Replays a RecoveryTracer's incidents into `recorder` as "recovery"
/// events: one kComplete event per stage span and one "recovered"
/// instant per closed incident, each with detail "element#incident".
/// The tracer stays the one incident store; this is a view of it,
/// made at the end of a run, so the Perfetto timeline and
/// `sbk_trace incidents` show the §5.3 pipeline alongside the
/// simulator's own events (tests/trace_test.cpp RecoveryExport.*).
void export_recovery_spans(const RecoveryTracer& tracer,
                           FlightRecorder& recorder);

}  // namespace sbk::obs
