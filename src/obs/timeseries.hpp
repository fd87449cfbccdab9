// Time-series telemetry: named probes sampled on a fixed simulation-time
// cadence into columnar series. The paper's core claim — ShareBackup
// recovers with no path change and no bandwidth loss, rerouting pays
// path dilation — is a claim about how link utilization and flow rates
// evolve AROUND a failure, which run-level counters cannot show; this
// module records the evolution itself.
//
// Determinism contract: sample times are exact multiples of the cadence
// (computed as start + tick * interval, never accumulated), probe values
// are pure functions of simulator state, and per-scenario samplers merge
// into a TelemetryTable in scenario order — so the merged CSV is
// bit-identical at any sweep thread count. Wall-clock never enters a
// sample.
//
// Disabled samplers record nothing and register no probes' side effects;
// components hold a pointer and pass nullptr to detach, keeping the
// disabled-mode hot paths byte-for-byte unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace sbk::obs {

class TelemetrySampler {
 public:
  /// Cadence of the samplers an observed sweep hands its scenarios.
  static constexpr Seconds kDefaultInterval = milliseconds(10);

  explicit TelemetrySampler(Seconds interval, bool enabled = true);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Seconds interval() const noexcept { return interval_; }

  /// A probe reads one scalar from live simulator state. Probes must be
  /// pure reads: they are invoked at every sample tick.
  using Probe = std::function<double()>;

  /// Registers a named series; insertion order fixes the column order.
  /// Must be called before the first sample (columns are rectangular).
  void add_probe(std::string name, Probe probe);

  /// Takes the run's first sample at `at` and anchors the cadence there.
  void start(Seconds at);

  /// Samples every cadence boundary in (last boundary, now]. Simulator
  /// state is piecewise-constant between events, so sampling a boundary
  /// that fell inside the just-elapsed interval with the CURRENT state
  /// is exact — hosts call this once per event with the event time.
  void advance_to(Seconds now);

  /// One immediate sample at `at` (implicitly starts the cadence).
  void sample_now(Seconds at);

  [[nodiscard]] std::size_t rows() const noexcept { return times_.size(); }
  [[nodiscard]] const std::vector<std::string>& series_names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }
  [[nodiscard]] const std::vector<double>& column(std::size_t i) const {
    return columns_[i];
  }

  /// `time,<series...>` rows at full resolution.
  void write_csv(std::ostream& out) const;

  /// Downsampled export: fixed-width buckets of `bucket_width` seconds,
  /// one row per non-empty bucket with min/mean/max columns per series
  /// (`time` is the bucket start).
  void write_downsampled_csv(std::ostream& out, Seconds bucket_width) const;

 private:
  void take_sample(Seconds at);

  bool enabled_;
  Seconds interval_;
  bool started_ = false;
  Seconds origin_ = 0.0;
  std::uint64_t next_tick_ = 0;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::vector<double> times_;
  std::vector<std::vector<double>> columns_;
};

/// Scenario-tagged union of per-scenario samplers — the telemetry
/// counterpart of MetricsRegistry::merge. append() in scenario order
/// yields a table (and CSV) independent of sweep thread count. All
/// appended samplers must expose the same series, in the same order (they
/// are built by the same scenario body, so this holds by construction).
class TelemetryTable {
 public:
  explicit TelemetryTable(bool enabled = true) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void append(std::size_t scenario, const TelemetrySampler& sampler);

  [[nodiscard]] std::size_t rows() const noexcept { return scenario_.size(); }
  [[nodiscard]] const std::vector<std::string>& series_names() const noexcept {
    return names_;
  }

  /// `scenario,time,<series...>` rows.
  void write_csv(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<std::size_t> scenario_;
  std::vector<double> times_;
  std::vector<std::vector<double>> columns_;
};

}  // namespace sbk::obs
