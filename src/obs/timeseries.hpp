// Time-series telemetry: named probes sampled on a fixed simulation-time
// cadence into a FlightRecorder, one "telemetry" counter event per probe
// per sample, named after the probe. The paper's core claim —
// ShareBackup recovers with no path change and no bandwidth loss,
// rerouting pays path dilation — is a claim about how link utilization
// and flow rates evolve AROUND a failure, which run-level counters
// cannot show; this module records the evolution itself, on the same
// timeline as the events that cause it.
//
// Determinism contract: sample times are exact multiples of the cadence
// (computed as start + tick * interval, never accumulated), probe values
// are pure functions of simulator state, and a sample sees the state
// before same-instant events. The sampler holds no samples of its own:
// the recorder does, and the sweep merges per-scenario recorders in
// scenario order, so the series are bit-identical at any sweep thread
// count. Wall-clock never enters a sample.
//
// The recorder's enabled flag is the only off switch: every sampling
// call tests it first, so a sampler over a disabled recorder costs one
// branch and records nothing. Components hold a pointer and pass nullptr
// to detach, keeping the detached hot paths byte-for-byte unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/time.hpp"

namespace sbk::obs {

class TelemetrySampler {
 public:
  /// Cadence of the sampler an observed chaos scenario runs.
  static constexpr Seconds kDefaultInterval = milliseconds(10);

  /// Samples into `recorder`, which must outlive the sampler.
  TelemetrySampler(FlightRecorder& recorder, Seconds interval);

  [[nodiscard]] Seconds interval() const noexcept { return interval_; }

  /// A probe reads one scalar from live simulator state. Probes must be
  /// pure reads: they are invoked at every sample tick.
  using Probe = std::function<double()>;

  /// Registers a named series; each sample records the probes in
  /// registration order. Must be called before the first sample.
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

 private:
  void take_sample(Seconds at);

  FlightRecorder* recorder_;
  Seconds interval_;
  bool started_ = false;
  Seconds origin_ = 0.0;
  std::uint64_t next_tick_ = 0;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
};

}  // namespace sbk::obs
