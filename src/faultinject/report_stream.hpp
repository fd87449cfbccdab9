// FaultPlan -> ServiceMessage stream adapter: turns a deterministic
// chaos fault schedule into the sustained report traffic the
// ControllerService ingests (paper §4.1-4.2). Where the ChaosInjector
// *drives* the control plane directly from an event queue, this adapter
// materializes what the network would have *sent* the controller — the
// failure reports (with re-sends), probe results, and the operator /
// repair-crew command cadences — as one sorted message schedule that can
// be replayed hundreds of thousands of messages at a time.
//
// Knobs worth knowing:
//   * `repeats` replays the plan's schedule back-to-back (each repeat
//     offset by `repeat_spacing`); repairs within each window return the
//     fabric close enough to health that the next repeat's injections
//     land again. This is how a 2-second plan becomes a 100k+-report
//     soak.
//   * `time_scale` compresses *virtual* time (every timestamp is
//     multiplied by it). The service's virtual service rate is fixed by
//     its IngressConfig, so time_scale is the saturation knob: shrink it
//     until the arrival rate exceeds the service rate and queues,
//     batches, and backpressure actually exercise. (Wall-clock pacing is
//     a separate, harness-side knob.)
//
// Determinism contract: build_report_stream is a pure function of
// (plan, config) — the stream, including every seq, is bit-identical
// across runs and platforms.
#pragma once

#include <cstdint>
#include <vector>

#include "faultinject/fault_plan.hpp"
#include "service/message.hpp"
#include "util/time.hpp"

namespace sbk::faultinject {

struct ReportStreamConfig {
  /// Times the plan's schedule is replayed; each repeat is shifted by
  /// repeat_spacing (default 0 = the plan's horizon).
  int repeats = 1;
  Seconds repeat_spacing = 0.0;
  /// Reports sent per failure event (the first carries inject=true and
  /// grounds the failure; re-sends exercise the stale-report guard).
  int resends = 2;
  Seconds resend_gap = microseconds(150);
  /// Healthy background probe results per repeat, spread evenly over the
  /// repeat window (telemetry; the first traffic shed by backpressure).
  int background_probes = 64;
  /// Operator / repair-crew command cadences within each repeat window
  /// (0 disables a cadence).
  Seconds repair_interval = 0.05;     ///< kRepairAll
  Seconds watchdog_interval = 0.05;   ///< kAckWatchdog
  Seconds diagnosis_interval = 0.1;   ///< kRunDiagnosis
  Seconds retry_interval = 0.25;      ///< kRetryParked
  /// Virtual-time compression factor applied to every timestamp.
  double time_scale = 1.0;
};

/// Message-mix accounting for a built stream.
struct ReportStreamBreakdown {
  std::size_t total = 0;
  std::size_t failure_reports = 0;  ///< node + link failure reports
  std::size_t node_reports = 0;
  std::size_t link_reports = 0;
  std::size_t probe_results = 0;  ///< healthy + sick
  std::size_t operator_commands = 0;
  std::size_t cluster_events = 0;  ///< controller crashes + repairs
  /// Virtual span of the stream (last arrival time, scaled).
  Seconds span = 0.0;
};

/// Materializes the sorted (at, seq) message schedule for `plan` under
/// `config`. Pure function of its arguments (see contract above).
[[nodiscard]] std::vector<service::ServiceMessage> build_report_stream(
    const FaultPlan& plan, const ReportStreamConfig& config);

/// Counts the message mix of a built stream.
[[nodiscard]] ReportStreamBreakdown breakdown(
    const std::vector<service::ServiceMessage>& stream);

}  // namespace sbk::faultinject
