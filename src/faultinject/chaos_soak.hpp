// Chaos soak harness: many seeded fault schedules, each run end-to-end
// through a fresh fabric + control plane on its own event queue, with
// the ChaosInjector's robustness invariants checked at the end of every
// run. Built on SweepRunner, so a soak parallelizes across cores and is
// bit-identical at any thread count (the determinism contract of
// sweep::derive_seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultinject/chaos_injector.hpp"
#include "faultinject/fault_plan.hpp"
#include "sweep/sweep.hpp"
#include "util/time.hpp"

namespace sbk::faultinject {

struct ChaosSoakConfig {
  std::size_t scenarios = 200;
  std::uint64_t master_seed = 1;
  /// Worker threads (SweepConfig semantics: 0 = auto).
  std::size_t threads = 0;

  /// Fabric under test.
  int k = 4;
  int backups_per_group = 1;
  std::size_t cluster_members = 3;
  /// Background diagnosis is scheduled this soon after a report: small
  /// enough that every scenario drains its diagnosis queue in-horizon,
  /// but past the worst-case *modeled* control-path latency (a dual
  /// failover spending every command retry charges ~14ms of penalty to
  /// its command span, and diagnosis spans must start after it for the
  /// timeline-monotonicity invariant to be meaningful).
  Seconds diagnosis_delay = milliseconds(25);
  /// Detector re-report interval: the recovery mechanism for reports the
  /// chaos plan loses, so it must be positive when report_loss_prob > 0.
  Seconds report_retry_interval = milliseconds(5);

  /// Fault-schedule shape, shared by every scenario (the per-scenario
  /// seed drives everything else).
  FaultPlanConfig plan;

  /// Post-run reachability race: after the event queue drains, this many
  /// rng-drawn host pairs are routed over the fabric's end-state network
  /// with each non-ShareBackup protection strategy (ECMP + global
  /// reroute, SPIDER-protect, precomputed backup rules). Any non-empty
  /// path that is invalid or dead is a soak violation; empty paths count
  /// into the per-strategy unreachable tallies. 0 disables the race.
  std::size_t reachability_probes = 32;
};

struct ChaosScenarioResult {
  std::uint64_t seed = 0;
  std::vector<std::string> violations;
  /// Injection + recovery head-line numbers for the soak report.
  std::size_t failures_injected = 0;
  std::size_t failovers = 0;
  std::size_t retries = 0;
  std::size_t degraded_reroutes = 0;
  std::size_t requeued = 0;
  std::size_t watchdog_trips = 0;
  std::size_t reports_lost = 0;
  std::size_t reports_buffered = 0;
  /// Post-recovery reachability race (see
  /// ChaosSoakConfig::reachability_probes). `probes_routed` is the pair
  /// count actually raced; the unreachable tallies say how many of those
  /// pairs each strategy could not route on the end-state network.
  std::size_t probes_routed = 0;
  std::size_t unreachable_global_reroute = 0;
  std::size_t unreachable_spider = 0;
  std::size_t unreachable_backup_rules = 0;
  /// Burn-rate alerts raised/cleared by this scenario's
  /// recovery-latency objective (0 without an SLO observer).
  std::size_t slo_breaches = 0;
  std::size_t slo_clears = 0;
};

struct ChaosSoakReport {
  std::vector<ChaosScenarioResult> scenarios;

  [[nodiscard]] std::size_t total_violations() const;
  [[nodiscard]] bool clean() const { return total_violations() == 0; }
  /// Multi-line human summary (aggregates + every violation with its
  /// scenario seed).
  [[nodiscard]] std::string summary() const;
};

/// Runs one chaos scenario (exposed for tests and debugging: a failing
/// seed from a soak reproduces exactly through this call). Every
/// observer present is wired in, and none changes the outcome:
///   * metrics — detector and controller instruments, through
///     ControlPlane::attach_metrics;
///   * recorder — the control plane and fabric, plus the RecoveryTracer
///     timeline exported as "recovery" spans and, with an SLO monitor,
///     its instants (breaches, clears, attainment). An enabled recorder
///     also gets a TelemetrySampler: the standard chaos probes (queue
///     depth, backup-pool occupancy, live-link fraction, controller
///     backlog, report-channel buffering) as "telemetry" counters, every
///     TelemetrySampler::kDefaultInterval by pre-scheduled queue events;
///   * slo — must come from make_chaos_slo (directly or via
///     clone_config); fed every closed incident's recovery latency in
///     recovery order and finished at the plan horizon;
///   * health — one end-state snapshot (spare pool, live-link fraction,
///     recovery-latency histogram, objective attainment). Requires slo.
[[nodiscard]] ChaosScenarioResult run_chaos_scenario(
    const ChaosSoakConfig& config, const sweep::ScenarioSpec& spec,
    const sweep::ScenarioObservers& observers = {});

/// Runs the full soak on SweepRunner::run_observed: every sink present
/// gets per-scenario observers, merged in scenario order with the
/// scenario index as the track, so every output is independent of the
/// thread count (wall-clock span durations aside). A `slo` sink should
/// be make_chaos_slo(); a `health` sink requires it.
[[nodiscard]] ChaosSoakReport run_chaos_soak(
    const ChaosSoakConfig& config, const sweep::ObservedSinks& sinks = {});

/// Recovery-latency objective of make_chaos_slo: each closed incident's
/// recovered_at - injected_at is judged against the bound. The paper's
/// sub-millisecond target covers the failover span alone; a chaos
/// incident closes only after the scheduled offline diagnosis
/// (diagnosis_delay, default 25ms) and any command retries, so the
/// bound covers that modeled pipeline with the budget tolerating the
/// retry tail.
inline constexpr Seconds kRecoveryLatencyBound = milliseconds(50);
inline constexpr double kRecoveryBudget = 0.05;
inline constexpr Seconds kRecoverySloWindow = 0.25;
inline constexpr std::uint64_t kRecoverySloMinEvents = 5;

/// Prototype SloMonitor for a chaos soak: one "recovery_latency"
/// objective (index 0) with the constants above.
[[nodiscard]] obs::slo::SloMonitor make_chaos_slo();

}  // namespace sbk::faultinject
