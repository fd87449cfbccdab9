// Head-to-head protection-strategy comparison matrix (paper §2.2 and
// §5.3: ShareBackup against rerouting and pre-installed protection).
//
// Races five failure-recovery strategies over identical fault draws and
// identical traffic and reports, per strategy:
//   * recovery latency  — the §5.3 component model (backup-rules uses
//     the soak-measured global-fallback fraction, so its expectation
//     reflects how often the fast path actually held);
//   * packet loss       — fraction of probe flows left unroutable under
//     failure churn (the strategy's residual blackhole rate);
//   * CCT slowdown      — mean slowdown of affected coflows under a
//     representative agg-switch failure, fig1c methodology;
//   * table footprint   — pre-installed protection state (src/cost),
//     fabric-wide and worst-single-switch.
//
// Strategies: ShareBackup (hardware replacement via Fabric+Controller),
// F10 (AB wiring, local 3-hop reroute), ECMP + global reroute (the
// paper's reactive fat-tree baseline), SPIDER-protect (pre-installed
// detours, stateful failover) and backup-rules (van Adrichem
// per-destination backups with global fallback).
//
// The churn probe fans out over sweep::SweepRunner, so a matrix is
// bit-identical at any thread count; the CCT probe is a fixed serial
// set of fluid simulations. One run, one CSV.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace sbk::baselines {

/// The five compared strategies, in fixed report order.
enum class Strategy {
  kShareBackup,
  kF10,
  kEcmpGlobalReroute,
  kSpiderProtect,
  kBackupRules,
};
inline constexpr std::array<Strategy, 5> kAllStrategies = {
    Strategy::kShareBackup, Strategy::kF10, Strategy::kEcmpGlobalReroute,
    Strategy::kSpiderProtect, Strategy::kBackupRules};

[[nodiscard]] const char* to_string(Strategy s) noexcept;

struct MatrixConfig {
  int k = 8;
  int backups_per_group = 1;

  /// Churn probe: per scenario, this many random flows are routed after
  /// `switch_failures` + `link_failures` random faults land.
  std::size_t scenarios = 8;
  std::size_t flows_per_scenario = 64;
  int switch_failures = 1;
  int link_failures = 2;
  std::uint64_t master_seed = 1;
  /// Worker threads for the churn sweep (0 = auto, SBK_THREADS wins).
  std::size_t threads = 0;

  /// CCT probe: coflows replayed over `cct_duration` sim-seconds with
  /// one agg-switch failure (fig1c's "final state" methodology).
  std::size_t cct_coflows = 30;
  Seconds cct_duration = 60.0;
  /// Bytes/s per capacity unit (fig1c's 2.5 Gbps units by default).
  double unit_bytes_per_second = 3.125e8;

  /// Rule updates charged to a reactive global reroute (§5.3).
  int global_rule_updates = 4;
};

struct StrategyRow {
  std::string strategy;
  double recovery_latency = 0.0;  ///< seconds, §5.3 model expectation
  double packet_loss = 0.0;       ///< lost / probed under churn
  double cct_slowdown = 1.0;      ///< mean over affected coflows
  long long table_entries = 0;    ///< pre-installed state, fabric-wide
  long long table_per_switch = 0; ///< worst single device
  std::size_t flows_probed = 0;
  std::size_t flows_lost = 0;
  /// backup-rules only: share of affected probes that fell through to
  /// the reactive global path (drives its latency expectation).
  double backup_fallback_frac = 0.0;

  friend bool operator==(const StrategyRow&, const StrategyRow&) = default;
};

struct ComparisonMatrix {
  std::vector<StrategyRow> rows;  ///< kAllStrategies order
  /// Routed paths that failed the live/valid invariants — always 0
  /// unless a router is broken.
  std::size_t violations = 0;

  friend bool operator==(const ComparisonMatrix&,
                         const ComparisonMatrix&) = default;
};

/// Runs the full matrix. Deterministic in (config); thread count only
/// affects wall-clock.
[[nodiscard]] ComparisonMatrix run_comparison_matrix(const MatrixConfig& cfg);

/// RFC-4180 CSV with a fixed header:
/// strategy,recovery_latency_s,packet_loss,cct_slowdown,table_entries,
/// table_per_switch,flows_probed,flows_lost,backup_fallback_frac
/// Doubles are emitted round-trip exact so downstream equality checks
/// compare true results.
void write_matrix_csv(const ComparisonMatrix& m, std::ostream& out);

/// Human-readable table for console reports.
[[nodiscard]] std::string matrix_summary(const ComparisonMatrix& m);

}  // namespace sbk::baselines
