// Periodic full-state health snapshots of the always-on service: queue
// depth and backpressure, cluster term/primary/headless state, fabric
// spare-pool depth, live-link fraction, every LogHistogram's quantiles
// and every SLO objective's attainment — one struct per sample, taken
// at deterministic virtual-time boundaries (the first batch at or after
// each multiple of the snapshot interval) and serialized to JSON or
// Prometheus text-exposition format on demand via the service's pull
// hook. HealthLog collects the samples of one run; append(other, track)
// concatenates per-scenario logs in scenario order so merged snapshot
// timelines are bit-identical at any producer/thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace sbk::obs::slo {

struct HealthHistogramStat {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

struct HealthObjectiveStat {
  std::string name;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  std::uint64_t breaches = 0;
  std::uint64_t clears = 0;
  double attainment = 1.0;
  bool breached = false;
};

struct HealthSnapshot {
  std::uint32_t track = 0;     ///< scenario index, assigned by append()
  std::uint64_t sequence = 0;  ///< per-run sample number, from 0
  Seconds at = 0.0;            ///< virtual time the sample represents
  // --- service ingress -------------------------------------------------------
  std::size_t queue_depth = 0;
  bool backpressure = false;
  std::uint64_t accepted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t shed_probes = 0;
  std::uint64_t batches = 0;
  // --- controller cluster (defaults describe the single-controller
  // service: always available, no term) --------------------------------------
  bool replicated = false;
  std::size_t cluster_term = 0;
  int acting_member = -1;
  bool cluster_available = true;
  std::size_t headless_backlog = 0;
  double headless_seconds = 0.0;
  // --- fabric / network ------------------------------------------------------
  std::size_t spare_pool = 0;
  double live_link_frac = 1.0;
  // --- distributions + objectives --------------------------------------------
  std::vector<HealthHistogramStat> histograms;
  std::vector<HealthObjectiveStat> objectives;
};

class LogHistogram;
class SloMonitor;

/// Quantile row of one streaming histogram: count, p50/p99/p999 and the
/// exact max.
[[nodiscard]] HealthHistogramStat histogram_stat(std::string name,
                                                 const LogHistogram& hist);

/// Attainment rows of every objective of `slo`, in objective order.
[[nodiscard]] std::vector<HealthObjectiveStat> objective_stats(
    const SloMonitor& slo);

/// One JSON object (single line) per snapshot.
void write_health_json(std::ostream& os, const HealthSnapshot& snap);

/// Prometheus text-exposition rendering of one snapshot: # TYPE
/// comments, sbk_-prefixed families, histogram quantiles and SLO
/// attainment as labeled series.
void write_health_prometheus(std::ostream& os, const HealthSnapshot& snap);

/// The snapshot timeline of one run (or, after append(), of a whole
/// sweep in scenario order).
class HealthLog {
 public:
  void add(HealthSnapshot snap) { snapshots_.push_back(std::move(snap)); }
  [[nodiscard]] const std::vector<HealthSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return snapshots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return snapshots_.empty(); }
  [[nodiscard]] const HealthSnapshot& back() const { return snapshots_.back(); }

  /// Scenario-ordered merge: appends the other log's snapshots with
  /// `track` set (their per-run sequence numbers are preserved).
  void append(const HealthLog& other, std::uint32_t track);

  /// JSON array of every snapshot, one element per line.
  void write_json(std::ostream& os) const;

  /// Canonical rendering of the full timeline; bit-identical across
  /// producer/thread counts for the same virtual-time schedule.
  [[nodiscard]] std::string fingerprint() const;

 private:
  std::vector<HealthSnapshot> snapshots_;
};

}  // namespace sbk::obs::slo
