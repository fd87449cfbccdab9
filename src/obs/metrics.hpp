// Lightweight observability: a registry of named counters, gauges, and
// latency recorders that the simulators and the control plane report
// through. Design goals, in order:
//   1. Near-zero cost when disabled — every instrument keeps a pointer to
//      its registry's enabled flag and records behind a single branch;
//      components that hold no registry at all (the default) pay nothing.
//   2. Deterministic aggregation — instruments are stored in insertion
//      order, and merge() walks the other registry in that order, so
//      merging per-scenario registries in scenario order yields the same
//      registry regardless of how many sweep workers produced them.
//   3. Bounded memory — latency instruments keep exact count/sum/min/max
//      scalars and answer quantiles from an obs/slo/LogHistogram: O(1)
//      record, memory bounded by its bucket array however many samples
//      arrive, and an exact associative merge.
//
// Registries are neither copyable nor movable: instruments hand out
// stable references into the registry, so its address must not change.
// Store registries in a std::deque (reference-stable) when a dynamic
// collection is needed — see sweep::SweepRunner::run_observed.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/slo/log_histogram.hpp"
#include "util/time.hpp"

namespace sbk::obs {

class MetricsRegistry;

/// Monotonically increasing event count. Saturates at uint64 max
/// instead of wrapping: a counter that has been incremented past the
/// representable range pins there (still monotone) rather than
/// silently restarting from a small value.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (*enabled_) {
      const std::uint64_t next = value_ + n;
      value_ = next < value_ ? ~std::uint64_t{0} : next;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(const bool* enabled) noexcept : enabled_(enabled) {}
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Last-written scalar (pool sizes, queue depths, ...).
class Gauge {
 public:
  void set(double v) noexcept {
    if (*enabled_) value_ = v;
  }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) noexcept : enabled_(enabled) {}
  const bool* enabled_;
  double value_ = 0.0;
};

/// Latency (or any duration) distribution. count/sum/min/max are exact
/// scalars; percentiles come from a log-bucketed slo::LogHistogram
/// (relative error at most one sub-bucket, ~3.2%, and clamped to the
/// exact [min, max]). Its state is a pure function of the recorded
/// values, so merged registries stay bit-identical across thread
/// counts.
class LatencyHistogram {
 public:
  void record(Seconds s) {
    if (!*enabled_) return;
    sum_ += s;
    hist_.record(s);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return hist_.count(); }
  [[nodiscard]] bool empty() const noexcept { return hist_.empty(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return empty() ? 0.0 : sum_ / static_cast<double>(count());
  }
  [[nodiscard]] double min() const noexcept { return hist_.min(); }
  [[nodiscard]] double max() const noexcept { return hist_.max(); }
  [[nodiscard]] double percentile(double p) const noexcept {
    return hist_.percentile(p);
  }
  /// Bytes held by the bucket array (0 until the first record).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return hist_.memory_bytes();
  }

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const bool* enabled) noexcept
      : enabled_(enabled) {}
  void merge_from(const LatencyHistogram& other) {
    hist_.merge(other.hist_);
    sum_ += other.sum_;
  }

  const bool* enabled_;
  slo::LogHistogram hist_;
  double sum_ = 0.0;
};

/// Insertion-ordered collection of named instruments. Lookup by name
/// creates the instrument on first use; the returned reference stays
/// valid for the registry's lifetime (instruments live in deques).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Toggling applies to all instruments already handed out (they share
  /// the registry's flag). Recorded values are retained.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& latency(std::string_view name);

  /// Read-only lookups; nullptr when the instrument was never created.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* find_latency(
      std::string_view name) const;

  /// Instrument names in insertion order.
  [[nodiscard]] const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }
  [[nodiscard]] const std::vector<std::string>& gauge_names() const noexcept {
    return gauge_names_;
  }
  [[nodiscard]] const std::vector<std::string>& latency_names() const noexcept {
    return latency_names_;
  }

  /// Folds `other` into this registry: counters sum, gauges take the
  /// other's value (last merge wins), latency histograms add bucket
  /// counts and sums. Missing instruments are
  /// created in the other's insertion order, so a fixed merge order
  /// (e.g. sweep scenario order) produces a registry whose layout and
  /// contents are independent of thread scheduling. A disabled target
  /// ignores the merge entirely.
  void merge(const MetricsRegistry& other);

  /// `kind,name,count,sum,mean,min,max,p50,p99` rows (RFC 4180 quoting
  /// via util/csv.hpp). Counters fill count; gauges fill sum; latencies
  /// fill every column.
  void write_csv(std::ostream& out) const;
  /// One JSON object: {"counters":{...},"gauges":{...},"latencies":{...}}.
  void write_json(std::ostream& out) const;

 private:
  bool enabled_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LatencyHistogram> latencies_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> latency_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> latency_index_;
};

}  // namespace sbk::obs
