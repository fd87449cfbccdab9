// Shared pieces of the repository benchmark (see perfbench/DESIGN.md):
// the run options, the result a workload hands back to main(), the
// benchmark-side span tracer that produces the per-layer numbers, and
// the small statistics helpers every workload uses.
//
// Every workload is a closed loop on one thread: the next item starts
// when the previous one has finished, flat out. The untraced run times
// whole items only; the traced run wraps each public library call in a
// Span and reports per-layer self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "routing/router.hpp"

namespace sbk::perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-waits for at least `ns` nanoseconds on the steady clock and
/// returns the measured spin (the seeded-slowdown self-test injects
/// this at one boundary and expects the total in that layer's row).
std::int64_t spin_ns(std::int64_t ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span table (empty = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the output checks
/// (`failed` out of `attempted`) and the metrics of the requested mode.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Counts one output check; a failed check is also printed.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty. Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// `values` are timings of whole cycles through the same `period` kinds
/// of item, in order. Returns the p-th percentile over the kinds of each
/// kind's median over the cycles; 0 when empty. Items of one kind cost
/// about the same, so a percentile of single timings above the median
/// mostly measures how unevenly the host ran; the median per kind does
/// not.
[[nodiscard]] double cycle_percentile(const std::vector<double>& values,
                                      std::size_t period, double p);

// --- span tracer ------------------------------------------------------------

/// Per-layer time accounting from benchmark-side spans. Layers are
/// registered up front by name; each span is charged to the current
/// item (one id per item) and to its layer. A layer's self time is its
/// spans' duration minus the part their child spans cover, so the self
/// times of all layers plus the unattributed remainder add up to the
/// wall time of the traced phase.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> layer_names);

  struct LayerTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Starts a new item; later spans are charged to it.
  void begin_item(std::uint64_t id);
  void begin(int layer);
  void end();

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return names_.size();
  }
  [[nodiscard]] const std::string& name(int layer) const {
    return names_[static_cast<std::size_t>(layer)];
  }
  /// Totals of one layer over every item.
  [[nodiscard]] LayerTotals totals(int layer) const;
  [[nodiscard]] double self_s(int layer) const {
    return static_cast<double>(totals(layer).self_ns) / 1e9;
  }
  /// Sum of every layer's self time, in nanoseconds.
  [[nodiscard]] std::int64_t attributed_ns() const;
  [[nodiscard]] std::size_t item_count() const noexcept {
    return items_.size();
  }
  [[nodiscard]] bool balanced() const noexcept { return stack_.empty(); }

  /// One JSON object: {"layers":[...],"items":[{"id":..,"spans":
  /// [[layer,count,total_ns,self_ns],...]},...]} (layers with no span
  /// in an item are left out).
  void write_json(std::string& out) const;

 private:
  struct Frame {
    int layer;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Item {
    std::uint64_t id;
    std::vector<LayerTotals> layers;
  };

  std::vector<std::string> names_;
  std::vector<Item> items_;
  std::vector<Frame> stack_;
};

/// RAII span; a null tracer makes it a single branch.
class Span {
 public:
  Span(Tracer* tracer, int layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }

 private:
  Tracer* tracer_;
};

/// Router decorator: charges every route() call of `inner` to one
/// tracer layer, and optionally spins `slowdown_ns` after each call
/// (accumulated into `*injected`) for the seeded-slowdown self-test.
class TimedRouter final : public routing::Router {
 public:
  TimedRouter(routing::Router& inner, Tracer* tracer, int layer,
              std::int64_t slowdown_ns = 0, std::int64_t* injected = nullptr)
      : inner_(inner), tracer_(tracer), layer_(layer),
        slowdown_ns_(slowdown_ns), injected_(injected) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const routing::LinkLoads* loads) override {
    Span span(tracer_, layer_);
    net::Path path = inner_.route(net, src, dst, flow_id, loads);
    if (slowdown_ns_ > 0) *injected_ += spin_ns(slowdown_ns_);
    return path;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }

 private:
  routing::Router& inner_;
  Tracer* tracer_;
  int layer_;
  std::int64_t slowdown_ns_;
  std::int64_t* injected_;
};

/// One phase of a traced run: its spans, its wall time (summed over its
/// items) and the busy-wait it injected. Workloads extend it with their
/// own counters.
struct TracedPhase {
  explicit TracedPhase(std::vector<std::string> layer_names)
      : tracer(std::move(layer_names)) {}
  Tracer tracer;
  std::int64_t wall_ns = 0;
  std::int64_t injected_ns = 0;
};

/// Closes a traced run: reconciles both phases against their wall time
/// (every span closed, no negative self time, unattributed time >= 0
/// and at most 5% of the wall), checks that the busy-wait injected in
/// `slowed` shows in layer `target` within +-15% of its total and in no
/// other row, writes the span tables (set-up too, when given) to
/// opt.trace_out, and adds the trace.* metrics. Throughputs are in items
/// of the untraced and the clean traced phase per second.
void report_trace(Outcome& out, const Options& opt, const Tracer* setup,
                  const TracedPhase& clean, const TracedPhase& slowed,
                  int target, double untraced_throughput,
                  double traced_throughput);

/// FNV-1a accumulation for per-item output digests.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add_double(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- workloads --------------------------------------------------------------

Outcome run_service_torrent(const Options& opt);
Outcome run_chaos_sweep(const Options& opt);
Outcome run_fig1c_reroute(const Options& opt);

/// One-line run stamp: workload, seed, nproc, compiler, build type.
[[nodiscard]] std::string stamp_json(const Options& opt);

}  // namespace sbk::perfbench
