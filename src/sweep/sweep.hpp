// Scenario-sweep engine: fans independent (seed, failure-scenario)
// simulations out across cores. Every evaluation in the paper — the
// Fig. 1(c) CCT-slowdown CDF, the §5.1 capacity Monte-Carlo, the
// provisioning ablation — is a sweep over scenarios × seeds; this module
// is the shared substrate so benches stop hand-rolling serial loops.
//
// Determinism contract: every scenario gets its own RNG stream whose
// seed is derived from (master_seed, scenario_index) via splitmix64, and
// results are stored by scenario index. Consequently a parallel sweep is
// bit-identical to the same sweep at threads=1 — thread scheduling can
// reorder execution but never the seeds or the result slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/health_snapshot.hpp"
#include "obs/slo/slo_monitor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace sbk::sweep {

/// One round of the splitmix64 mixer (Steele, Lea & Flood; public
/// domain constants). Bijective on 64-bit integers with strong
/// avalanche, which is what makes derived seeds statistically
/// independent even for adjacent indices.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Child seed for one scenario of a sweep: mixes the master seed and the
/// scenario index through splitmix64 so that neighbouring indices (and
/// neighbouring master seeds) yield decorrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master_seed,
                                        std::uint64_t scenario_index) noexcept;

/// Identity of one scenario inside a sweep, handed to the scenario
/// callable. `seed` is already derived; rng() is the conventional way to
/// start the scenario's private stream.
struct ScenarioSpec {
  std::size_t index = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] Rng rng() const { return Rng(seed); }
};

struct SweepConfig {
  /// Root of every per-scenario seed (see derive_seed).
  std::uint64_t master_seed = 1;
  /// Worker threads. 0 = auto: the SBK_THREADS environment variable if
  /// set to a positive integer, else hardware concurrency.
  std::size_t threads = 0;
};

/// Merge targets of SweepRunner::run_observed. Every pointer is
/// optional; the sinks must outlive the sweep.
struct ObservedSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* trace = nullptr;
  obs::slo::SloMonitor* slo = nullptr;
  obs::slo::HealthLog* health = nullptr;
};

/// One scenario's private observers, one per sink of ObservedSinks (null
/// where the sink is absent).
struct ScenarioObservers {
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  obs::slo::SloMonitor* slo = nullptr;
  obs::slo::HealthLog* health = nullptr;
};

/// Resolves a requested thread count per the SweepConfig::threads rule.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// Runs N independent scenarios, in parallel when configured, and
/// returns their results in scenario order.
///
/// The scenario callable is invoked concurrently from pool workers: it
/// must only touch shared state read-only (topologies under mutation,
/// routers with internal caches etc. must be constructed per scenario).
/// The first exception a scenario throws is rethrown from run() after
/// the sweep winds down; scenarios not yet started are abandoned.
class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig cfg = {});

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return cfg_.master_seed;
  }

  /// fn: (const ScenarioSpec&) -> R, with R default-constructible (the
  /// result vector is pre-sized so workers write without synchronising).
  template <typename Fn>
  auto run(std::size_t scenario_count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const ScenarioSpec&>> {
    using R = std::invoke_result_t<Fn&, const ScenarioSpec&>;
    static_assert(std::is_default_constructible_v<R>,
                  "scenario results are collected into a pre-sized vector");
    std::vector<R> results(scenario_count);
    if (scenario_count == 0) return results;

    auto spec_at = [this](std::size_t i) {
      return ScenarioSpec{i, derive_seed(cfg_.master_seed, i)};
    };

    const std::size_t workers = std::min(threads_, scenario_count);
    if (workers <= 1) {
      for (std::size_t i = 0; i < scenario_count; ++i) {
        results[i] = fn(spec_at(i));
      }
      return results;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    {
      ThreadPool pool(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.submit([&] {
          for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= scenario_count) return;
            try {
              results[i] = fn(spec_at(i));
            } catch (...) {
              std::lock_guard<std::mutex> lk(error_mu);
              if (!first_error) first_error = std::current_exception();
              // Abandon unstarted scenarios; in-flight ones finish.
              next.store(scenario_count, std::memory_order_relaxed);
            }
          }
        });
      }
      pool.wait_idle();
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Sweep whose scenarios each produce a batch of scalar samples
  /// (fn: (const ScenarioSpec&) -> std::vector<double>). Samples are
  /// accumulated thread-locally inside each scenario and merged into one
  /// Summary in scenario order — a single deterministic merge, so the
  /// resulting Summary (and any empirical_cdf over its samples) is
  /// independent of the thread count.
  template <typename Fn>
  [[nodiscard]] Summary run_summary(std::size_t scenario_count, Fn&& fn) {
    auto batches = run(scenario_count, std::forward<Fn>(fn));
    Summary out;
    for (const std::vector<double>& batch : batches) out.add_all(batch);
    return out;
  }

  /// Observed sweep: for each sink present in `sinks`, every scenario
  /// gets a private local (no cross-thread sharing) — a registry or
  /// recorder with the sink's enabled flag, an SLO monitor stamped by
  /// clone_config(), an empty health log — and a "sweep"/"scenario"
  /// span in its recorder. A scenario that samples telemetry samples it
  /// into its recorder (obs::TelemetrySampler), so the trace merge
  /// carries the series too. After the sweep the
  /// locals are folded into their sinks in scenario order, with the
  /// scenario index as the track, so every merged output is independent
  /// of the thread count (wall-clock span durations aside). Locals live
  /// in deques because instruments point into them.
  /// fn: (const ScenarioSpec&, const ScenarioObservers&) -> R; an absent
  /// sink's observer is null.
  template <typename Fn>
  auto run_observed(std::size_t scenario_count, const ObservedSinks& sinks,
                    Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const ScenarioSpec&,
                                          const ScenarioObservers&>> {
    std::deque<obs::MetricsRegistry> registries;
    std::deque<obs::FlightRecorder> recorders;
    std::deque<obs::slo::SloMonitor> monitors;
    std::deque<obs::slo::HealthLog> logs;
    for (std::size_t i = 0; i < scenario_count; ++i) {
      if (sinks.metrics) registries.emplace_back(sinks.metrics->enabled());
      if (sinks.trace) recorders.emplace_back(sinks.trace->enabled());
      if (sinks.slo) monitors.push_back(sinks.slo->clone_config());
      if (sinks.health) logs.emplace_back();
    }
    auto local = [](auto& locals, std::size_t i) {
      return locals.empty() ? nullptr : &locals[i];
    };
    auto results = run(scenario_count, [&](const ScenarioSpec& spec) {
      const std::size_t i = spec.index;
      const ScenarioObservers observers{
          local(registries, i), local(recorders, i), local(monitors, i),
          local(logs, i)};
      obs::ScopedSpan span(observers.recorder, "sweep", "scenario", 0.0);
      return fn(spec, observers);
    });
    for (std::size_t i = 0; i < scenario_count; ++i) {
      const auto track = static_cast<std::uint32_t>(i);
      if (sinks.metrics) sinks.metrics->merge(registries[i]);
      if (sinks.trace) sinks.trace->merge(recorders[i], track);
      if (sinks.slo) sinks.slo->merge(monitors[i], track);
      if (sinks.health) sinks.health->append(logs[i], track);
    }
    return results;
  }

 private:
  SweepConfig cfg_;
  std::size_t threads_;
};

}  // namespace sbk::sweep
