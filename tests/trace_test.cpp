// Tests for the flight recorder and time-series telemetry: ring-buffer
// overwrite semantics, disabled no-op guarantees, deterministic sweep
// merging, the Perfetto JSON round trip, the export of a RecoveryTracer
// (the one incident store) into "recovery" trace events, exact-cadence
// sampling into recorder counters, and — the load-bearing property —
// bit-identical observed chaos-soak output (trace with its telemetry
// counters, SLO timeline, health log, metrics) at any sweep thread
// count, pinned across builds by digest (wall-clock fields excluded, as
// the one declared nondeterministic channel).
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/failure_detector.hpp"
#include "faultinject/chaos_soak.hpp"
#include "net/algo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_load.hpp"
#include "routing/router.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/fat_tree.hpp"
#include "util/assert.hpp"

namespace sbk::obs {
namespace {

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  FlightRecorder rec(/*enabled=*/true, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    rec.instant("t", name, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, with the two earliest events shed.
  EXPECT_EQ(events.front().name, "e2");
  EXPECT_EQ(events.back().name, "e5");
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
  FlightRecorder rec(/*enabled=*/false, /*capacity=*/4);
  rec.instant("t", "a", 1.0);
  rec.complete("t", "b", 1.0, 2.0);
  rec.counter("t", "c", 1.0, 3.0);
  { ScopedSpan span(&rec, "t", "scoped", 1.0); }
  { ScopedSpan span(nullptr, "t", "detached", 1.0); }
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, ScopedSpanRecordsOnScopeExit) {
  FlightRecorder rec;
  {
    ScopedSpan span(&rec, "phase", "solve", 2.0);
    span.set_end(2.5);
    span.set_detail("iter=3");
    EXPECT_EQ(rec.size(), 0u);  // nothing until the scope closes
  }
  std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TracePhase::kComplete);
  EXPECT_EQ(events[0].category, "phase");
  EXPECT_EQ(events[0].name, "solve");
  EXPECT_DOUBLE_EQ(events[0].ts, 2.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.5);
  EXPECT_EQ(events[0].detail, "iter=3");
  EXPECT_GE(events[0].wall_us, 0.0);  // a wall clock was actually read
}

TEST(FlightRecorder, MergeAssignsTracksInScenarioOrder) {
  FlightRecorder a, b, merged;
  a.instant("t", "from_a", 1.0);
  b.instant("t", "from_b", 2.0);
  b.counter("t", "depth", 2.5, 7.0);
  merged.merge(a, 0);
  merged.merge(b, 1);
  std::vector<TraceEvent> events = merged.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].track, 0u);
  EXPECT_EQ(events[0].name, "from_a");
  EXPECT_EQ(events[1].track, 1u);
  EXPECT_EQ(events[2].track, 1u);
  EXPECT_DOUBLE_EQ(events[2].value, 7.0);
}

TEST(FlightRecorder, TraceJsonRoundTripsThroughLoader) {
  FlightRecorder rec;
  rec.instant("control", "degraded", 0.125, "link:E[0,0]-A[0,1]");
  rec.complete("fluidsim", "max_min_solve", 0.25, 0.3125, 17.5,
               "needs \"quotes\", commas");
  rec.counter("fabric", "spare_pool", 0.5, 9.0);

  std::ostringstream out;
  rec.write_trace_json(out);
  std::vector<TraceEvent> back = load_trace_json(out.str());
  ASSERT_EQ(back.size(), 3u);

  EXPECT_EQ(back[0].phase, TracePhase::kInstant);
  EXPECT_EQ(back[0].category, "control");
  EXPECT_EQ(back[0].name, "degraded");
  EXPECT_NEAR(back[0].ts, 0.125, 1e-12);
  EXPECT_EQ(back[0].detail, "link:E[0,0]-A[0,1]");

  EXPECT_EQ(back[1].phase, TracePhase::kComplete);
  EXPECT_NEAR(back[1].ts, 0.25, 1e-12);
  EXPECT_NEAR(back[1].dur, 0.0625, 1e-12);
  EXPECT_DOUBLE_EQ(back[1].wall_us, 17.5);
  EXPECT_EQ(back[1].detail, "needs \"quotes\", commas");

  EXPECT_EQ(back[2].phase, TracePhase::kCounter);
  EXPECT_DOUBLE_EQ(back[2].value, 9.0);
}

// --- recovery export ---------------------------------------------------------

/// A short drill on a real detector and controller (k=6, one spare per
/// group) with a tracer attached to both: a core switch dies (a closed
/// incident), an edge-agg link fails at the edge side (closed, then
/// trailed by the offline diagnosis and the exonerated agg device's
/// restore), and the same core switch dies again once its group's only
/// spare is spent (a re-failure that stays open, degraded to global
/// reroute).
RecoveryTracer traced_drill() {
  sharebackup::FabricParams params;
  params.fat_tree.k = 6;
  params.backups_per_group = 1;
  sharebackup::Fabric fabric(params);
  const net::Network& net = fabric.network();
  control::Controller controller(fabric, control::ControllerConfig{});
  sim::EventQueue queue;
  control::FailureDetector detector(queue, net, control::DetectorConfig{});
  RecoveryTracer tracer;
  detector.attach_tracer(&tracer);
  controller.attach_tracer(&tracer);
  detector.on_node_failure([&](net::NodeId node, Seconds t) {
    controller.set_time(t);
    if (controller.on_switch_failure(*fabric.position_of_node(node))
            .recovered) {
      detector.rearm_node(node);
    }
  });
  detector.on_link_failure([&](net::LinkId link, Seconds t) {
    controller.set_time(t);
    (void)controller.on_link_failure(link);
  });

  const net::NodeId core = fabric.fat_tree().core(4);
  const net::NodeId edge = fabric.fat_tree().edge(1, 0);
  const net::LinkId link =
      *net.find_link(edge, fabric.fat_tree().agg(1, 2));
  const Seconds horizon = 0.3;
  detector.watch_node(core, horizon);
  detector.watch_link(link, horizon);
  auto fail_core = [&] {
    tracer.note_injection(control::element_name(net, core), queue.now());
    fabric.network().fail_node(core);
  };
  queue.schedule_at(0.010, fail_core);
  queue.schedule_at(0.100, [&] {
    tracer.note_injection(control::element_name(net, link), queue.now());
    fabric.ground_link_failure(link, edge);
  });
  queue.schedule_at(0.200, fail_core);
  queue.run();
  controller.set_time(queue.now());
  (void)controller.run_pending_diagnosis();
  return tracer;
}

/// The tracer exported into a recorder, written as trace JSON and
/// loaded back: what `sbk_trace` reads.
std::vector<TraceEvent> exported(const RecoveryTracer& tracer) {
  FlightRecorder recorder;
  export_recovery_spans(tracer, recorder);
  std::ostringstream out;
  recorder.write_trace_json(out);
  return load_trace_json(out.str());
}

std::string incident_detail(const RecoveryIncident& inc) {
  return inc.element + "#" + std::to_string(inc.id);
}

TEST(RecoveryExport, DrillTracesClosedDiagnosedAndOpenIncidents) {
  const RecoveryTracer tracer = traced_drill();
  ASSERT_EQ(tracer.incidents().size(), 3u);
  const RecoveryIncident& core = tracer.incidents()[0];
  const RecoveryIncident& link = tracer.incidents()[1];
  const RecoveryIncident& again = tracer.incidents()[2];
  // injection, detection, notification, decision, command,
  // reconfiguration, table_activation.
  EXPECT_EQ(core.element, "node:C4");
  EXPECT_TRUE(core.closed);
  EXPECT_EQ(core.spans.size(), 7u);
  EXPECT_NE(core.span("reconfiguration"), nullptr);
  // The same seven, then the background diagnosis and a restore.
  EXPECT_EQ(link.element, "link:E[1,0]-A[1,2]");
  EXPECT_TRUE(link.closed);
  EXPECT_EQ(link.spans.size(), 9u);
  EXPECT_NE(link.span("diagnosis"), nullptr);
  EXPECT_NE(link.span("restore"), nullptr);
  // injection, detection and a degraded reroute; the diagnosis pass
  // retries the parked failure, which degrades a second time.
  EXPECT_EQ(again.element, core.element);
  EXPECT_FALSE(again.closed);
  EXPECT_EQ(again.spans.size(), 4u);
  EXPECT_NE(again.span("detection"), nullptr);
  EXPECT_NE(again.span("degraded_reroute"), nullptr);
  EXPECT_TRUE(tracer.all_spans_monotone());
}

TEST(RecoveryExport, EveryTracerSpanIsOneRecoveryEvent) {
  const RecoveryTracer tracer = traced_drill();
  const std::vector<TraceEvent> events = exported(tracer);
  std::size_t spans = 0;
  for (const RecoveryIncident& inc : tracer.incidents()) {
    const std::string detail = incident_detail(inc);
    for (const RecoverySpan& s : inc.spans) {
      ++spans;
      std::size_t matches = 0;
      for (const TraceEvent& e : events) {
        if (e.phase == TracePhase::kComplete && e.category == "recovery" &&
            e.name == s.stage && e.detail == detail &&
            std::fabs(e.ts - s.start) <= 1e-9 &&
            std::fabs(e.ts + e.dur - s.end) <= 1e-9) {
          ++matches;
        }
      }
      EXPECT_EQ(matches, 1u) << detail << " " << s.stage;
    }
  }
  std::size_t recovery_spans = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kComplete && e.category == "recovery") {
      ++recovery_spans;
    }
  }
  EXPECT_EQ(recovery_spans, spans);
}

TEST(RecoveryExport, EveryClosedIncidentIsOneRecoveredInstant) {
  const RecoveryTracer tracer = traced_drill();
  const std::vector<TraceEvent> events = exported(tracer);
  std::size_t closed = 0;
  for (const RecoveryIncident& inc : tracer.incidents()) {
    std::size_t matches = 0;
    for (const TraceEvent& e : events) {
      if (e.phase == TracePhase::kInstant && e.category == "recovery" &&
          e.name == "recovered" && e.detail == incident_detail(inc)) {
        ++matches;
        EXPECT_NEAR(e.ts, inc.recovered_at, 1e-9) << e.detail;
      }
    }
    EXPECT_EQ(matches, inc.closed ? 1u : 0u) << incident_detail(inc);
    if (inc.closed) ++closed;
  }
  std::size_t instants = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kInstant && e.category == "recovery") {
      ++instants;
    }
  }
  EXPECT_EQ(instants, closed);
  EXPECT_EQ(closed, 2u);
}

// --- telemetry sampler -------------------------------------------------------

/// One probe's samples as the sampler recorded them: the "telemetry"
/// counter events named `name`, in record order.
struct Series {
  std::vector<double> times;
  std::vector<double> values;
};

Series series(const FlightRecorder& rec, const std::string& name) {
  Series out;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase != TracePhase::kCounter || e.category != "telemetry" ||
        e.name != name) {
      continue;
    }
    out.times.push_back(e.ts);
    out.values.push_back(e.value);
  }
  return out;
}

TEST(Telemetry, SamplesExactCadenceBoundaries) {
  double state = 0.0;
  FlightRecorder rec;
  TelemetrySampler sampler(rec, 0.25);
  sampler.add_probe("state", [&state] { return state; });
  sampler.start(0.0);
  state = 1.0;
  sampler.advance_to(0.6);   // boundaries 0.25, 0.5
  state = 2.0;
  sampler.advance_to(1.0);   // boundaries 0.75, 1.0 (inclusive)
  const Series s = series(rec, "state");
  ASSERT_EQ(s.times.size(), 5u);
  // Exact multiples — no accumulated drift.
  EXPECT_DOUBLE_EQ(s.times[1], 0.25);
  EXPECT_DOUBLE_EQ(s.times[4], 1.0);
  EXPECT_DOUBLE_EQ(s.values[0], 0.0);
  EXPECT_DOUBLE_EQ(s.values[2], 1.0);
  EXPECT_DOUBLE_EQ(s.values[4], 2.0);
}

TEST(Telemetry, SampleNowReanchorsWithoutDuplicates) {
  FlightRecorder rec;
  TelemetrySampler sampler(rec, 0.5);
  sampler.add_probe("one", [] { return 1.0; });
  sampler.start(0.0);
  sampler.sample_now(0.3);   // ad-hoc sample between boundaries
  sampler.sample_now(0.5);   // lands exactly on a boundary
  sampler.advance_to(1.0);   // must not re-take 0.5
  std::vector<double> expected{0.0, 0.3, 0.5, 1.0};
  const Series s = series(rec, "one");
  ASSERT_EQ(s.times.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.times[i], expected[i]) << "row " << i;
  }
}

TEST(Telemetry, SampleRecordsProbesInRegistrationOrder) {
  FlightRecorder rec;
  TelemetrySampler sampler(rec, 1.0);
  sampler.add_probe("b", [] { return 2.0; });
  sampler.add_probe("a", [] { return 1.0; });
  sampler.start(0.0);
  sampler.advance_to(1.0);
  const std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  const char* names[] = {"b", "a", "b", "a"};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, TracePhase::kCounter) << i;
    EXPECT_EQ(events[i].category, "telemetry") << i;
    EXPECT_EQ(events[i].name, names[i]) << i;
    EXPECT_DOUBLE_EQ(events[i].ts, i < 2 ? 0.0 : 1.0) << i;
  }
}

TEST(Telemetry, SamplerOverDisabledRecorderRecordsNothing) {
  FlightRecorder rec(/*enabled=*/false);
  std::size_t probed = 0;
  TelemetrySampler sampler(rec, 0.1);
  sampler.add_probe("x", [&probed] {
    ++probed;
    return 1.0;
  });
  sampler.start(0.0);
  sampler.advance_to(5.0);
  sampler.sample_now(2.0);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(probed, 0u);  // the recorder's flag is tested first
}

// --- fluid-sim integration ---------------------------------------------------

struct ShortestRouter final : routing::Router {
  net::Path route(const net::Network& net, net::NodeId src, net::NodeId dst,
                  std::uint64_t, const routing::LinkLoads*) override {
    return net::shortest_path(net, src, dst);
  }
  const char* name() const noexcept override { return "shortest"; }
};

TEST(Telemetry, FluidSimReportsUtilizationAndFlowCount) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  ShortestRouter router;
  sim::SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  sim::FluidSimulator fluid(ft.network(), router, cfg);
  // Two flows sharing the source NIC: done at t=10 and t=15.
  fluid.add_flow(sim::FlowSpec{1, ft.host(0), ft.host(8), 10.0, 0.0});
  fluid.add_flow(sim::FlowSpec{2, ft.host(0), ft.host(12), 5.0, 0.0});

  FlightRecorder recorder;
  TelemetrySampler sampler(recorder, 1.0);
  sampler.add_probe("flows", [&fluid] {
    return static_cast<double>(fluid.active_flow_count());
  });
  sampler.add_probe("util_max", [&fluid] {
    return fluid.link_utilization_max();
  });
  fluid.attach_recorder(&recorder);
  fluid.attach_telemetry(&sampler);
  (void)fluid.run();

  const std::vector<double> flows = series(recorder, "flows").values;
  const std::vector<double> util = series(recorder, "util_max").values;
  ASSERT_GE(flows.size(), 3u);
  ASSERT_EQ(util.size(), flows.size());
  // Samples see the state *before* same-instant events, so row 0 (t=0)
  // predates the arrivals; from t=1 both flows saturate the shared NIC.
  EXPECT_DOUBLE_EQ(flows[0], 0.0);
  EXPECT_DOUBLE_EQ(flows[1], 2.0);
  EXPECT_DOUBLE_EQ(util[1], 1.0);
  // The flow count only ever decreases as flows complete.
  for (std::size_t i = 2; i < flows.size(); ++i) {
    EXPECT_LE(flows[i], flows[i - 1]);
  }

  // The recorder captured the solver's self-profiling spans.
  std::size_t solves = 0;
  for (const TraceEvent& e : recorder.events()) {
    if (e.category == "fluidsim" && e.name == "max_min_solve") ++solves;
  }
  EXPECT_GE(solves, 2u);  // at least one solve per flow completion
}

// --- thread-count invariance (the sweep determinism contract) ---------------

/// Serializes every event field EXCEPT wall_us, the declared
/// nondeterministic channel.
std::string deterministic_fingerprint(const FlightRecorder& rec) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const TraceEvent& e : rec.events()) {
    os << static_cast<char>(e.phase) << '|' << e.track << '|' << e.category
       << '|' << e.name << '|' << e.ts << '|' << e.dur << '|' << e.value
       << '|' << e.detail << '\n';
  }
  return os.str();
}

/// FNV-1a over a string: a digest that is stable across builds.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every sink of a chaos soak, with its merged outputs rendered for
/// comparison (the trace without wall_us).
struct AllSinks {
  FlightRecorder trace;
  MetricsRegistry metrics;
  slo::SloMonitor slo;
  slo::HealthLog health;

  explicit AllSinks(const faultinject::ChaosSoakConfig& cfg)
      : trace(/*enabled=*/true,
              FlightRecorder::kDefaultCapacity * cfg.scenarios),
        slo(faultinject::make_chaos_slo()) {}

  [[nodiscard]] sweep::ObservedSinks sinks() {
    return {&metrics, &trace, &slo, &health};
  }
  [[nodiscard]] std::string trace_text() const {
    return deterministic_fingerprint(trace);
  }
  [[nodiscard]] std::string metrics_csv() const {
    std::ostringstream os;
    metrics.write_csv(os);
    return os.str();
  }
};

faultinject::ChaosSoakConfig soak_config(std::size_t scenarios,
                                         std::size_t threads) {
  faultinject::ChaosSoakConfig cfg;
  cfg.scenarios = scenarios;
  cfg.master_seed = 7;
  cfg.threads = threads;
  return cfg;
}

void expect_same_outcomes(const faultinject::ChaosSoakReport& a,
                          const faultinject::ChaosSoakReport& b) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    const faultinject::ChaosScenarioResult& x = a.scenarios[i];
    const faultinject::ChaosScenarioResult& y = b.scenarios[i];
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_EQ(x.violations, y.violations);
    EXPECT_EQ(x.failures_injected, y.failures_injected);
    EXPECT_EQ(x.failovers, y.failovers);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.degraded_reroutes, y.degraded_reroutes);
    EXPECT_EQ(x.requeued, y.requeued);
    EXPECT_EQ(x.watchdog_trips, y.watchdog_trips);
    EXPECT_EQ(x.reports_lost, y.reports_lost);
    EXPECT_EQ(x.reports_buffered, y.reports_buffered);
    EXPECT_EQ(x.probes_routed, y.probes_routed);
    EXPECT_EQ(x.unreachable_global_reroute, y.unreachable_global_reroute);
    EXPECT_EQ(x.unreachable_spider, y.unreachable_spider);
    EXPECT_EQ(x.unreachable_backup_rules, y.unreachable_backup_rules);
  }
}

TEST(TracedSweep, OutputIndependentOfThreadCount) {
  // Every sink at once: the merged trace (telemetry included), SLO
  // timeline, health log and metrics are bit-identical at 1, 4 and 8
  // threads, and observing does not perturb a single scenario outcome.
  const faultinject::ChaosSoakReport plain =
      faultinject::run_chaos_soak(soak_config(4, 1));
  auto run = [&plain](std::size_t threads) {
    const faultinject::ChaosSoakConfig cfg = soak_config(4, threads);
    auto soak = std::make_unique<AllSinks>(cfg);
    const faultinject::ChaosSoakReport report =
        run_chaos_soak(cfg, soak->sinks());
    EXPECT_TRUE(report.clean()) << report.summary();
    expect_same_outcomes(report, plain);
    return soak;
  };
  const auto serial = run(1);
  EXPECT_FALSE(serial->trace_text().empty());
  EXPECT_NE(serial->trace_text().find("C|3|telemetry|net.live_link_frac|"),
            std::string::npos);
  EXPECT_NE(serial->metrics_csv().find("controller.failovers"),
            std::string::npos);
  EXPECT_EQ(serial->health.size(), 4u);
  for (std::size_t threads : {4u, 8u}) {
    const auto other = run(threads);
    EXPECT_EQ(serial->trace_text(), other->trace_text());
    EXPECT_EQ(serial->slo.fingerprint(), other->slo.fingerprint());
    EXPECT_EQ(serial->health.fingerprint(), other->health.fingerprint());
    EXPECT_EQ(serial->metrics_csv(), other->metrics_csv());
  }
}

// The two digests below were recorded with the separate traced and SLO
// sweeps that run_observed replaced, so they check it against an
// independent implementation. A change to how the observed soak
// samples, spans or merges moves them. The traced digest was re-derived
// when the event queue stopped recording a span per dispatched event:
// from that implementation, with rings large enough that none wrapped
// and every queue/dispatch event dropped. It was re-derived again when
// telemetry moved into the trace: from the columnar sampler it
// replaced, with each sample also written into the scenario recorder.

TEST(ObservedSoak, TracedOutputsMatchPinnedDigest) {
  const faultinject::ChaosSoakConfig cfg = soak_config(6, 1);
  FlightRecorder trace(/*enabled=*/true,
                       FlightRecorder::kDefaultCapacity * cfg.scenarios);
  sweep::ObservedSinks sinks;
  sinks.trace = &trace;
  const faultinject::ChaosSoakReport report = run_chaos_soak(cfg, sinks);
  EXPECT_TRUE(report.clean()) << report.summary();
  const std::uint64_t digest = fnv1a(deterministic_fingerprint(trace));
  EXPECT_EQ(digest, 0x4e575183abc40356ULL) << std::hex << "digest 0x"
                                            << digest;
}

TEST(ObservedSoak, TraceKeepsEveryScenarioInjectionWindow) {
  // Each scenario's ring must still hold the control-plane history of
  // its fault window, not only the quiet settle tail.
  const faultinject::ChaosSoakConfig cfg = soak_config(6, 1);
  FlightRecorder trace(/*enabled=*/true,
                       FlightRecorder::kDefaultCapacity * cfg.scenarios);
  sweep::ObservedSinks sinks;
  sinks.trace = &trace;
  const faultinject::ChaosSoakReport report = run_chaos_soak(cfg, sinks);
  EXPECT_TRUE(report.clean()) << report.summary();
  const Seconds window_end =
      cfg.plan.injection_window * cfg.plan.horizon;  // 1.2 s
  std::vector<bool> seen(cfg.scenarios, false);
  for (const TraceEvent& e : trace.events()) {
    ASSERT_LT(e.track, cfg.scenarios);
    if (e.category == "control" && e.ts < window_end) seen[e.track] = true;
  }
  for (std::size_t track = 0; track < cfg.scenarios; ++track) {
    EXPECT_TRUE(seen[track]) << "scenario " << track
                             << " kept no control event before "
                             << window_end << " s";
  }
}

TEST(ObservedSoak, SloOutputsMatchPinnedDigest) {
  const faultinject::ChaosSoakConfig cfg = soak_config(6, 1);
  slo::SloMonitor monitor = faultinject::make_chaos_slo();
  slo::HealthLog health;
  sweep::ObservedSinks sinks;
  sinks.slo = &monitor;
  sinks.health = &health;
  const faultinject::ChaosSoakReport report = run_chaos_soak(cfg, sinks);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(health.size(), cfg.scenarios);
  const std::uint64_t digest =
      fnv1a(monitor.fingerprint() + "#" + health.fingerprint());
  EXPECT_EQ(digest, 0x4da6f44cd958f690ULL) << std::hex << "digest 0x"
                                            << digest;
}

TEST(ObservedSoak, HealthLogWithoutSloMonitorIsRejected) {
  slo::HealthLog health;
  sweep::ObservedSinks sinks;
  sinks.health = &health;
  EXPECT_THROW((void)run_chaos_soak(soak_config(1, 1), sinks),
               ContractViolation);
}

}  // namespace
}  // namespace sbk::obs
