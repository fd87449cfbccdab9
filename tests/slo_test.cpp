// Tests for the live SLO engine (obs/slo): LogHistogram bucket
// geometry, quantile error bounds, and merge associativity /
// thread-count invariance; SloMonitor burn-rate breach/clear semantics,
// windowing, incident linking, and scenario-ordered merge; health
// snapshot serialization (JSON + Prometheus text exposition) and the
// HealthLog fingerprint; plus the observability satellites this PR
// rides along — flight-recorder ring-wrap export order, export during
// an open ScopedSpan, counter saturation, mismatched-set registry
// merge, the bounded latency histogram, and end-to-end SLO determinism
// through the controller service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "obs/slo/health_snapshot.hpp"
#include "obs/slo/log_histogram.hpp"
#include "obs/slo/slo_monitor.hpp"
#include "service/controller_service.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "util/rng.hpp"

namespace sbk::obs::slo {
namespace {

// --- LogHistogram ------------------------------------------------------------

TEST(LogHistogram, BucketGeometryRoundTrips) {
  const double values[] = {1e-9,  3.7e-8, 1e-6, 4.2e-4, 0.001, 0.25,
                           0.5,   0.75,   1.0,  1.5,    123.456, 1e6};
  for (double v : values) {
    const std::uint32_t idx = LogHistogram::bucket_of(v);
    ASSERT_LT(idx, LogHistogram::kBucketCount) << v;
    EXPECT_LE(LogHistogram::bucket_lower(idx), v) << v;
    EXPECT_LT(v, LogHistogram::bucket_upper(idx)) << v;
    const double rep = LogHistogram::bucket_representative(idx);
    EXPECT_GE(rep, LogHistogram::bucket_lower(idx)) << v;
    EXPECT_LE(rep, LogHistogram::bucket_upper(idx)) << v;
  }
  // Zero, negatives, and sub-floor magnitudes collapse into the
  // underflow bucket; huge values saturate into the top bucket.
  EXPECT_EQ(LogHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1e-12), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1e10), LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, QuantileEndpointsAreExactExtremes) {
  LogHistogram h;
  h.record(0.003);
  h.record(0.017);
  h.record(0.0009);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0009);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.017);
  EXPECT_DOUBLE_EQ(h.min(), 0.0009);
  EXPECT_DOUBLE_EQ(h.max(), 0.017);
  EXPECT_EQ(h.count(), 3u);
}

TEST(LogHistogram, QuantilesWithinSubBucketRelativeError) {
  // Log-uniform spread over 6 decades: the adversarial shape for a
  // log-bucketed histogram. Every quantile must land within the
  // sub-bucket width (2^-5 ~ 3.2%) of the exact order statistic.
  Rng rng(42);
  std::vector<double> samples;
  LogHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, rng.uniform_real(-6.0, 0.0));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[std::min(rank, samples.size()) - 1];
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.033) << "q=" << q;
  }
  const double exact_mean =
      std::accumulate(samples.begin(), samples.end(), 0.0) /
      static_cast<double>(samples.size());
  EXPECT_NEAR(h.mean(), exact_mean, exact_mean * 0.033);
}

TEST(LogHistogram, MergeIsAssociativeAndMatchesInline) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.uniform_real(1e-6, 10.0));
  }
  LogHistogram inline_hist;
  LogHistogram parts[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    inline_hist.record(samples[i]);
    parts[i % 3].record(samples[i]);
  }
  // (a + b) + c
  LogHistogram left;
  left.merge(parts[0]);
  left.merge(parts[1]);
  left.merge(parts[2]);
  // a + (b + c)
  LogHistogram bc;
  bc.merge(parts[1]);
  bc.merge(parts[2]);
  LogHistogram right;
  right.merge(parts[0]);
  right.merge(bc);
  EXPECT_EQ(left.fingerprint(), right.fingerprint());
  EXPECT_EQ(left.fingerprint(), inline_hist.fingerprint());
  EXPECT_EQ(left.count(), inline_hist.count());
  EXPECT_DOUBLE_EQ(left.min(), inline_hist.min());
  EXPECT_DOUBLE_EQ(left.max(), inline_hist.max());
}

TEST(LogHistogram, MergeInvariantAcrossProducerCounts) {
  // Property: round-robin the same sample stream over k histograms and
  // fold them in index order — the result is bit-identical for every k
  // (the thread-count-invariance property the service relies on).
  Rng rng(1234);
  std::vector<double> samples;
  for (int i = 0; i < 4096; ++i) {
    samples.push_back(rng.lognormal(-5.3, 0.8));
  }
  std::string baseline;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}, std::size_t{13}}) {
    std::vector<LogHistogram> shards(k);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      shards[i % k].record(samples[i]);
    }
    LogHistogram merged;
    for (const LogHistogram& s : shards) merged.merge(s);
    if (baseline.empty()) {
      baseline = merged.fingerprint();
    } else {
      EXPECT_EQ(merged.fingerprint(), baseline) << "k=" << k;
    }
  }
}

TEST(LogHistogram, RecordNClearAndBoundedMemory) {
  LogHistogram h;
  EXPECT_EQ(h.memory_bytes(), 0u);  // nothing allocated until first record
  h.record_n(0.01, 1000);
  h.record_n(0.02, 0);  // n = 0 is a no-op
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.max(), 0.01);
  EXPECT_EQ(h.memory_bytes(),
            LogHistogram::kBucketCount * sizeof(std::uint64_t));
  // A million more records cannot grow it: fixed bucket array.
  for (int i = 0; i < 1000; ++i) h.record_n(static_cast<double>(i), 1000);
  EXPECT_EQ(h.memory_bytes(),
            LogHistogram::kBucketCount * sizeof(std::uint64_t));
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

// --- SloMonitor --------------------------------------------------------------

SloObjectiveConfig rate_objective() {
  SloObjectiveConfig cfg;
  cfg.name = "errors";
  cfg.kind = ObjectiveKind::kRate;
  cfg.budget = 0.01;  // 1% error budget
  cfg.window = 1.0;
  cfg.steps = 10;
  cfg.short_steps = 2;
  cfg.burn_factor = 2.0;  // breach at >= 2% bad in both windows
  cfg.clear_factor = 1.0;
  cfg.min_events = 10;
  return cfg;
}

TEST(SloMonitor, QuietStreamRaisesNoAlerts) {
  SloMonitor mon;
  mon.add_objective(rate_objective());
  for (int i = 0; i < 1000; ++i) {
    mon.record_good(0, static_cast<double>(i) * 0.01);
  }
  mon.finish(10.0);
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.breach_count(0), 0u);
  EXPECT_FALSE(mon.breached(0));
  EXPECT_DOUBLE_EQ(mon.attainment(0), 1.0);
}

TEST(SloMonitor, BurnBreachFiresThenClears) {
  SloMonitor mon;
  mon.add_objective(rate_objective());
  // Healthy first second: 100 good events.
  for (int i = 0; i < 100; ++i) {
    mon.record_good(0, static_cast<double>(i) * 0.01);
  }
  // Outage burst at t=1.0..1.1: all bad. Short window (0.2s) burns at
  // ~50/budget, long window well above the factor too.
  for (int i = 0; i < 50; ++i) {
    mon.record_bad(0, 1.0 + static_cast<double>(i) * 0.002);
  }
  // At 1.2 the short window still holds the burst, so the breach is
  // open; one more step and the bad events age out of it.
  mon.advance_to(1.2);
  ASSERT_FALSE(mon.alerts().empty());
  EXPECT_TRUE(mon.alerts().front().breach);
  EXPECT_TRUE(mon.breached(0));
  EXPECT_EQ(mon.breach_count(0), 1u);
  // The breach boundary trails the burst by at most one step.
  EXPECT_LE(mon.alerts().front().at, 1.2 + 1e-12);

  // Recovery: good events resume; the short window drains and clears.
  for (int i = 0; i < 100; ++i) {
    mon.record_good(0, 1.3 + static_cast<double>(i) * 0.01);
  }
  mon.advance_to(3.0);
  EXPECT_FALSE(mon.breached(0));
  EXPECT_EQ(mon.clear_count(0), 1u);
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_FALSE(mon.alerts().back().breach);
  EXPECT_GT(mon.alerts().back().at, mon.alerts().front().at);
  EXPECT_EQ(mon.good_total(0), 200u);
  EXPECT_EQ(mon.bad_total(0), 50u);
}

TEST(SloMonitor, MinEventsGuardSuppressesTinySamples) {
  SloMonitor mon;
  SloObjectiveConfig cfg = rate_objective();
  cfg.min_events = 50;
  mon.add_objective(cfg);
  // 5 bad out of 5: 100% bad, but far below min_events.
  for (int i = 0; i < 5; ++i) {
    mon.record_bad(0, static_cast<double>(i) * 0.01);
  }
  mon.finish(2.0);
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(mon.breach_count(0), 0u);
}

TEST(SloMonitor, LatencyObjectiveJudgesThreshold) {
  SloMonitor mon;
  SloObjectiveConfig cfg;
  cfg.name = "latency";
  cfg.kind = ObjectiveKind::kLatency;
  cfg.threshold = 0.010;
  cfg.budget = 0.1;
  cfg.window = 1.0;
  cfg.steps = 10;
  cfg.min_events = 4;
  mon.add_objective(cfg);
  mon.record_latency(0, 0.1, 0.005);  // under threshold: good
  mon.record_latency(0, 0.2, 0.009);
  mon.record_latency(0, 0.3, 0.050);  // over: bad
  mon.record_latency(0, 0.4, 0.005);
  mon.finish(1.0);
  EXPECT_EQ(mon.good_total(0), 3u);
  EXPECT_EQ(mon.bad_total(0), 1u);
  EXPECT_DOUBLE_EQ(mon.attainment(0), 0.75);
}

TEST(SloMonitor, FinishFlushesPendingClearAndEmitsAttainment) {
  FlightRecorder rec(/*enabled=*/true);
  SloMonitor mon;
  mon.add_objective(rate_objective());
  mon.attach_recorder(&rec);
  for (int i = 0; i < 100; ++i) {
    mon.record_good(0, static_cast<double>(i) * 0.001);
  }
  for (int i = 0; i < 50; ++i) {
    mon.record_bad(0, 0.5 + static_cast<double>(i) * 0.001);
  }
  // finish() must advance a full window past the last event so the
  // breach opened by the burst clears before the run ends.
  mon.finish(0.6);
  EXPECT_EQ(mon.breach_count(0), 1u);
  EXPECT_EQ(mon.clear_count(0), 1u);
  EXPECT_FALSE(mon.breached(0));

  std::size_t breaches = 0, clears = 0, attainments = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.category != "slo") continue;
    if (e.name == "slo_breach") ++breaches;
    if (e.name == "slo_clear") ++clears;
    if (e.name == "slo_attainment") ++attainments;
  }
  EXPECT_EQ(breaches, 1u);
  EXPECT_EQ(clears, 1u);
  EXPECT_EQ(attainments, 1u);  // one per objective
}

TEST(SloMonitor, BreachLinksOverlappingIncidents) {
  RecoveryTracer tracer;
  const std::size_t open_inc = tracer.note_injection("node:X", 1.95);
  const std::size_t closed_far = tracer.note_injection("node:Y", 0.1);
  tracer.close_incident(closed_far, 0.2);
  SloMonitor mon;
  mon.add_objective(rate_objective());
  mon.attach_tracer(&tracer);
  for (int i = 0; i < 100; ++i) {
    mon.record_good(0, 1.5 + static_cast<double>(i) * 0.001);
  }
  for (int i = 0; i < 50; ++i) {
    mon.record_bad(0, 2.0 + static_cast<double>(i) * 0.001);
  }
  mon.advance_to(2.2);
  ASSERT_FALSE(mon.alerts().empty());
  const SloAlert& breach = mon.alerts().front();
  ASSERT_TRUE(breach.breach);
  // The still-open node:X incident overlaps the long window behind the
  // breach boundary; node:Y closed well before that window opened.
  EXPECT_NE(std::find(breach.incidents.begin(), breach.incidents.end(),
                      open_inc),
            breach.incidents.end());
  EXPECT_EQ(std::find(breach.incidents.begin(), breach.incidents.end(),
                      closed_far),
            breach.incidents.end());
}

TEST(SloMonitor, CloneConfigCopiesObjectivesZeroesState) {
  SloMonitor mon;
  mon.add_objective(rate_objective());
  mon.record_bad(0, 0.1);
  SloMonitor clone = mon.clone_config();
  EXPECT_EQ(clone.objective_count(), 1u);
  EXPECT_EQ(clone.objective(0).name, "errors");
  EXPECT_EQ(clone.bad_total(0), 0u);
  EXPECT_TRUE(clone.alerts().empty());
}

TEST(SloMonitor, MergeAppendsTimelinesWithTracksAndFoldsTotals) {
  SloMonitor proto;
  proto.add_objective(rate_objective());

  auto run_scenario = [&proto](double bad_at) {
    SloMonitor m = proto.clone_config();
    for (int i = 0; i < 100; ++i) {
      m.record_good(0, static_cast<double>(i) * 0.001);
    }
    for (int i = 0; i < 50; ++i) {
      m.record_bad(0, bad_at + static_cast<double>(i) * 0.001);
    }
    m.finish(bad_at + 0.1);
    return m;
  };
  SloMonitor a = run_scenario(0.5);
  SloMonitor b = run_scenario(0.8);

  SloMonitor merged = proto.clone_config();
  merged.merge(a, 0);
  merged.merge(b, 1);
  EXPECT_EQ(merged.good_total(0), 200u);
  EXPECT_EQ(merged.bad_total(0), 100u);
  EXPECT_EQ(merged.breach_count(0), a.breach_count(0) + b.breach_count(0));
  ASSERT_EQ(merged.alerts().size(), a.alerts().size() + b.alerts().size());
  EXPECT_EQ(merged.alerts().front().track, 0u);
  EXPECT_EQ(merged.alerts().back().track, 1u);

  // Scenario-ordered merge is deterministic: same inputs, same
  // fingerprint.
  SloMonitor merged2 = proto.clone_config();
  merged2.merge(run_scenario(0.5), 0);
  merged2.merge(run_scenario(0.8), 1);
  EXPECT_EQ(merged.fingerprint(), merged2.fingerprint());
}

// --- HealthSnapshot / HealthLog ----------------------------------------------

HealthSnapshot sample_snapshot() {
  HealthSnapshot snap;
  snap.sequence = 3;
  snap.at = 1.25;
  snap.queue_depth = 17;
  snap.backpressure = true;
  snap.accepted = 1000;
  snap.processed = 983;
  snap.shed_probes = 12;
  snap.batches = 40;
  snap.replicated = true;
  snap.cluster_term = 2;
  snap.acting_member = 1;
  snap.headless_backlog = 5;
  snap.spare_pool = 8;
  snap.live_link_frac = 0.97;
  HealthHistogramStat hs;
  hs.name = "decision_latency";
  hs.count = 983;
  hs.p50 = 0.004;
  hs.p99 = 0.012;
  hs.p999 = 0.02;
  hs.max = 0.03;
  snap.histograms.push_back(hs);
  HealthObjectiveStat os;
  os.name = "service_availability";
  os.good = 950;
  os.bad = 33;
  os.breaches = 1;
  os.clears = 1;
  os.attainment = 0.966;
  snap.objectives.push_back(os);
  return snap;
}

TEST(HealthSnapshot, JsonIsOneLinePerSnapshot) {
  std::ostringstream os;
  write_health_json(os, sample_snapshot());
  const std::string json = os.str();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":17"), std::string::npos);
  EXPECT_NE(json.find("\"backpressure\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cluster_term\":2"), std::string::npos);
  EXPECT_NE(json.find("\"decision_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"service_availability\""), std::string::npos);
}

TEST(HealthSnapshot, PrometheusExpositionHasTypedFamilies) {
  std::ostringstream os;
  write_health_prometheus(os, sample_snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE sbk_service_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sbk_service_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sbk_service_queue_depth 17"), std::string::npos);
  EXPECT_NE(
      text.find("sbk_latency_seconds{metric=\"decision_latency\","
                "quantile=\"0.99\"} 0.012"),
      std::string::npos);
  EXPECT_NE(
      text.find("sbk_slo_breaches_total{objective=\"service_availability\"}"
                " 1"),
      std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(line.compare(0, 4, "sbk_") == 0) << line;
  }
}

TEST(HealthLog, AppendSetsTrackAndFingerprintIsDeterministic) {
  HealthLog a;
  a.add(sample_snapshot());
  HealthLog b;
  HealthSnapshot other = sample_snapshot();
  other.sequence = 0;
  other.queue_depth = 99;
  b.add(other);

  HealthLog merged;
  merged.append(a, 0);
  merged.append(b, 1);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.snapshots()[0].track, 0u);
  EXPECT_EQ(merged.snapshots()[1].track, 1u);

  HealthLog merged2;
  merged2.append(a, 0);
  merged2.append(b, 1);
  EXPECT_EQ(merged.fingerprint(), merged2.fingerprint());

  HealthLog reordered;
  reordered.append(b, 0);
  reordered.append(a, 1);
  EXPECT_NE(merged.fingerprint(), reordered.fingerprint());

  std::ostringstream os;
  merged.write_json(os);
  EXPECT_NE(os.str().find("\"queue_depth\":99"), std::string::npos);
}

// --- flight recorder regressions ---------------------------------------------

TEST(FlightRecorder, WrappedExportIsOldestFirst) {
  FlightRecorder rec(/*enabled=*/true, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    rec.instant("t", "e" + std::to_string(i), static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "e" + std::to_string(i + 2));
    if (i > 0) {
      EXPECT_GE(events[i].ts, events[i - 1].ts);
    }
  }
  // The JSON export walks the same oldest-first order.
  std::ostringstream os;
  rec.write_trace_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("e0"), std::string::npos);
  EXPECT_LT(json.find("e2"), json.find("e5"));
}

TEST(FlightRecorder, ExportDuringOpenScopedSpanIsConsistent) {
  FlightRecorder rec(/*enabled=*/true, /*capacity=*/8);
  rec.instant("t", "before", 0.0);
  {
    ScopedSpan span(&rec, "t", "open_span", 1.0);
    span.set_end(2.0);
    // Mid-span export: the span records only at scope exit, so the
    // snapshot holds everything recorded so far and nothing half-built.
    const std::vector<TraceEvent> mid = rec.events();
    ASSERT_EQ(mid.size(), 1u);
    EXPECT_EQ(mid[0].name, "before");
    // Exporting must not perturb what the span eventually records.
    std::ostringstream os;
    rec.write_trace_json(os);
  }
  const std::vector<TraceEvent> after = rec.events();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].name, "open_span");
  EXPECT_DOUBLE_EQ(after[1].ts, 1.0);
  EXPECT_DOUBLE_EQ(after[1].dur, 1.0);
}

// --- metrics satellites ------------------------------------------------------

TEST(Metrics, CounterSaturatesInsteadOfWrapping) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  const std::uint64_t max = ~std::uint64_t{0};
  c.add(max - 5);
  EXPECT_EQ(c.value(), max - 5);
  c.add(3);
  EXPECT_EQ(c.value(), max - 2);
  c.add(10);  // would wrap: pins at max instead
  EXPECT_EQ(c.value(), max);
  c.add(1);  // stays pinned
  EXPECT_EQ(c.value(), max);
}

TEST(Metrics, MergeWithMismatchedInstrumentSetsTakesTheUnion) {
  MetricsRegistry a;
  a.counter("shared").add(2);
  a.counter("only_a").add(7);
  a.latency("lat_a").record(0.5);

  MetricsRegistry b;
  b.counter("shared").add(3);
  b.counter("only_b").add(11);
  b.gauge("depth_b").set(4.0);
  b.latency("lat_b").record(1.5);

  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 5u);
  EXPECT_EQ(a.counter("only_a").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 11u);
  EXPECT_DOUBLE_EQ(a.gauge("depth_b").value(), 4.0);
  ASSERT_NE(a.find_latency("lat_b"), nullptr);
  EXPECT_EQ(a.find_latency("lat_b")->count(), 1u);
  EXPECT_EQ(a.find_latency("lat_a")->count(), 1u);
  // Missing instruments were created in b's insertion order, after a's.
  ASSERT_EQ(a.counter_names().size(), 3u);
  EXPECT_EQ(a.counter_names()[0], "shared");
  EXPECT_EQ(a.counter_names()[1], "only_a");
  EXPECT_EQ(a.counter_names()[2], "only_b");
}

TEST(Metrics, LatencyReservoirStaysBoundedOverAMillionSamples) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.latency("rt");
  Rng rng(99);
  const std::size_t n = 1'000'000;
  std::vector<double> samples;
  samples.reserve(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.uniform_real(0.001, 0.010);
    sum += v;
    samples.push_back(v);
    h.record(v);
  }
  // count/sum/min/max are exact scalars.
  EXPECT_EQ(h.count(), n);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
  // Memory is the LogHistogram bucket array, however many samples.
  EXPECT_LE(h.memory_bytes(),
            LogHistogram::kBucketCount * sizeof(std::uint64_t));
  // p50 is the rank-ceil(n/2) sample to within one sub-bucket (3.2%).
  auto mid = samples.begin() + static_cast<std::ptrdiff_t>(n / 2 - 1);
  std::nth_element(samples.begin(), mid, samples.end());
  EXPECT_NEAR(h.percentile(50.0), *mid, *mid * 0.032);
}

// --- end-to-end: SLO engine through the service ------------------------------

std::vector<service::ServiceMessage> crash_stream(int repeats) {
  faultinject::FaultPlanConfig pcfg;
  pcfg.switch_failures = 8;
  pcfg.link_failures = 12;
  pcfg.cluster_scenario = faultinject::ClusterScenario::kPrimaryCrash;
  pcfg.cluster_members = 3;
  sharebackup::Fabric fabric(sharebackup::FabricParams{
      .fat_tree = {.k = 4}, .backups_per_group = 1});
  const faultinject::FaultPlan plan =
      faultinject::FaultPlan::generate(fabric, pcfg, 11);
  faultinject::ReportStreamConfig rcfg;
  rcfg.repeats = repeats;
  rcfg.resends = 2;
  rcfg.time_scale = 0.02;
  return faultinject::build_report_stream(plan, rcfg);
}

TEST(ServiceSlo, DisabledEngineLeavesFingerprintSloFree) {
  const std::vector<service::ServiceMessage> stream = crash_stream(4);
  sharebackup::Fabric fabric(sharebackup::FabricParams{
      .fat_tree = {.k = 4}, .backups_per_group = 1});
  control::Controller controller(fabric, control::ControllerConfig{});
  service::ControllerService svc(fabric, controller, {});
  svc.run_inline(stream);
  EXPECT_EQ(svc.fingerprint().find("slo="), std::string::npos);
  EXPECT_TRUE(svc.slo_monitor().alerts().empty());
  EXPECT_TRUE(svc.health_log().empty());
  // The pull hook still answers (with empty objective tables).
  const HealthSnapshot snap = svc.health_snapshot();
  EXPECT_EQ(snap.processed, svc.ingress_stats().processed);
  EXPECT_TRUE(snap.objectives.empty());
}

TEST(ServiceSlo, ReplicatedCrashBreachesAvailabilityAndClears) {
  const std::vector<service::ServiceMessage> stream = crash_stream(8);
  service::ReplicatedServiceConfig rcfg;
  rcfg.service.slo.enabled = true;
  rcfg.cluster.members = 3;
  rcfg.cluster.heartbeat_interval = 0.01 * 0.02;
  rcfg.cluster.miss_threshold = 3;
  rcfg.cluster.election_duration = 0.005 * 0.02;

  auto run = [&] {
    sharebackup::Fabric fabric(sharebackup::FabricParams{
        .fat_tree = {.k = 4}, .backups_per_group = 1});
    service::ReplicatedControllerService svc(fabric, rcfg);
    svc.run_inline(stream);
    return svc.fingerprint();
  };

  sharebackup::Fabric fabric(sharebackup::FabricParams{
      .fat_tree = {.k = 4}, .backups_per_group = 1});
  service::ReplicatedControllerService svc(fabric, rcfg);
  svc.run_inline(stream);

  const SloMonitor& mon = svc.slo_monitor();
  const std::size_t avail = service::ControllerService::kSloAvailability;
  EXPECT_GE(mon.breach_count(avail), 1u);
  EXPECT_EQ(mon.clear_count(avail), mon.breach_count(avail));
  EXPECT_FALSE(mon.breached(avail));
  EXPECT_GT(mon.bad_total(avail), 0u);  // the headless window was seen
  EXPECT_EQ(mon.breach_count(service::ControllerService::kSloLoss), 0u);
  EXPECT_FALSE(svc.health_log().empty());
  const HealthSnapshot& last = svc.health_log().back();
  EXPECT_TRUE(last.replicated);
  EXPECT_EQ(last.headless_backlog, 0u);

  // The whole engine is deterministic: identical runs, identical
  // fingerprints (which cover the alert timeline and snapshot log).
  EXPECT_EQ(run(), run());
  EXPECT_EQ(run(), svc.fingerprint());
}

}  // namespace
}  // namespace sbk::obs::slo
