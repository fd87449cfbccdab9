// Tests for the observability layer: metrics registry semantics
// (create-on-first-use, disabled no-op, deterministic merge, CSV/JSON
// export), the recovery tracer's incident lifecycle, and the
// thread-count independence of a registry merged by
// SweepRunner::run_observed.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "sweep/sweep.hpp"

namespace sbk::obs {
namespace {

TEST(Metrics, InstrumentsCreateOnFirstUseAndKeepValues) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("events").value(), 5u);  // same instrument
  EXPECT_EQ(&reg.counter("events"), &c);

  reg.gauge("depth").set(3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 3.5);

  LatencyHistogram& h = reg.latency("rt");
  h.record(1.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);

  EXPECT_EQ(reg.find_counter("events"), &c);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("absent"), nullptr);
  EXPECT_EQ(reg.find_latency("absent"), nullptr);
}

TEST(Metrics, NamesKeepInsertionOrder) {
  MetricsRegistry reg;
  (void)reg.counter("b");
  (void)reg.counter("a");
  (void)reg.counter("c");
  ASSERT_EQ(reg.counter_names().size(), 3u);
  EXPECT_EQ(reg.counter_names()[0], "b");
  EXPECT_EQ(reg.counter_names()[1], "a");
  EXPECT_EQ(reg.counter_names()[2], "c");
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter& c = reg.counter("n");
  c.add(10);
  reg.gauge("g").set(7.0);
  reg.latency("l").record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.latency("l").count(), 0u);

  // Re-enabling applies to the instruments already handed out.
  reg.set_enabled(true);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(Metrics, MergeSumsCountersTakesGaugesAppendsLatencies) {
  MetricsRegistry a;
  a.counter("n").add(2);
  a.gauge("g").set(1.0);
  a.latency("l").record(1.0);

  MetricsRegistry b;
  b.counter("n").add(3);
  b.counter("only_b").add(1);
  b.gauge("g").set(9.0);
  b.latency("l").record(3.0);

  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);  // last merge wins
  EXPECT_EQ(a.latency("l").count(), 2u);
  EXPECT_DOUBLE_EQ(a.latency("l").sum(), 4.0);
  EXPECT_DOUBLE_EQ(a.latency("l").max(), 3.0);
  // Instruments missing from the target appear in the other's order.
  EXPECT_EQ(a.counter_names().back(), "only_b");
}

TEST(Metrics, MergeIntoDisabledRegistryIsIgnored) {
  MetricsRegistry target(/*enabled=*/false);
  MetricsRegistry src;
  src.counter("n").add(5);
  target.merge(src);
  EXPECT_EQ(target.find_counter("n"), nullptr);
}

TEST(Metrics, CsvAndJsonExport) {
  MetricsRegistry reg;
  reg.counter("hits").add(3);
  reg.gauge("pool").set(4.0);
  reg.latency("lat").record(0.5);
  reg.latency("lat").record(1.5);

  std::ostringstream csv;
  reg.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("kind,name,count,sum,mean,min,max,p50,p99"),
            std::string::npos);
  EXPECT_NE(text.find("counter,hits,3"), std::string::npos);
  EXPECT_NE(text.find("gauge,pool"), std::string::npos);
  EXPECT_NE(text.find("latency,lat,2"), std::string::npos);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"hits\":3"), std::string::npos);
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
}

TEST(Metrics, ExportEscapesNamesWithCommasAndQuotes) {
  // Regression: instrument names derived from link elements carry commas
  // (e.g. "link:E[0,0]-A[0,1]"); the CSV export must quote them per
  // RFC 4180 and the JSON export must escape embedded quotes, or one
  // metric row silently becomes several columns downstream.
  MetricsRegistry reg;
  reg.counter("link:E[0,0]-A[0,1].failures").add(2);
  reg.gauge("pool \"spare\"").set(1.0);

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,\"link:E[0,0]-A[0,1].failures\",2"),
            std::string::npos)
      << csv.str();
  EXPECT_NE(csv.str().find("gauge,\"pool \"\"spare\"\"\",,1"),
            std::string::npos)
      << csv.str();

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"pool \\\"spare\\\"\":1"), std::string::npos)
      << json.str();
}

TEST(SweepMetrics, MergedRegistryIndependentOfThreadCount) {
  auto sweep_csv = [](std::size_t threads) {
    sweep::SweepConfig cfg;
    cfg.master_seed = 11;
    cfg.threads = threads;
    sweep::SweepRunner runner(cfg);
    MetricsRegistry merged;
    sweep::ObservedSinks sinks;
    sinks.metrics = &merged;
    auto results = runner.run_observed(
        16, sinks,
        [](const sweep::ScenarioSpec& spec,
           const sweep::ScenarioObservers& observers) {
          EXPECT_EQ(observers.recorder, nullptr);
          MetricsRegistry& reg = *observers.metrics;
          reg.counter("scenarios").add();
          reg.counter("seeded").add(spec.seed % 7);
          reg.gauge("last_index").set(static_cast<double>(spec.index));
          reg.latency("work").record(static_cast<double>(spec.seed % 100));
          return spec.index;
        });
    EXPECT_EQ(results.size(), 16u);
    std::ostringstream out;
    merged.write_csv(out);
    return out.str();
  };
  const std::string serial = sweep_csv(1);
  EXPECT_EQ(serial, sweep_csv(4));
  EXPECT_EQ(serial, sweep_csv(8));
  EXPECT_NE(serial.find("counter,scenarios,16"), std::string::npos);
}

// --- recovery tracer -----------------------------------------------------------

TEST(Tracer, InjectionDetectionCloseLifecycle) {
  RecoveryTracer tracer;
  std::size_t inc = tracer.note_injection("node:X", 1.0);
  ASSERT_NE(inc, RecoveryTracer::kNoIncident);
  // A mid-pipeline observer finds the open incident instead of forking.
  EXPECT_EQ(tracer.ensure_incident("node:X", 5.0), inc);
  EXPECT_DOUBLE_EQ(tracer.injected_at(inc), 1.0);

  tracer.add_span(inc, "detection", 1.0, 1.003);
  tracer.close_incident(inc, 1.004);
  const RecoveryIncident& i = tracer.incidents().at(inc);
  EXPECT_TRUE(i.closed);
  EXPECT_DOUBLE_EQ(i.recovered_at, 1.004);
  ASSERT_NE(i.span("detection"), nullptr);
  EXPECT_NEAR(i.span("detection")->duration(), 0.003, 1e-12);
  EXPECT_EQ(i.span("nope"), nullptr);

  // Background spans may trail a closed incident.
  tracer.add_span(inc, "restore", 9.0, 9.0);
  EXPECT_TRUE(RecoveryTracer::spans_monotone(tracer.incidents().at(inc)));

  // A second failure of the same element opens a fresh incident.
  std::size_t inc2 = tracer.note_injection("node:X", 12.0);
  EXPECT_NE(inc2, inc);
  EXPECT_EQ(tracer.ensure_incident("node:X", 99.0), inc2);
}

TEST(Tracer, ReFailureBeforeRecoverySupersedesOpenIncident) {
  RecoveryTracer tracer;
  std::size_t first = tracer.note_injection("link:a-b", 1.0);
  std::size_t second = tracer.note_injection("link:a-b", 2.0);
  EXPECT_NE(first, second);
  EXPECT_EQ(tracer.ensure_incident("link:a-b", 0.0), second);
}

TEST(Tracer, EnsureWithoutInjectionOpensAtFallback) {
  RecoveryTracer tracer;
  std::size_t inc = tracer.ensure_incident("node:Y", 3.5);
  ASSERT_NE(inc, RecoveryTracer::kNoIncident);
  EXPECT_DOUBLE_EQ(tracer.injected_at(inc), 3.5);
}

TEST(Tracer, MonotonicityCatchesBackwardsSpans) {
  RecoveryIncident inc;
  inc.spans.push_back(RecoverySpan{"a", 1.0, 2.0});
  inc.spans.push_back(RecoverySpan{"b", 2.0, 3.0});
  EXPECT_TRUE(RecoveryTracer::spans_monotone(inc));
  inc.spans.push_back(RecoverySpan{"c", 1.5, 1.6});  // starts before b
  EXPECT_FALSE(RecoveryTracer::spans_monotone(inc));

  RecoveryIncident backwards;
  backwards.spans.push_back(RecoverySpan{"a", 2.0, 1.0});  // end < start
  EXPECT_FALSE(RecoveryTracer::spans_monotone(backwards));
}

TEST(Tracer, CsvExportQuotesAndOrdersRows) {
  RecoveryTracer tracer;
  std::size_t inc = tracer.note_injection("link:E[0,0]-A[0,1]", 0.5);
  tracer.add_span(inc, "detection", 0.5, 0.503);
  tracer.close_incident(inc, 0.504);

  std::ostringstream out;
  tracer.write_csv(out);
  const std::string text = out.str();
  EXPECT_NE(
      text.find(
          "incident,element,injected_at,recovered_at,stage,start,end,duration"),
      std::string::npos);
  // Element names with commas must come out RFC 4180-quoted.
  EXPECT_NE(text.find("\"link:E[0,0]-A[0,1]\""), std::string::npos);
  EXPECT_NE(text.find("injection"), std::string::npos);
  EXPECT_NE(text.find("detection"), std::string::npos);
}

}  // namespace
}  // namespace sbk::obs
