// Workload service-torrent: the always-on controller stack under the
// service_soak report torrent (--replicas=3 --scenario=primary-crash
// --slo), fed inline. One pass is a fresh k=8 fabric and a fresh
// ReplicatedControllerService fed one whole stream by run_inline.
// A run cycles through kStreams streams, built from the plan seeds
// sweep::derive_seed(seed, 0..kStreams-1): single plans differ by up to
// ~20% in host cost per message, and pooling several keeps the figures
// of one seed close to those of another.
//
// End to end: processed messages per run_inline wall second over all
// passes, and the host time of one ingress batch (the interval between
// consecutive batch starts, taken in an on_batch_begin override).
// Per layer: every protected ControllerService hook is overridden in
// TracedService and wrapped in a span; the rest of run_inline is the
// ingress queue and the per-message SLO/histogram records.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "sweep/sweep.hpp"
#include "util/rss.hpp"

namespace sbk::perfbench {
namespace {

namespace fi = sbk::faultinject;
namespace svc = sbk::service;

constexpr int kK = 8;
constexpr int kBackups = 2;
constexpr std::size_t kReplicas = 3;
constexpr double kTimeScale = 0.02;
constexpr std::size_t kStreams = 8;
constexpr int kSetupRepeats = 9;
/// Fixed work of the traced and slowed phases (two passes per stream),
/// so their per-layer totals and counts repeat exactly for a seed.
constexpr std::size_t kTracedPasses = 2 * kStreams;
/// Seeded slowdown: a spin after every link-failure report dispatch.
constexpr std::int64_t kSlowdownNs = 1000;

enum SetupLayer : int { kPlan, kStream };

enum Layer : int {
  kFabricBuild,
  kServiceBuild,
  kIngress,
  kDispatchNode,
  kDispatchLink,
  kDispatchProbe,
  kDispatchOperator,
  kDispatchCluster,
  kCluster,
  kSettle,
  kPublish,
  kHealth,
  kCheck,
};

constexpr const char* kDispatchKinds[] = {"node_report", "link_report",
                                          "probe", "operator", "cluster"};

std::vector<std::string> layer_names() {
  std::vector<std::string> names = {"sharebackup.fabric_build",
                                    "service.build", "service.ingress"};
  for (const char* kind : kDispatchKinds) {
    names.push_back(std::string("control.dispatch.") + kind);
  }
  for (const char* n : {"control.cluster", "control.settle", "obs.publish",
                        "obs.health", "bench.check"}) {
    names.emplace_back(n);
  }
  return names;
}

int dispatch_layer(svc::MessageKind kind) {
  switch (kind) {
    case svc::MessageKind::kNodeFailureReport: return kDispatchNode;
    case svc::MessageKind::kLinkFailureReport: return kDispatchLink;
    case svc::MessageKind::kProbeResult: return kDispatchProbe;
    case svc::MessageKind::kOperatorCommand: return kDispatchOperator;
    case svc::MessageKind::kControllerCrash:
    case svc::MessageKind::kControllerRepair: break;
  }
  return kDispatchCluster;
}

struct Stream {
  std::vector<svc::ServiceMessage> messages;
  fi::ReportStreamBreakdown mix;
};

struct Input {
  std::vector<Stream> streams;
  svc::ReplicatedServiceConfig config;
};

/// service_soak's streams and service configuration for
/// --replicas=3 --scenario=primary-crash --slo at k=8, 2 backups.
Input make_input(std::uint64_t seed, Tracer* tracer) {
  Input in;
  for (std::size_t p = 0; p < kStreams; ++p) {
    fi::FaultPlan plan;
    {
      Span span(tracer, kPlan);
      const sharebackup::Fabric shape(sharebackup::FabricParams{
          .fat_tree = {.k = kK}, .backups_per_group = kBackups});
      fi::FaultPlanConfig pcfg;
      pcfg.switch_failures = 60;
      pcfg.link_failures = 90;
      pcfg.bursts = 4;
      pcfg.burst_size = 3;
      pcfg.cluster_scenario = fi::ClusterScenario::kPrimaryCrash;
      pcfg.cluster_members = kReplicas;
      plan = fi::FaultPlan::generate(shape, pcfg, sweep::derive_seed(seed, p));
    }
    Span span(tracer, kStream);
    fi::ReportStreamConfig rcfg;
    rcfg.repeats = 220;
    rcfg.resends = 3;
    rcfg.time_scale = kTimeScale;
    Stream& stream = in.streams.emplace_back();
    stream.messages = fi::build_report_stream(plan, rcfg);
    stream.mix = fi::breakdown(stream.messages);
  }
  in.config.service.ingress.high_water = 160;
  in.config.service.ingress.low_water = 64;
  in.config.service.slo.enabled = true;
  in.config.cluster.members = kReplicas;
  // service_soak scales the cluster timings with the stream.
  in.config.cluster.heartbeat_interval = 0.01 * kTimeScale;
  in.config.cluster.miss_threshold = 3;
  in.config.cluster.election_duration = 0.005 * kTimeScale;
  in.config.audit_limit = 10000;
  return in;
}

/// Host time of one ingress batch (from its start to the next batch's
/// start) and the number of decisions it carried.
struct BatchSample {
  std::int64_t ns;
  std::uint64_t messages;
};

/// Untraced measurement: the host time between consecutive batch
/// starts of one pass, with the size of the batch it charges.
class ClockedService final : public svc::ReplicatedControllerService {
 public:
  ClockedService(sharebackup::Fabric& fabric,
                 const svc::ReplicatedServiceConfig& config,
                 std::vector<BatchSample>* batches)
      : ReplicatedControllerService(fabric, config), batches_(batches) {}

 protected:
  void on_batch_begin(Seconds start) override {
    if (batches_ != nullptr) {
      const std::int64_t t = now_ns();
      // The ingress queue counts a batch as processed before it
      // dispatches it, so the delta is this batch's size.
      const std::uint64_t processed = ingress_stats().processed;
      if (last_start_ != 0) batches_->push_back({t - last_start_, last_size_});
      last_start_ = t;
      last_size_ = processed - last_processed_;
      last_processed_ = processed;
    }
    ReplicatedControllerService::on_batch_begin(start);
  }

 private:
  std::vector<BatchSample>* batches_;
  std::int64_t last_start_ = 0;
  std::uint64_t last_processed_ = 0;
  std::uint64_t last_size_ = 0;
};

/// Percentile p of the host time added to one decision: each batch
/// counts once per message it carried.
double decision_percentile_ns(std::vector<BatchSample>& batches, double p) {
  std::sort(batches.begin(), batches.end(),
            [](const BatchSample& a, const BatchSample& b) {
              return a.ns < b.ns;
            });
  std::uint64_t total = 0;
  for (const BatchSample& b : batches) total += b.messages;
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (const BatchSample& b : batches) {
    seen += b.messages;
    if (static_cast<double>(seen) >= rank) return static_cast<double>(b.ns);
  }
  return batches.empty() ? 0.0 : static_cast<double>(batches.back().ns);
}

/// Traced run: one span around every protected hook, plus the seeded
/// slowdown after each link-failure report dispatch (accumulated into
/// `*injected`).
class TracedService final : public svc::ReplicatedControllerService {
 public:
  TracedService(sharebackup::Fabric& fabric,
                const svc::ReplicatedServiceConfig& config, Tracer* tracer,
                std::int64_t slowdown_ns, std::int64_t* injected)
      : ReplicatedControllerService(fabric, config), tracer_(tracer),
        slowdown_ns_(slowdown_ns), injected_(injected) {}

 protected:
  void on_batch_begin(Seconds start) override {
    Span span(tracer_, kCluster);
    ReplicatedControllerService::on_batch_begin(start);
  }
  void handle_message(const svc::ServiceMessage& msg,
                      Seconds start) override {
    Span span(tracer_, dispatch_layer(msg.kind));
    ReplicatedControllerService::handle_message(msg, start);
    if (slowdown_ns_ > 0 &&
        msg.kind == svc::MessageKind::kLinkFailureReport) {
      *injected_ += spin_ns(slowdown_ns_);
    }
  }
  void final_sweep() override {
    Span span(tracer_, kSettle);
    ReplicatedControllerService::final_sweep();
  }
  void publish_metrics() override {
    Span span(tracer_, kPublish);
    ReplicatedControllerService::publish_metrics();
  }
  void fill_health(obs::slo::HealthSnapshot& snap) const override {
    Span span(tracer_, kHealth);
    ReplicatedControllerService::fill_health(snap);
  }

 private:
  Tracer* tracer_;
  std::int64_t slowdown_ns_;
  std::int64_t* injected_;
};

enum class Feed { kInline, kThreaded };

struct PassResult {
  std::string fingerprint;
  std::int64_t loop_ns = 0;  ///< wall time of the feed (run_inline)
  std::uint64_t processed = 0;
  std::uint64_t batches = 0;
  std::uint64_t shed_probes = 0;
  std::uint64_t failure_reports = 0;  ///< node + link + sick probes
  std::uint64_t ctl_failovers = 0;    ///< summed over replicas
  std::uint64_t ctl_retries = 0;
  svc::ServiceStats stats;
  double p50_ms = 0.0;  ///< virtual decision latency
  double p99_ms = 0.0;
  /// The soak's failover gates: every offered failure report processed,
  /// no headless backlog, every headless window within the bound.
  bool gates_ok = false;
};

using MakeService = std::function<std::unique_ptr<
    svc::ReplicatedControllerService>(sharebackup::Fabric&)>;

/// Feeds the stream through two producer threads (service_soak's
/// threaded path).
void feed_threaded(svc::ControllerService& service,
                   const std::vector<svc::ServiceMessage>& stream) {
  constexpr std::size_t kProducers = 2;
  std::vector<int> ids;
  for (std::size_t p = 0; p < kProducers; ++p) {
    ids.push_back(service.add_producer());
  }
  service.start();
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < stream.size(); i += kProducers) {
        service.submit(ids[p], stream[i]);
      }
      service.finish_producer(ids[p]);
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain_and_stop();
}

/// One pass: a fresh fabric and service with the metrics registry and
/// flight recorder attached the way service_soak attaches them (when
/// `recorder` is given), one stream fed, the fingerprint built the way
/// service_soak builds it.
PassResult run_pass(const Stream& stream, obs::FlightRecorder* recorder,
                    Tracer* tracer, Feed feed, const MakeService& make) {
  std::unique_ptr<sharebackup::Fabric> fabric;
  {
    Span span(tracer, kFabricBuild);
    fabric = std::make_unique<sharebackup::Fabric>(sharebackup::FabricParams{
        .fat_tree = {.k = kK}, .backups_per_group = kBackups});
  }
  obs::MetricsRegistry metrics(/*enabled=*/true);
  std::unique_ptr<svc::ReplicatedControllerService> service;
  {
    Span span(tracer, kServiceBuild);
    service = make(*fabric);
    if (recorder != nullptr) {
      recorder->clear();
      for (std::size_t i = 0; i < service->replica_count(); ++i) {
        service->replica(i).attach_metrics(&metrics);
        service->replica(i).attach_recorder(recorder);
      }
      service->attach_metrics(&metrics);
      service->attach_recorder(recorder);
    }
  }
  PassResult r;
  const std::int64_t t0 = now_ns();
  if (feed == Feed::kThreaded) {
    feed_threaded(*service, stream.messages);
  } else {
    Span span(tracer, kIngress);
    service->run_inline(stream.messages);
  }
  r.loop_ns = now_ns() - t0;

  Span span(tracer, kCheck);
  r.stats = service->stats();
  const svc::IngressStats& ingress = service->ingress_stats();
  r.processed = ingress.processed;
  r.batches = ingress.batches;
  r.shed_probes = ingress.shed_probes;
  r.failure_reports =
      r.stats.node_reports + r.stats.link_reports + r.stats.sick_probes;
  r.gates_ok = r.stats.node_reports + r.stats.link_reports ==
                   static_cast<std::uint64_t>(stream.mix.failure_reports) &&
               service->headless_backlog() == 0 &&
               r.stats.max_headless_window <=
                   service->election_bound() + 1e-12;
  r.p50_ms = service->decision_latency().percentile(50.0) * 1e3;
  r.p99_ms = service->decision_latency().percentile(99.0) * 1e3;
  std::ostringstream fp;
  fp << service->fingerprint() << ";acting=" << service->acting_member()
     << ";term=" << service->cluster().term();
  for (std::size_t i = 0; i < service->replica_count(); ++i) {
    const control::ControllerStats& ctl = service->replica(i).stats();
    r.ctl_failovers += ctl.failovers;
    r.ctl_retries += ctl.retries;
    fp << ";r" << i << ":seen=" << service->reports_seen(i)
       << ",failovers=" << ctl.failovers
       << ",node=" << ctl.node_failures_handled
       << ",link=" << ctl.link_failures_handled
       << ",diag=" << ctl.diagnoses_run
       << ",exon=" << ctl.switches_exonerated
       << ",faulty=" << ctl.switches_confirmed_faulty
       << ",wd=" << ctl.watchdog_trips << ",retries=" << ctl.retries
       << ",doa=" << ctl.doa_backups << ",degraded=" << ctl.degraded_reroutes
       << ",requeued=" << ctl.requeued
       << ",pool_exhausted=" << ctl.recoveries_failed_pool_exhausted;
  }
  r.fingerprint = fp.str();
  return r;
}

/// A fixed number of traced passes, with the explanatory counters summed
/// over them.
struct ServicePhase : TracedPhase {
  ServicePhase() : TracedPhase(layer_names()) {}
  std::int64_t inline_ns = 0;
  std::uint64_t processed = 0;
  std::uint64_t batches = 0;
  std::uint64_t shed_probes = 0;
  std::uint64_t failure_reports = 0;
  std::uint64_t stale_reports = 0;
  std::uint64_t replayed_reports = 0;
  std::uint64_t ctl_failovers = 0;
  std::uint64_t ctl_retries = 0;
};

}  // namespace

Outcome run_service_torrent(const Options& opt) {
  Outcome out;
  obs::FlightRecorder recorder(/*enabled=*/true);
  // Each stream's first pass fixes the fingerprint its later passes and
  // the 2-producer pass must reproduce.
  std::vector<PassResult> first(kStreams);
  auto check_pass = [&](std::size_t p, const PassResult& r,
                        const std::string& what) {
    if (first[p].fingerprint.empty()) first[p] = r;
    std::string why;
    if (r.fingerprint != first[p].fingerprint) why += " fingerprint differs;";
    if (!r.gates_ok) why += " failover gate;";
    out.check(why.empty(), what + " (stream " + std::to_string(p) + ")" + why);
  };

  // Set-up, repeated: the plans and streams plus one untimed warm-up
  // pass (stream 0).
  Input in;
  std::vector<double> setup_s;
  Tracer setup_tracer({"faultinject.plan", "faultinject.stream"});
  PassResult warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const bool last = rep + 1 == kSetupRepeats;
    if (last) setup_tracer.begin_item(0);
    in = Input{};  // so one set of streams is alive at a time
    const std::int64_t t0 = now_ns();
    in = make_input(opt.seed, last ? &setup_tracer : nullptr);
    warmup = run_pass(in.streams[0], &recorder, nullptr, Feed::kInline,
                      [&](sharebackup::Fabric& f) {
                        return std::make_unique<ClockedService>(
                            f, in.config, nullptr);
                      });
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const fi::ReportStreamBreakdown& mix = in.streams[0].mix;
  std::cout << "service-torrent: " << kStreams << " streams; stream 0 has "
            << mix.total << " messages (" << mix.failure_reports
            << " failure reports, " << mix.probe_results << " probes, "
            << mix.operator_commands << " operator commands, "
            << mix.cluster_events << " cluster events); k=" << kK << ", "
            << kReplicas << " replicas\n";
  check_pass(0, warmup, "warm-up pass");

  // Timed phase: whole passes, cycling through the streams, until the
  // budget is spent. A decision's host-time percentiles are taken per
  // pass and reported as their median over passes, so a pass that
  // shares the machine with a burst of other work does not set them.
  std::vector<BatchSample> batches;
  std::vector<double> pass_p50, pass_p90, pass_p99;
  std::uint64_t decisions = 0;
  std::vector<double> pass_tp;
  std::int64_t loop_ns = 0;
  std::uint64_t processed = 0;
  std::size_t passes = 0;
  const MakeService clocked = [&](sharebackup::Fabric& f) {
    return std::make_unique<ClockedService>(f, in.config, &batches);
  };
  const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  while (now_ns() - start < budget) {
    const std::size_t p = passes % kStreams;
    batches.clear();
    const PassResult r =
        run_pass(in.streams[p], &recorder, nullptr, Feed::kInline, clocked);
    for (const BatchSample& b : batches) decisions += b.messages;
    pass_p50.push_back(decision_percentile_ns(batches, 50.0));
    pass_p90.push_back(decision_percentile_ns(batches, 90.0));
    pass_p99.push_back(decision_percentile_ns(batches, 99.0));
    loop_ns += r.loop_ns;
    processed += r.processed;
    pass_tp.push_back(static_cast<double>(r.processed) /
                      (static_cast<double>(r.loop_ns) / 1e9));
    ++passes;
    check_pass(p, r, "timed pass " + std::to_string(passes));
  }
  const double throughput =
      static_cast<double>(processed) / (static_cast<double>(loop_ns) / 1e9);

  // One pass fed by two producer threads reproduces the inline passes.
  check_pass(0,
             run_pass(in.streams[0], nullptr, nullptr, Feed::kThreaded,
                      [&](sharebackup::Fabric& f) {
                        return std::make_unique<
                            svc::ReplicatedControllerService>(f, in.config);
                      }),
             "2-producer pass");

  std::vector<double> virtual_p50, virtual_p99;
  for (const PassResult& r : first) {
    if (r.fingerprint.empty()) continue;
    virtual_p50.push_back(r.p50_ms);
    virtual_p99.push_back(r.p99_ms);
  }
  std::printf("timed: %zu passes, %llu messages, %.6f s in run_inline, "
              "%.1f msgs/s (per pass q1 %.1f, median %.1f, q3 %.1f); "
              "host time added to a decision by its batch, median over "
              "passes of the per-pass percentile (%llu decisions, ~%llu per "
              "pass): p50 %.1f ns, p90 %.1f ns, p99 %.1f ns; virtual "
              "decision latency, median over streams: p50 %.6f ms, p99 "
              "%.6f ms\n",
              passes, static_cast<unsigned long long>(processed),
              static_cast<double>(loop_ns) / 1e9, throughput,
              percentile(pass_tp, 25.0), percentile(pass_tp, 50.0),
              percentile(pass_tp, 75.0),
              static_cast<unsigned long long>(decisions),
              static_cast<unsigned long long>(decisions / passes),
              median(pass_p50), median(pass_p90), median(pass_p99),
              median(virtual_p50),
              median(virtual_p99));

  if (!opt.trace) {
    out.add("throughput_per_s", throughput, "1/s");
    out.add("step_p50_ms", median(pass_p50) / 1e6, "ms");
    out.add("step_tail_ms", median(pass_p90) / 1e6, "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", util::peak_rss_mb(), "MB");
    return out;
  }

  // Traced phase over a fixed number of passes, and the same passes with
  // the seeded slowdown, interleaved pass by pass so that both phases
  // share whatever else the host is doing.
  auto run_item = [&](ServicePhase& ph, std::size_t i,
                      std::int64_t slowdown_ns, const char* name) {
    const MakeService traced = [&](sharebackup::Fabric& f) {
      return std::make_unique<TracedService>(f, in.config, &ph.tracer,
                                             slowdown_ns, &ph.injected_ns);
    };
    const std::size_t p = i % kStreams;
    const std::int64_t t0 = now_ns();
    ph.tracer.begin_item(i);
    const PassResult r = run_pass(in.streams[p], &recorder, &ph.tracer,
                                  Feed::kInline, traced);
    ph.wall_ns += now_ns() - t0;
    ph.inline_ns += r.loop_ns;
    ph.processed += r.processed;
    ph.batches += r.batches;
    ph.shed_probes += r.shed_probes;
    ph.failure_reports += r.failure_reports;
    ph.stale_reports += r.stats.stale_reports;
    ph.replayed_reports += r.stats.replayed_reports;
    ph.ctl_failovers += r.ctl_failovers;
    ph.ctl_retries += r.ctl_retries;
    check_pass(p, r, std::string(name) + " pass " + std::to_string(i));
  };
  ServicePhase clean;
  ServicePhase slowed;
  for (std::size_t i = 0; i < kTracedPasses; ++i) {
    run_item(clean, i, 0, "traced");
    run_item(slowed, i, kSlowdownNs, "slowed");
  }

  const double traced_throughput =
      static_cast<double>(clean.processed) /
      (static_cast<double>(clean.inline_ns) / 1e9);
  report_trace(out, opt, &setup_tracer, clean, slowed, kDispatchLink,
               throughput, traced_throughput);

  const Tracer& t = clean.tracer;
  out.add("faultinject.plan_s", setup_tracer.self_s(kPlan), "s");
  out.add("faultinject.stream_s", setup_tracer.self_s(kStream), "s");
  out.add("sharebackup.fabric_build_s", t.self_s(kFabricBuild), "s");
  out.add("service.build_s", t.self_s(kServiceBuild), "s");
  double dispatch_s = 0.0;
  for (int l = kDispatchNode; l <= kDispatchCluster; ++l) {
    const Tracer::LayerTotals lt = t.totals(l);
    dispatch_s += static_cast<double>(lt.self_ns) / 1e9;
    const std::string kind = kDispatchKinds[l - kDispatchNode];
    out.add("control.dispatch_count." + kind, static_cast<double>(lt.count),
            "count");
    out.add("control.dispatch_ns." + kind, static_cast<double>(lt.self_ns),
            "ns");
  }
  out.add("control.dispatch_s", dispatch_s, "s");
  out.add("control.cluster_s", t.self_s(kCluster), "s");
  out.add("control.settle_s", t.self_s(kSettle), "s");
  out.add("obs.publish_s", t.self_s(kPublish), "s");
  out.add("obs.health_s", t.self_s(kHealth), "s");
  out.add("service.ingress_self_s", t.self_s(kIngress), "s");
  out.add("bench.check_s", t.self_s(kCheck), "s");
  out.add("service.batches", static_cast<double>(clean.batches), "count");
  out.add("service.stale_frac",
          clean.failure_reports == 0
              ? 0.0
              : static_cast<double>(clean.stale_reports) /
                    static_cast<double>(clean.failure_reports),
          "frac");
  out.add("service.replayed_reports",
          static_cast<double>(clean.replayed_reports), "count");
  out.add("service.shed_probes", static_cast<double>(clean.shed_probes),
          "count");
  out.add("control.failovers", static_cast<double>(clean.ctl_failovers),
          "count");
  out.add("control.retries", static_cast<double>(clean.ctl_retries),
          "count");
  out.add("service.virtual_decision_p50_ms", median(virtual_p50), "ms");
  out.add("service.virtual_decision_p99_ms", median(virtual_p99), "ms");
  return out;
}

}  // namespace sbk::perfbench
