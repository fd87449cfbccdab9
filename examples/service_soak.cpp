// Sustained-churn soak for the always-on controller service (paper
// §4.1-4.2, §5.3): replays a FaultPlan-derived report stream — hundreds of
// thousands of failure reports, probe results, and operator commands —
// through the ControllerService and measures what the paper's
// sub-millisecond claim looks like under saturation.
//
//   service_soak [--threads=N] [--seed=S] [--k=K] [--backups=N]
//                [--repeats=N] [--resends=N] [--time-scale=X] [--pace=X]
//                [--replicas=N] [--scenario=NAME]
//                [--min-reports=N] [--min-throughput=X] [--max-p99-ms=X]
//                [--max-rss-mb=X] [--verify-threads] [--json=FILE]
//                [--trace=FILE] [--metrics=FILE]
//                [--slo] [--health=FILE]
//
// Knobs:
//   --threads      producer threads feeding the service (0 = inline,
//                  single-threaded; default 4)
//   --replicas     controller replicas behind the service (0 = classic
//                  single-controller service, the default; >= 1 runs the
//                  ReplicatedControllerService with live failover)
//   --scenario     scripted controller-cluster chaos woven into the
//                  stream: none | primary-crash | crash-during-election |
//                  total-death (requires --replicas >= 1)
//   --time-scale   virtual-time compression of the stream (the
//                  saturation knob; smaller = higher arrival rate
//                  against the service's fixed virtual service rate)
//   --pace         wall-clock pacing in virtual-seconds-per-wall-second
//                  (0 = replay flat out; this knob never changes
//                  virtual-time outcomes, only the wall-clock feed rate)
//   --verify-threads  re-runs the soak with inline/1/4/8 producer
//                  threads and fails unless all fingerprints (service,
//                  controllers, SLO alert timeline, health-snapshot log)
//                  are bit-identical
//   --slo          turns on the live SLO engine (streaming latency
//                  histograms, burn-rate alerting, periodic health
//                  snapshots) and three alerting gates: zero burn alerts
//                  in a healthy run (--scenario=none or single-
//                  controller), an availability breach within one SLO
//                  window of every scripted controller crash, and every
//                  breach cleared by the drain
//   --health=FILE  writes the final health snapshot in Prometheus text
//                  exposition format (implies --slo)
//
// Gates (exit 1 on violation): --min-reports on processed failure
// reports (default 100000), --min-throughput on wall msgs/s,
// --max-p99-ms on virtual p99 decision latency, --max-rss-mb on peak
// RSS. With --replicas >= 1 three failover gates are always on: every
// offered failure report processed (nothing lost across failovers), an
// empty headless backlog after the drain, and every bounded headless
// window within the cluster's election bound. A JSON summary goes to
// stdout (and --json=FILE).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "service/controller_service.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rss.hpp"

namespace {

namespace fi = sbk::faultinject;
namespace svc = sbk::service;

int usage(const std::string& error) {
  if (!error.empty()) {
    std::fprintf(stderr, "service_soak: %s\n", error.c_str());
  }
  std::fprintf(
      stderr,
      "usage: service_soak [--threads=N] [--seed=S] [--k=K] [--backups=N]\n"
      "                    [--repeats=N] [--resends=N] [--time-scale=X]\n"
      "                    [--pace=X] [--replicas=N] [--scenario=NAME]\n"
      "                    [--min-reports=N]\n"
      "                    [--min-throughput=X] [--max-p99-ms=X]\n"
      "                    [--max-rss-mb=X] [--verify-threads]\n"
      "                    [--json=FILE] [--trace=FILE] [--metrics=FILE]\n"
      "                    [--slo] [--health=FILE]\n"
      "  scenarios: none | primary-crash | crash-during-election |\n"
      "             total-death\n");
  return 2;
}

std::optional<fi::ClusterScenario> parse_scenario(const std::string& name) {
  if (name == "none") return fi::ClusterScenario::kNone;
  if (name == "primary-crash") return fi::ClusterScenario::kPrimaryCrash;
  if (name == "crash-during-election") {
    return fi::ClusterScenario::kCrashDuringElection;
  }
  if (name == "total-death") return fi::ClusterScenario::kTotalDeath;
  return std::nullopt;
}

struct PassResult {
  /// Service + controller deterministic outputs, one line.
  std::string fingerprint;
  double wall_seconds = 0.0;
  double throughput = 0.0;  ///< processed messages per wall second
  double p50_ms = 0.0;      ///< virtual decision latency, milliseconds
  double p99_ms = 0.0;
  svc::ServiceStats stats;
  svc::IngressStats ingress;
  sbk::control::ControllerStats ctl;
  std::size_t headless_backlog = 0;  ///< replicated mode only
  double election_bound = 0.0;       ///< virtual s; 0 in single mode
  // SLO engine outputs (populated only with --slo).
  std::vector<sbk::obs::slo::SloAlert> alerts;
  std::uint64_t slo_breaches = 0;
  std::uint64_t slo_clears = 0;
  bool slo_still_breached = false;
  double availability_attainment = 1.0;
  double loss_attainment = 1.0;
  std::size_t health_snapshots = 0;
  std::string health_prom;  ///< final snapshot, Prometheus exposition
};

/// Feeds the whole stream through the service (inline or via N producer
/// threads, optionally wall-clock paced) and drains it.
void feed(svc::ControllerService& service,
          const std::vector<svc::ServiceMessage>& stream, int threads,
          double pace) {
  if (threads <= 0) {
    service.run_inline(stream);
  } else {
    std::vector<int> producer_ids;
    producer_ids.reserve(static_cast<std::size_t>(threads));
    for (int p = 0; p < threads; ++p) {
      producer_ids.push_back(service.add_producer());
    }
    service.start();
    const sbk::Seconds first_at = stream.empty() ? 0.0 : stream.front().at;
    std::vector<std::thread> producers;
    producers.reserve(static_cast<std::size_t>(threads));
    for (int p = 0; p < threads; ++p) {
      producers.emplace_back([&, p] {
        const auto wall0 = std::chrono::steady_clock::now();
        for (std::size_t i = static_cast<std::size_t>(p); i < stream.size();
             i += static_cast<std::size_t>(threads)) {
          if (pace > 0.0) {
            const double wall_offset = (stream[i].at - first_at) / pace;
            std::this_thread::sleep_until(
                wall0 + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(wall_offset)));
          }
          service.submit(producer_ids[static_cast<std::size_t>(p)],
                         stream[i]);
        }
        service.finish_producer(producer_ids[static_cast<std::size_t>(p)]);
      });
    }
    for (std::thread& t : producers) t.join();
    service.drain_and_stop();
  }
}

/// Renders a controller's deterministic counters for the fingerprint.
void append_ctl(std::ostringstream& fp,
                const sbk::control::ControllerStats& ctl) {
  fp << "failovers=" << ctl.failovers << ",node=" << ctl.node_failures_handled
     << ",link=" << ctl.link_failures_handled << ",diag=" << ctl.diagnoses_run
     << ",exon=" << ctl.switches_exonerated
     << ",faulty=" << ctl.switches_confirmed_faulty
     << ",wd=" << ctl.watchdog_trips << ",retries=" << ctl.retries
     << ",doa=" << ctl.doa_backups << ",degraded=" << ctl.degraded_reroutes
     << ",requeued=" << ctl.requeued
     << ",pool_exhausted=" << ctl.recoveries_failed_pool_exhausted;
}

/// One full service lifecycle against a fresh fabric. `replicas == 0`
/// runs the classic single-controller service; `replicas >= 1` runs the
/// replicated service with live cluster failover.
PassResult run_pass(const std::vector<svc::ServiceMessage>& stream, int k,
                    int backups, int threads, double pace,
                    const svc::ServiceConfig& scfg, int replicas,
                    double time_scale, sbk::obs::MetricsRegistry* metrics,
                    sbk::obs::FlightRecorder* recorder) {
  sbk::sharebackup::Fabric fabric(sbk::sharebackup::FabricParams{
      .fat_tree = {.k = k}, .backups_per_group = backups});
  PassResult r;
  auto collect = [&r, &scfg](svc::ControllerService& service) {
    r.stats = service.stats();
    r.ingress = service.ingress_stats();
    r.wall_seconds = r.stats.wall_seconds;
    r.throughput = r.wall_seconds > 0.0
                       ? static_cast<double>(r.ingress.processed) /
                             r.wall_seconds
                       : 0.0;
    if (!service.decision_latency().empty()) {
      r.p50_ms = service.decision_latency().percentile(50.0) * 1e3;
      r.p99_ms = service.decision_latency().percentile(99.0) * 1e3;
    }
    if (scfg.slo.enabled) {
      const sbk::obs::slo::SloMonitor& mon = service.slo_monitor();
      r.alerts = mon.alerts();
      for (std::size_t i = 0; i < mon.objective_count(); ++i) {
        r.slo_breaches += mon.breach_count(i);
        r.slo_clears += mon.clear_count(i);
        r.slo_still_breached = r.slo_still_breached || mon.breached(i);
      }
      r.availability_attainment =
          mon.attainment(svc::ControllerService::kSloAvailability);
      r.loss_attainment = mon.attainment(svc::ControllerService::kSloLoss);
      r.health_snapshots = service.health_log().size();
      std::ostringstream prom;
      service.write_health_prometheus(prom);
      r.health_prom = prom.str();
    }
  };

  if (replicas >= 1) {
    svc::ReplicatedServiceConfig rcfg;
    rcfg.service = scfg;
    rcfg.cluster.members = static_cast<std::size_t>(replicas);
    // Cluster timings scale with the stream so the detection + election
    // window is the same fraction of the soak at every --time-scale:
    // plan-time heartbeat 10 ms / miss 3 / election 5 ms gives an
    // election bound of 45 ms plan-time — exactly the FaultPlanConfig
    // cluster_election_bound default the scripted scenarios aim inside.
    rcfg.cluster.heartbeat_interval = 0.01 * time_scale;
    rcfg.cluster.miss_threshold = 3;
    rcfg.cluster.election_duration = 0.005 * time_scale;
    // Always-on service: the audit trail must not grow without bound.
    rcfg.audit_limit = 10000;
    svc::ReplicatedControllerService service(fabric, rcfg);
    for (std::size_t i = 0; i < service.replica_count(); ++i) {
      service.replica(i).attach_metrics(metrics);
      service.replica(i).attach_recorder(recorder);
    }
    service.attach_metrics(metrics);
    service.attach_recorder(recorder);
    feed(service, stream, threads, pace);
    collect(service);
    r.ctl = service.replica(service.acting_member()).stats();
    r.headless_backlog = service.headless_backlog();
    r.election_bound = service.election_bound();
    // Fingerprint covers the service plus every replica — thread-count
    // identity must hold across the whole cluster, not just the final
    // primary.
    std::ostringstream fp;
    fp << service.fingerprint() << ";acting=" << service.acting_member()
       << ";term=" << service.cluster().term();
    for (std::size_t i = 0; i < service.replica_count(); ++i) {
      fp << ";r" << i << ":seen=" << service.reports_seen(i) << ",";
      append_ctl(fp, service.replica(i).stats());
    }
    r.fingerprint = fp.str();
    return r;
  }

  sbk::control::Controller controller(fabric, sbk::control::ControllerConfig{});
  // Always-on service: the audit trail must not grow without bound.
  controller.set_audit_limit(10000);
  controller.attach_metrics(metrics);
  controller.attach_recorder(recorder);
  svc::ControllerService service(fabric, controller, scfg);
  service.attach_metrics(metrics);
  service.attach_recorder(recorder);
  feed(service, stream, threads, pace);
  collect(service);
  r.ctl = controller.stats();
  // Fingerprint covers both the service's and the controller's
  // deterministic outputs — thread-count identity must hold end to end.
  std::ostringstream fp;
  fp << service.fingerprint() << ";ctl:";
  append_ctl(fp, r.ctl);
  r.fingerprint = fp.str();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const sbk::cli::ParseResult args = sbk::cli::parse_args(
      argc, argv,
      {{"threads", true},
       {"seed", true},
       {"k", true},
       {"backups", true},
       {"repeats", true},
       {"resends", true},
       {"time-scale", true},
       {"pace", true},
       {"replicas", true},
       {"scenario", true},
       {"min-reports", true},
       {"min-throughput", true},
       {"max-p99-ms", true},
       {"max-rss-mb", true},
       {"verify-threads", false},
       {"json", true},
       {"trace", true},
       {"metrics", true},
       {"slo", false},
       {"health", true}},
      /*max_positional=*/0);
  if (!args.ok()) return usage(args.error);

  auto int_flag = [&args](const char* name, long long fallback)
      -> std::optional<long long> {
    const auto text = args.value_of(name);
    if (!text) return fallback;
    return sbk::cli::parse_int(*text);
  };
  auto double_flag = [&args](const char* name, double fallback)
      -> std::optional<double> {
    const auto text = args.value_of(name);
    if (!text) return fallback;
    return sbk::cli::parse_double(*text);
  };
  const auto threads = int_flag("threads", 4);
  const auto seed = int_flag("seed", 1);
  const auto k = int_flag("k", 8);
  const auto backups = int_flag("backups", 2);
  const auto repeats = int_flag("repeats", 220);
  const auto resends = int_flag("resends", 3);
  const auto time_scale = double_flag("time-scale", 0.02);
  const auto pace = double_flag("pace", 0.0);
  const auto replicas = int_flag("replicas", 0);
  const auto min_reports = int_flag("min-reports", 100000);
  const auto min_throughput = double_flag("min-throughput", 0.0);
  const auto max_p99_ms = double_flag("max-p99-ms", 0.0);
  const auto max_rss_mb = double_flag("max-rss-mb", 0.0);
  if (!threads || !seed || !k || !backups || !repeats || !resends ||
      !time_scale || !pace || !replicas || !min_reports || !min_throughput ||
      !max_p99_ms || !max_rss_mb) {
    return usage("flag values must be numeric");
  }
  if (*k < 4 || *k % 2 != 0) return usage("--k must be even and >= 4");
  if (*threads < 0 || *repeats < 1 || *resends < 1 || *time_scale <= 0.0) {
    return usage("--threads >= 0, --repeats/--resends >= 1, "
                 "--time-scale > 0");
  }
  if (*replicas < 0) return usage("--replicas must be >= 0");
  const std::string scenario_name =
      std::string{args.value_of("scenario").value_or("none")};
  const auto scenario = parse_scenario(scenario_name);
  if (!scenario) return usage("unknown --scenario " + scenario_name);
  if (*scenario != fi::ClusterScenario::kNone && *replicas < 1) {
    return usage("--scenario=" + scenario_name + " requires --replicas >= 1");
  }

  // A denser-than-default plan: the soak wants a report torrent, not the
  // chaos soak's sparse trickle.
  sbk::sharebackup::Fabric shape_fabric(sbk::sharebackup::FabricParams{
      .fat_tree = {.k = static_cast<int>(*k)},
      .backups_per_group = static_cast<int>(*backups)});
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 60;
  pcfg.link_failures = 90;
  pcfg.bursts = 4;
  pcfg.burst_size = 3;
  pcfg.cluster_scenario = *scenario;
  if (*replicas >= 1) {
    pcfg.cluster_members = static_cast<std::size_t>(*replicas);
  }
  const fi::FaultPlan plan = fi::FaultPlan::generate(
      shape_fabric, pcfg, static_cast<std::uint64_t>(*seed));

  fi::ReportStreamConfig rcfg;
  rcfg.repeats = static_cast<int>(*repeats);
  rcfg.resends = static_cast<int>(*resends);
  rcfg.time_scale = *time_scale;
  const std::vector<svc::ServiceMessage> stream =
      fi::build_report_stream(plan, rcfg);
  const fi::ReportStreamBreakdown mix = fi::breakdown(stream);

  std::cout << "service_soak: " << mix.total << " messages ("
            << mix.failure_reports << " failure reports, "
            << mix.probe_results << " probes, " << mix.operator_commands
            << " operator commands, " << mix.cluster_events
            << " cluster events) over " << mix.span
            << " virtual s, threads=" << *threads;
  if (*replicas >= 1) {
    std::cout << ", replicas=" << *replicas << ", scenario="
              << scenario_name;
  }
  std::cout << "\n";

  // A 100k-report soak trips the watchdog hundreds of times by design;
  // keep its per-trip WARN lines out of the soak output.
  sbk::Log::set_level(sbk::LogLevel::kError);

  svc::ServiceConfig scfg;
  // Watermarks sized to the burst shape rather than the hard bound:
  // injection-window bursts push queue depth past ~200, so backpressure
  // (and healthy-probe shedding) exercises every repeat while the
  // 4096-deep queue still accepts every failure report (zero overflow
  // at the default time scale).
  scfg.ingress.high_water = 160;
  scfg.ingress.low_water = 64;
  const bool slo = args.has("slo") || args.has("health");
  scfg.slo.enabled = slo;
  sbk::obs::MetricsRegistry metrics(/*enabled=*/true);
  sbk::obs::FlightRecorder recorder(/*enabled=*/true);
  const PassResult r =
      run_pass(stream, static_cast<int>(*k), static_cast<int>(*backups),
               static_cast<int>(*threads), *pace, scfg,
               static_cast<int>(*replicas), *time_scale, &metrics, &recorder);
  const double rss_mb = sbk::util::peak_rss_mb();

  const std::uint64_t failure_reports_processed =
      r.stats.node_reports + r.stats.link_reports;
  bool verify_ok = true;
  if (args.has("verify-threads")) {
    for (int alt : {0, 1, 4, 8}) {
      if (alt == *threads) continue;
      const PassResult v =
          run_pass(stream, static_cast<int>(*k), static_cast<int>(*backups),
                   alt, /*pace=*/0.0, scfg, static_cast<int>(*replicas),
                   *time_scale, nullptr, nullptr);
      const bool same = v.fingerprint == r.fingerprint;
      std::cout << "  verify threads=" << alt << (alt == 0 ? " (inline)" : "")
                << ": " << (same ? "identical" : "MISMATCH") << "\n";
      if (!same) {
        std::cout << "    primary: " << r.fingerprint << "\n    alt:     "
                  << v.fingerprint << "\n";
        verify_ok = false;
      }
    }
  }

  const bool reports_ok =
      failure_reports_processed >= static_cast<std::uint64_t>(*min_reports);
  const bool throughput_ok =
      *min_throughput <= 0.0 || r.throughput >= *min_throughput;
  const bool p99_ok = *max_p99_ms <= 0.0 || r.p99_ms <= *max_p99_ms;
  const bool rss_ok = *max_rss_mb <= 0.0 || rss_mb <= *max_rss_mb;
  // Failover gates (replicated mode): every offered failure report was
  // processed by some primary (none lost to a crash), nothing is still
  // waiting in the headless buffer, and every bounded headless window
  // stayed inside the cluster's election bound.
  const bool lost_ok =
      *replicas < 1 ||
      failure_reports_processed ==
          static_cast<std::uint64_t>(mix.failure_reports);
  const bool backlog_ok = *replicas < 1 || r.headless_backlog == 0;
  const bool headless_ok =
      *replicas < 1 || r.stats.max_headless_window <= r.election_bound + 1e-12;

  // SLO alerting gates (--slo). Quiet: a run whose cluster never loses
  // a member (single-controller mode, or no crash in the stream) must
  // raise zero burn alerts. Detect: every scripted controller crash
  // must be answered by an availability breach within one SLO window of
  // the crash, or land inside a breach episode that is already open.
  // Clear: every breach must have cleared by the drain.
  bool slo_quiet_ok = true, slo_detect_ok = true, slo_clear_ok = true;
  if (slo) {
    std::vector<sbk::Seconds> crash_times;
    for (const svc::ServiceMessage& msg : stream) {
      if (msg.kind == svc::MessageKind::kControllerCrash) {
        crash_times.push_back(msg.at);
      }
    }
    if (*replicas < 1 || crash_times.empty()) {
      slo_quiet_ok = r.slo_breaches == 0;
    }
    if (*replicas >= 1 && *scenario != fi::ClusterScenario::kNone) {
      std::vector<std::pair<sbk::Seconds, bool>> avail;
      for (const sbk::obs::slo::SloAlert& a : r.alerts) {
        if (a.objective == svc::ControllerService::kSloAvailability) {
          avail.emplace_back(a.at, a.breach);
        }
      }
      for (const sbk::Seconds t : crash_times) {
        bool open = false, detected = false;
        for (const auto& [at, breach] : avail) {
          if (at <= t) {
            open = breach;
            continue;
          }
          if (at > t + svc::ControllerService::kSloWindow) break;
          if (breach) detected = true;
        }
        if (!open && !detected) slo_detect_ok = false;
      }
    }
    slo_clear_ok =
        !r.slo_still_breached && r.slo_clears == r.slo_breaches;
  }

  const bool pass = reports_ok && throughput_ok && p99_ok && rss_ok &&
                    verify_ok && lost_ok && backlog_ok && headless_ok &&
                    slo_quiet_ok && slo_detect_ok && slo_clear_ok;

  std::ostringstream json;
  json << "{\"messages\":" << mix.total
       << ",\"failure_reports_offered\":" << mix.failure_reports
       << ",\"failure_reports_processed\":" << failure_reports_processed
       << ",\"accepted\":" << r.ingress.accepted
       << ",\"processed\":" << r.ingress.processed
       << ",\"dropped_overflow\":" << r.ingress.dropped_overflow
       << ",\"shed_probes\":" << r.ingress.shed_probes
       << ",\"batches\":" << r.ingress.batches
       << ",\"peak_queue_depth\":" << r.ingress.peak_depth
       << ",\"max_batch\":" << r.ingress.max_batch_seen
       << ",\"backpressure_engaged\":" << r.ingress.backpressure_engaged
       << ",\"failovers\":" << r.ctl.failovers
       << ",\"degraded\":" << r.ctl.degraded_reroutes
       << ",\"watchdog_trips\":" << r.ctl.watchdog_trips
       << ",\"replicas\":" << *replicas
       << ",\"scenario\":\"" << scenario_name << "\""
       << ",\"cluster_events\":" << r.stats.cluster_events
       << ",\"leader_failovers\":" << r.stats.failovers
       << ",\"stale_rejections\":" << r.stats.stale_rejections
       << ",\"replayed_reports\":" << r.stats.replayed_reports
       << ",\"total_death_windows\":" << r.stats.total_death_windows
       << ",\"headless_seconds\":" << r.stats.headless_seconds
       << ",\"max_headless_window_s\":" << r.stats.max_headless_window
       << ",\"election_bound_s\":" << r.election_bound
       << ",\"headless_backlog\":" << r.headless_backlog
       << ",\"wall_seconds\":" << r.wall_seconds
       << ",\"throughput_msgs_per_s\":" << r.throughput
       << ",\"decision_latency_p50_ms\":" << r.p50_ms
       << ",\"decision_latency_p99_ms\":" << r.p99_ms
       << ",\"peak_rss_mb\":" << rss_mb
       << ",\"slo\":" << (slo ? "true" : "false")
       << ",\"slo_breaches\":" << r.slo_breaches
       << ",\"slo_clears\":" << r.slo_clears
       << ",\"slo_availability_attainment\":" << r.availability_attainment
       << ",\"slo_loss_attainment\":" << r.loss_attainment
       << ",\"health_snapshots\":" << r.health_snapshots
       << ",\"reports_ok\":" << (reports_ok ? "true" : "false")
       << ",\"throughput_ok\":" << (throughput_ok ? "true" : "false")
       << ",\"p99_ok\":" << (p99_ok ? "true" : "false")
       << ",\"rss_ok\":" << (rss_ok ? "true" : "false")
       << ",\"verify_ok\":" << (verify_ok ? "true" : "false")
       << ",\"lost_ok\":" << (lost_ok ? "true" : "false")
       << ",\"backlog_ok\":" << (backlog_ok ? "true" : "false")
       << ",\"headless_ok\":" << (headless_ok ? "true" : "false")
       << ",\"slo_quiet_ok\":" << (slo_quiet_ok ? "true" : "false")
       << ",\"slo_detect_ok\":" << (slo_detect_ok ? "true" : "false")
       << ",\"slo_clear_ok\":" << (slo_clear_ok ? "true" : "false")
       << ",\"pass\":" << (pass ? "true" : "false") << "}";
  std::cout << json.str() << "\n";

  if (const auto path = args.value_of("json")) {
    std::ofstream out(std::string{*path});
    out << json.str() << "\n";
    if (!out.good()) {
      std::cerr << "failed to write " << *path << "\n";
      return 2;
    }
  }
  if (const auto path = args.value_of("trace")) {
    std::ofstream out(std::string{*path});
    recorder.write_trace_json(out);
    if (!out.good()) {
      std::cerr << "failed to write " << *path << "\n";
      return 2;
    }
    std::cout << "wrote " << recorder.size() << " trace events to " << *path
              << "\n";
  }
  if (const auto path = args.value_of("metrics")) {
    std::ofstream out(std::string{*path});
    metrics.write_json(out);
    if (!out.good()) {
      std::cerr << "failed to write " << *path << "\n";
      return 2;
    }
  }
  if (const auto path = args.value_of("health")) {
    std::ofstream out(std::string{*path});
    out << r.health_prom;
    if (!out.good()) {
      std::cerr << "failed to write " << *path << "\n";
      return 2;
    }
    std::cout << "wrote final health snapshot (" << r.health_snapshots
              << " taken) to " << *path << "\n";
  }
  if (!pass) {
    std::fprintf(stderr, "service_soak: GATE FAILED%s%s%s%s%s%s%s%s%s%s%s\n",
                 reports_ok ? "" : " [min-reports]",
                 throughput_ok ? "" : " [min-throughput]",
                 p99_ok ? "" : " [max-p99-ms]", rss_ok ? "" : " [max-rss-mb]",
                 verify_ok ? "" : " [verify-threads]",
                 lost_ok ? "" : " [failover-lost-reports]",
                 backlog_ok ? "" : " [failover-headless-backlog]",
                 headless_ok ? "" : " [failover-headless-bound]",
                 slo_quiet_ok ? "" : " [slo-false-alert]",
                 slo_detect_ok ? "" : " [slo-crash-undetected]",
                 slo_clear_ok ? "" : " [slo-breach-stuck]");
  }
  return pass ? 0 : 1;
}
