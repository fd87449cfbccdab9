#include "faultinject/chaos_soak.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>

#include "control/control_plane.hpp"
#include "net/path.hpp"
#include "obs/recovery_tracer.hpp"
#include "obs/slo/log_histogram.hpp"
#include "obs/timeseries.hpp"
#include "routing/backup_rules.hpp"
#include "routing/global_reroute.hpp"
#include "routing/spider.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::faultinject {

namespace {

/// Races the three non-ShareBackup protection strategies over the
/// fabric's post-recovery network: the same rng-drawn host pairs go
/// through ECMP + global reroute, SPIDER-protect, and precomputed
/// backup rules, tallying pairs each strategy cannot route. Returned
/// non-empty paths must be valid and live — anything else is a router
/// bug surfaced as a soak violation. Derived purely from the scenario
/// seed, so the race is bit-identical at any thread count.
void race_reachability(const ChaosSoakConfig& config,
                       const sweep::ScenarioSpec& spec,
                       const sharebackup::Fabric& fabric,
                       ChaosScenarioResult& result) {
  const topo::FatTree& ft = fabric.fat_tree();
  const net::Network& net = fabric.network();
  routing::EcmpWithGlobalRerouteRouter global_reroute(ft, spec.seed);
  routing::SpiderProtectRouter spider(ft, spec.seed);
  routing::BackupRulesRouter backup(ft, spec.seed);
  struct Racer {
    routing::Router* router;
    std::size_t* unreachable;
  };
  const Racer racers[] = {
      {&global_reroute, &result.unreachable_global_reroute},
      {&spider, &result.unreachable_spider},
      {&backup, &result.unreachable_backup_rules},
  };

  // Separate stream from the fault plan's (which consumed spec.rng()'s
  // sequence during generate), re-derived so adding probes never
  // perturbs the injected schedule.
  Rng rng(sweep::derive_seed(spec.seed, 0x5eedf00dULL));
  const std::size_t hosts = static_cast<std::size_t>(ft.host_count());
  for (std::size_t p = 0; p < config.reachability_probes; ++p) {
    const net::NodeId src =
        ft.host(static_cast<int>(rng.uniform_index(hosts)));
    net::NodeId dst = src;
    while (dst == src) {
      dst = ft.host(static_cast<int>(rng.uniform_index(hosts)));
    }
    ++result.probes_routed;
    for (const Racer& racer : racers) {
      const net::Path path =
          racer.router->route(net, src, dst, spec.seed ^ p, nullptr);
      if (path.nodes.empty()) {
        ++*racer.unreachable;
      } else if (!net::is_valid_path(net, path) ||
                 !net::is_live_path(net, path)) {
        std::ostringstream os;
        os << racer.router->name() << " returned an invalid or dead path"
           << " for probe " << p << " (" << src.value() << " -> "
           << dst.value() << ")";
        result.violations.push_back(os.str());
      }
    }
  }
}

}  // namespace

ChaosScenarioResult run_chaos_scenario(
    const ChaosSoakConfig& config, const sweep::ScenarioSpec& spec,
    const sweep::ScenarioObservers& observers) {
  obs::FlightRecorder* recorder = observers.recorder;
  obs::slo::SloMonitor* slo = observers.slo;
  SBK_EXPECTS_MSG(observers.health == nullptr || slo != nullptr,
                  "a chaos health log requires an SLO monitor");
  ChaosScenarioResult result;
  result.seed = spec.seed;

  sharebackup::FabricParams fp;
  fp.fat_tree.k = config.k;
  fp.backups_per_group = config.backups_per_group;
  sharebackup::Fabric fabric(fp);

  sim::EventQueue queue;
  control::ControlPlaneConfig pc;
  pc.cluster_members = config.cluster_members;
  pc.diagnosis_delay = config.diagnosis_delay;
  pc.detector.report_retry_interval = config.report_retry_interval;
  control::ControlPlane plane(fabric, queue, pc);
  obs::RecoveryTracer tracer;
  plane.attach_tracer(&tracer);
  if (observers.metrics != nullptr) plane.attach_metrics(observers.metrics);
  if (recorder != nullptr) {
    plane.attach_recorder(recorder);
    fabric.attach_recorder(recorder);
  }

  // Telemetry rides in the recorder: the standard chaos probes become
  // "telemetry" counter tracks next to the events that move them.
  std::optional<obs::TelemetrySampler> sampler;
  if (recorder != nullptr && recorder->enabled()) {
    sampler.emplace(*recorder, obs::TelemetrySampler::kDefaultInterval);
    const net::Network& net = fabric.network();
    sampler->add_probe("queue.pending", [&queue] {
      return static_cast<double>(queue.pending());
    });
    sampler->add_probe("fabric.spare_pool", [&fabric] {
      return static_cast<double>(fabric.total_spares());
    });
    // The soak carries no traffic, so the utilization analog is the
    // fraction of packet links currently alive: it dips on injections
    // and restores as recoveries land.
    sampler->add_probe("net.live_link_frac",
                       [&net] { return net.live_link_fraction(); });
    sampler->add_probe("controller.pending_diagnosis", [&plane] {
      return static_cast<double>(plane.controller().pending_diagnosis());
    });
    sampler->add_probe("controller.pending_recoveries", [&plane] {
      return static_cast<double>(plane.controller().pending_recoveries());
    });
    sampler->add_probe("plane.reports_buffered", [&plane] {
      return static_cast<double>(plane.reports_buffered());
    });
    // Pre-scheduled cadence events: queue events at equal timestamps
    // fire in insertion order, so scheduling these before the control
    // plane and the injector arm themselves guarantees each sample sees
    // the state *before* any same-instant injection or recovery.
    sampler->start(0.0);
    for (std::size_t i = 1;; ++i) {
      const Seconds t = static_cast<double>(i) * sampler->interval();
      if (t > config.plan.horizon) break;
      queue.schedule_at(t, [&sampler, t] { sampler->sample_now(t); });
    }
  }

  FaultPlan fault_plan =
      FaultPlan::generate(fabric, config.plan, spec.seed);
  ChaosInjector injector(fabric, plane, queue, fault_plan);
  plane.start(config.plan.horizon);
  injector.arm();

  try {
    queue.run();
  } catch (const std::exception& e) {
    result.violations.push_back(std::string("exception during run: ") +
                                e.what());
  }

  for (std::string& v : injector.verify(&tracer)) {
    result.violations.push_back(std::move(v));
  }

  if (recorder != nullptr) export_recovery_spans(tracer, *recorder);

  obs::slo::LogHistogram recovery_hist;
  if (slo != nullptr) {
    slo->attach_recorder(recorder);
    slo->attach_tracer(&tracer);
    // Feed closed incidents in recovery order (not injection order):
    // window records must arrive with non-decreasing timestamps for the
    // step binning to be exact. The (recovered_at, id) sort is a total
    // order over the deterministic incident list, so the alert timeline
    // is a pure function of the scenario seed.
    struct Closed {
      Seconds recovered_at;
      std::size_t id;
      Seconds latency;
    };
    std::vector<Closed> closed;
    for (const obs::RecoveryIncident& inc : tracer.incidents()) {
      if (!inc.closed) continue;
      closed.push_back(
          {inc.recovered_at, inc.id, inc.recovered_at - inc.injected_at});
    }
    std::sort(closed.begin(), closed.end(),
              [](const Closed& a, const Closed& b) {
                return a.recovered_at != b.recovered_at
                           ? a.recovered_at < b.recovered_at
                           : a.id < b.id;
              });
    for (const Closed& c : closed) {
      recovery_hist.record(c.latency);
      slo->record_latency(0, c.recovered_at, c.latency);
    }
    slo->finish(config.plan.horizon);
    result.slo_breaches = slo->breach_count(0);
    result.slo_clears = slo->clear_count(0);
    slo->attach_recorder(nullptr);
    slo->attach_tracer(nullptr);
  }

  result.failures_injected = injector.stats().switch_failures_injected +
                             injector.stats().link_failures_injected;
  const control::ControllerStats& cs = plane.controller().stats();
  result.failovers = cs.failovers;
  result.retries = cs.retries;
  result.degraded_reroutes = cs.degraded_reroutes;
  result.requeued = cs.requeued;
  result.watchdog_trips = cs.watchdog_trips;
  result.reports_lost = plane.reports_lost();
  result.reports_buffered = plane.reports_buffered();

  if (config.reachability_probes > 0) {
    race_reachability(config, spec, fabric, result);
  }

  if (observers.health != nullptr) {
    // One end-state snapshot per scenario: fabric spare pool and link
    // liveness after every recovery landed, plus the recovery-latency
    // distribution and objective attainment.
    obs::slo::HealthSnapshot snap;
    snap.at = config.plan.horizon;
    snap.processed = recovery_hist.count();
    snap.spare_pool = fabric.total_spares();
    snap.live_link_frac = fabric.network().live_link_fraction();
    snap.histograms.push_back(
        obs::slo::histogram_stat("recovery_latency", recovery_hist));
    snap.objectives = obs::slo::objective_stats(*slo);
    observers.health->add(std::move(snap));
  }
  return result;
}

ChaosSoakReport run_chaos_soak(const ChaosSoakConfig& config,
                               const sweep::ObservedSinks& sinks) {
  sweep::SweepConfig sc;
  sc.master_seed = config.master_seed;
  sc.threads = config.threads;
  sweep::SweepRunner runner(sc);
  ChaosSoakReport report;
  report.scenarios = runner.run_observed(
      config.scenarios, sinks,
      [&config](const sweep::ScenarioSpec& s,
                const sweep::ScenarioObservers& observers) {
        return run_chaos_scenario(config, s, observers);
      });
  return report;
}

obs::slo::SloMonitor make_chaos_slo() {
  obs::slo::SloMonitor slo;
  obs::slo::SloObjectiveConfig oc;
  oc.name = "recovery_latency";
  oc.kind = obs::slo::ObjectiveKind::kLatency;
  oc.threshold = kRecoveryLatencyBound;
  oc.budget = kRecoveryBudget;
  oc.window = kRecoverySloWindow;
  oc.min_events = kRecoverySloMinEvents;
  const std::size_t idx = slo.add_objective(std::move(oc));
  SBK_ASSERT_MSG(idx == 0, "recovery_latency must be objective 0");
  (void)idx;
  return slo;
}

std::size_t ChaosSoakReport::total_violations() const {
  std::size_t n = 0;
  for (const ChaosScenarioResult& s : scenarios) n += s.violations.size();
  return n;
}

std::string ChaosSoakReport::summary() const {
  std::size_t injected = 0, failovers = 0, retries = 0, degraded = 0,
              requeued = 0, trips = 0, lost = 0, buffered = 0, probes = 0,
              un_global = 0, un_spider = 0, un_backup = 0;
  for (const ChaosScenarioResult& s : scenarios) {
    injected += s.failures_injected;
    failovers += s.failovers;
    retries += s.retries;
    degraded += s.degraded_reroutes;
    requeued += s.requeued;
    trips += s.watchdog_trips;
    lost += s.reports_lost;
    buffered += s.reports_buffered;
    probes += s.probes_routed;
    un_global += s.unreachable_global_reroute;
    un_spider += s.unreachable_spider;
    un_backup += s.unreachable_backup_rules;
  }
  std::ostringstream os;
  os << "chaos soak: " << scenarios.size() << " scenarios, " << injected
     << " failures injected, " << failovers << " failovers, " << retries
     << " command retries, " << degraded << " degraded reroutes, "
     << requeued << " requeues, " << trips << " watchdog trips, " << lost
     << " reports lost, " << buffered << " reports buffered\n";
  if (probes > 0) {
    os << "reachability race: " << probes
       << " host pairs/strategy, unreachable: global-reroute " << un_global
       << ", spider-protect " << un_spider << ", backup-rules " << un_backup
       << "\n";
  }
  if (clean()) {
    os << "invariants: CLEAN (0 violations)\n";
  } else {
    os << "invariants: " << total_violations() << " VIOLATION(S)\n";
    for (const ChaosScenarioResult& s : scenarios) {
      for (const std::string& v : s.violations) {
        os << "  [seed " << s.seed << "] " << v << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace sbk::faultinject
