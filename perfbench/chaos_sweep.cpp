// Workload chaos-sweep: faultinject::run_chaos_scenario, one scenario
// after another, at k=8 with 2 backups per group and a 3-member
// controller cluster; scenario i runs at sweep::derive_seed(seed, i).
//
// End to end: one item is one run_chaos_scenario call. Per layer: the
// traced run rebuilds run_chaos_scenario from the same public calls
// (fabric, control plane, fault plan, injector, EventQueue::step until
// empty, verify, and the reachability race through timed routers) and
// must reproduce its ChaosScenarioResult counters exactly.
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "control/control_plane.hpp"
#include "faultinject/chaos_injector.hpp"
#include "faultinject/chaos_soak.hpp"
#include "net/path.hpp"
#include "obs/recovery_tracer.hpp"
#include "routing/backup_rules.hpp"
#include "routing/global_reroute.hpp"
#include "routing/spider.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/event_queue.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

namespace sbk::perfbench {
namespace {

namespace fi = sbk::faultinject;

constexpr int kSetupRepeats = 9;
/// The timed phase cycles through scenarios 0..kCycle-1, whole cycles
/// until the budget is spent. The scenario-time percentiles are taken
/// over the scenarios of each scenario's median over the cycles.
constexpr std::size_t kCycle = 25;
/// Fixed work of the traced and slowed phases.
constexpr std::size_t kTracedScenarios = 24;
/// Seeded slowdown: a spin every kSlowdownEvery queue events.
constexpr std::uint64_t kSlowdownEvery = 4096;
constexpr std::int64_t kSlowdownNs = 300'000;

enum Layer : int {
  kFabricBuild,
  kPlaneBuild,
  kPlan,
  kArm,
  kQueueRun,
  kVerify,
  kRace,
  kRouteGlobal,
  kRouteSpider,
  kRouteBackup,
  kCheck,
};

std::vector<std::string> layer_names() {
  return {"sharebackup.fabric_build", "control.plane_build",
          "faultinject.plan",         "faultinject.arm",
          "sim.queue_run",            "faultinject.verify",
          "routing.race",             "routing.route.global_reroute",
          "routing.route.spider",     "routing.route.backup_rules",
          "bench.check"};
}

fi::ChaosSoakConfig chaos_config() {
  fi::ChaosSoakConfig cfg;
  cfg.k = 8;
  cfg.backups_per_group = 2;
  cfg.cluster_members = 3;
  return cfg;
}

std::uint64_t digest(const fi::ChaosScenarioResult& r) {
  Digest d;
  for (std::uint64_t v :
       {r.seed, static_cast<std::uint64_t>(r.violations.size()),
        static_cast<std::uint64_t>(r.failures_injected),
        static_cast<std::uint64_t>(r.failovers),
        static_cast<std::uint64_t>(r.retries),
        static_cast<std::uint64_t>(r.degraded_reroutes),
        static_cast<std::uint64_t>(r.requeued),
        static_cast<std::uint64_t>(r.watchdog_trips),
        static_cast<std::uint64_t>(r.reports_lost),
        static_cast<std::uint64_t>(r.reports_buffered),
        static_cast<std::uint64_t>(r.probes_routed),
        static_cast<std::uint64_t>(r.unreachable_global_reroute),
        static_cast<std::uint64_t>(r.unreachable_spider),
        static_cast<std::uint64_t>(r.unreachable_backup_rules)}) {
    d.add(v);
  }
  return d.value();
}

/// run_chaos_scenario's post-recovery reachability race, rebuilt with
/// each protection router behind a TimedRouter.
void race_reachability(const fi::ChaosSoakConfig& config,
                       const sweep::ScenarioSpec& spec,
                       const sharebackup::Fabric& fabric, Tracer& tracer,
                       fi::ChaosScenarioResult& result) {
  const topo::FatTree& ft = fabric.fat_tree();
  const net::Network& net = fabric.network();
  routing::EcmpWithGlobalRerouteRouter global_reroute(ft, spec.seed);
  routing::SpiderProtectRouter spider(ft, spec.seed);
  routing::BackupRulesRouter backup(ft, spec.seed);
  TimedRouter timed_global(global_reroute, &tracer, kRouteGlobal);
  TimedRouter timed_spider(spider, &tracer, kRouteSpider);
  TimedRouter timed_backup(backup, &tracer, kRouteBackup);
  struct Racer {
    routing::Router* router;
    std::size_t* unreachable;
  };
  const Racer racers[] = {
      {&timed_global, &result.unreachable_global_reroute},
      {&timed_spider, &result.unreachable_spider},
      {&timed_backup, &result.unreachable_backup_rules},
  };
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

struct ChaosPhase : TracedPhase {
  ChaosPhase() : TracedPhase(layer_names()) {}
  std::int64_t items_ns = 0;  ///< wall_ns without the checks
  std::uint64_t events = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
  std::uint64_t reports_lost = 0;
  std::uint64_t reports_buffered = 0;
};

/// run_chaos_scenario (plain overload) step by step, each public call
/// in its own span.
fi::ChaosScenarioResult traced_scenario(const fi::ChaosSoakConfig& config,
                                        const sweep::ScenarioSpec& spec,
                                        ChaosPhase& ph,
                                        std::int64_t slowdown_ns) {
  Tracer& tracer = ph.tracer;
  fi::ChaosScenarioResult result;
  result.seed = spec.seed;
  std::unique_ptr<sharebackup::Fabric> fabric;
  {
    Span span(&tracer, kFabricBuild);
    sharebackup::FabricParams fp;
    fp.fat_tree.k = config.k;
    fp.backups_per_group = config.backups_per_group;
    fabric = std::make_unique<sharebackup::Fabric>(fp);
  }
  sim::EventQueue queue;
  std::unique_ptr<control::ControlPlane> plane;
  obs::RecoveryTracer recovery;
  {
    Span span(&tracer, kPlaneBuild);
    control::ControlPlaneConfig pc;
    pc.cluster_members = config.cluster_members;
    pc.diagnosis_delay = config.diagnosis_delay;
    pc.detector.report_retry_interval = config.report_retry_interval;
    plane = std::make_unique<control::ControlPlane>(*fabric, queue, pc);
    plane->attach_tracer(&recovery);
  }
  fi::FaultPlan fault_plan;
  {
    Span span(&tracer, kPlan);
    fault_plan = fi::FaultPlan::generate(*fabric, config.plan, spec.seed);
  }
  std::unique_ptr<fi::ChaosInjector> injector;
  {
    Span span(&tracer, kArm);
    injector = std::make_unique<fi::ChaosInjector>(*fabric, *plane, queue,
                                                   fault_plan);
  }
  {
    Span span(&tracer, kPlaneBuild);
    plane->start(config.plan.horizon);
  }
  {
    Span span(&tracer, kArm);
    injector->arm();
  }
  {
    Span span(&tracer, kQueueRun);
    std::uint64_t events = 0;
    try {
      while (queue.step()) {
        ++events;
        if (slowdown_ns > 0 && events % kSlowdownEvery == 0) {
          ph.injected_ns += spin_ns(slowdown_ns);
        }
      }
    } catch (const std::exception& e) {
      result.violations.push_back(std::string("exception during run: ") +
                                  e.what());
    }
    ph.events += events;
  }
  {
    Span span(&tracer, kVerify);
    for (std::string& v : injector->verify(&recovery)) {
      result.violations.push_back(std::move(v));
    }
  }
  result.failures_injected = injector->stats().switch_failures_injected +
                             injector->stats().link_failures_injected;
  const control::ControllerStats& cs = plane->controller().stats();
  result.failovers = cs.failovers;
  result.retries = cs.retries;
  result.degraded_reroutes = cs.degraded_reroutes;
  result.requeued = cs.requeued;
  result.watchdog_trips = cs.watchdog_trips;
  result.reports_lost = plane->reports_lost();
  result.reports_buffered = plane->reports_buffered();
  if (config.reachability_probes > 0) {
    Span span(&tracer, kRace);
    race_reachability(config, spec, *fabric, tracer, result);
  }
  return result;
}

}  // namespace

Outcome run_chaos_sweep(const Options& opt) {
  Outcome out;
  const fi::ChaosSoakConfig config = chaos_config();
  auto spec = [&](std::size_t i) {
    return sweep::ScenarioSpec{i, sweep::derive_seed(opt.seed, i)};
  };
  auto check_scenario = [&](const fi::ChaosScenarioResult& r,
                            const std::string& what) {
    out.check(r.violations.empty(),
              what + " seed " + std::to_string(r.seed) + ": " +
                  (r.violations.empty() ? "" : r.violations.front()));
  };

  // Set-up, repeated: the configuration plus one untimed warm-up
  // scenario (scenario 0, which the timed phase runs again).
  std::vector<double> setup_s;
  fi::ChaosScenarioResult warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    warmup = fi::run_chaos_scenario(chaos_config(), spec(0));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  check_scenario(warmup, "warm-up scenario");

  // Timed phase: whole cycles through the scenarios until the budget is
  // spent; every repeat of a scenario reproduces its first run.
  std::vector<double> item_ms;
  std::vector<std::uint64_t> digests;  // of each scenario's first run
  std::int64_t items_ns = 0;
  const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  while (now_ns() - start < budget || item_ms.size() % kCycle != 0) {
    const std::size_t i = item_ms.size() % kCycle;
    const std::int64_t t0 = now_ns();
    const fi::ChaosScenarioResult r = fi::run_chaos_scenario(config, spec(i));
    const std::int64_t dt = now_ns() - t0;
    items_ns += dt;
    item_ms.push_back(static_cast<double>(dt) / 1e6);
    const std::string what = "scenario " + std::to_string(i);
    check_scenario(r, what);
    if (digests.size() < kCycle) {
      digests.push_back(digest(r));
    } else {
      out.check(digest(r) == digests[i], what + " reproduces its first run");
    }
  }
  out.check(digests.front() == digest(warmup),
            "scenario 0 reproduces the warm-up scenario");
  const double throughput = static_cast<double>(item_ms.size()) /
                            (static_cast<double>(items_ns) / 1e9);
  const double p50_ms = cycle_percentile(item_ms, kCycle, 50.0);
  const double p90_ms = cycle_percentile(item_ms, kCycle, 90.0);
  std::printf("timed: %zu scenario runs (%zu cycles through %zu scenarios; "
              "k=%d, %d backups, %zu members) in %.6f s, %.3f scenarios/s; "
              "per scenario, percentile over the scenarios of each "
              "scenario's median: p50 %.3f ms, p90 %.3f ms (all %zu samples "
              "pooled: p50 %.3f ms, p90 %.3f ms)\n",
              item_ms.size(), item_ms.size() / kCycle, kCycle, config.k,
              config.backups_per_group, config.cluster_members,
              static_cast<double>(items_ns) / 1e9, throughput, p50_ms, p90_ms,
              item_ms.size(), percentile(item_ms, 50.0),
              percentile(item_ms, 90.0));

  if (!opt.trace) {
    out.add("throughput_per_s", throughput, "1/s");
    out.add("step_p50_ms", p50_ms, "ms");
    out.add("step_tail_ms", p90_ms, "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", util::peak_rss_mb(), "MB");
    return out;
  }

  // Traced phase over a fixed set of scenarios, and the same scenarios
  // with the seeded slowdown in the event-queue loop, interleaved
  // scenario by scenario so that both phases share whatever else the
  // host is doing.
  std::vector<std::uint64_t> traced_digests;
  auto run_item = [&](ChaosPhase& ph, std::size_t i,
                      std::int64_t slowdown_ns, const std::string& name) {
    const std::int64_t t0 = now_ns();
    ph.tracer.begin_item(i);
    const fi::ChaosScenarioResult r =
        traced_scenario(config, spec(i), ph, slowdown_ns);
    ph.items_ns += now_ns() - t0;
    {
      Span span(&ph.tracer, kCheck);
      ph.failovers += r.failovers;
      ph.retries += r.retries;
      ph.reports_lost += r.reports_lost;
      ph.reports_buffered += r.reports_buffered;
      check_scenario(r, name + " scenario " + std::to_string(i));
      const std::uint64_t d = digest(r);
      if (slowdown_ns == 0) {
        traced_digests.push_back(d);
        if (i < digests.size()) {
          out.check(d == digests[i], name + " scenario " + std::to_string(i) +
                                         " reproduces run_chaos_scenario");
        }
      } else {
        out.check(d == traced_digests[i],
                  name + " scenario " + std::to_string(i) +
                      " reproduces the traced scenario");
      }
    }
    ph.wall_ns += now_ns() - t0;
  };
  ChaosPhase clean;
  ChaosPhase slowed;
  for (std::size_t i = 0; i < kTracedScenarios; ++i) {
    run_item(clean, i, 0, "traced");
    run_item(slowed, i, kSlowdownNs, "slowed");
  }

  const double traced_throughput =
      static_cast<double>(kTracedScenarios) /
      (static_cast<double>(clean.items_ns) / 1e9);
  report_trace(out, opt, nullptr, clean, slowed, kQueueRun, throughput,
               traced_throughput);

  const Tracer& t = clean.tracer;
  out.add("sharebackup.fabric_build_s", t.self_s(kFabricBuild), "s");
  out.add("control.plane_build_s", t.self_s(kPlaneBuild), "s");
  out.add("faultinject.plan_s", t.self_s(kPlan), "s");
  out.add("faultinject.arm_s", t.self_s(kArm), "s");
  out.add("faultinject.verify_s", t.self_s(kVerify), "s");
  out.add("sim.queue_run_s", t.self_s(kQueueRun), "s");
  out.add("sim.queue_events", static_cast<double>(clean.events), "count");
  out.add("sim.queue_ns_per_event",
          clean.events == 0
              ? 0.0
              : static_cast<double>(t.totals(kQueueRun).self_ns) /
                    static_cast<double>(clean.events),
          "ns");
  out.add("routing.race_s", t.self_s(kRace), "s");
  const std::pair<const char*, int> routers[] = {
      {"global_reroute", kRouteGlobal},
      {"spider", kRouteSpider},
      {"backup_rules", kRouteBackup}};
  for (const auto& [name, layer] : routers) {
    const Tracer::LayerTotals lt = t.totals(layer);
    out.add(std::string("routing.route_calls.") + name,
            static_cast<double>(lt.count), "count");
    out.add(std::string("routing.route_ns.") + name,
            static_cast<double>(lt.self_ns), "ns");
  }
  out.add("control.retries_per_failover",
          clean.failovers == 0 ? 0.0
                               : static_cast<double>(clean.retries) /
                                     static_cast<double>(clean.failovers),
          "frac");
  out.add("control.failovers", static_cast<double>(clean.failovers),
          "count");
  out.add("control.retries", static_cast<double>(clean.retries), "count");
  out.add("control.reports_lost", static_cast<double>(clean.reports_lost),
          "count");
  out.add("control.reports_buffered",
          static_cast<double>(clean.reports_buffered), "count");
  out.add("bench.check_s", t.self_s(kCheck), "s");
  return out;
}

}  // namespace sbk::perfbench
