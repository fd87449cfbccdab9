// Experiment E10 — google-benchmark micro-benchmarks of the library's
// hot paths: max-min allocation, path enumeration and routing, fabric
// failover, offline diagnosis, table lookups, and whole fluid-sim runs.
#include <benchmark/benchmark.h>

#include <sstream>

#include "control/controller.hpp"
#include "control/diagnosis.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo/health_snapshot.hpp"
#include "obs/slo/log_histogram.hpp"
#include "obs/timeseries.hpp"
#include "pktsim/packet_sim.hpp"
#include "routing/ecmp.hpp"
#include "routing/global_reroute.hpp"
#include "routing/table_forwarding.hpp"
#include "service/controller_service.hpp"
#include "sharebackup/fabric.hpp"
#include "sharebackup/leaf_spine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/incremental_max_min.hpp"
#include "sim/max_min.hpp"
#include "topo/fat_tree.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "workload/coflow_gen.hpp"

using namespace sbk;

namespace {

void BM_FatTreeBuild(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    topo::FatTree ft(topo::FatTreeParams{.k = k});
    benchmark::DoNotOptimize(ft.network().link_count());
  }
}
BENCHMARK(BM_FatTreeBuild)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)   // 27,648 hosts — the paper's datacenter scale
    ->Arg(64)   // 65,536 hosts
    ->Unit(benchmark::kMillisecond);

void BM_FabricBuild(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sharebackup::FabricParams p;
    p.fat_tree.k = k;
    p.backups_per_group = 1;
    sharebackup::Fabric fabric(p);
    benchmark::DoNotOptimize(fabric.circuit_switch_count());
  }
}
BENCHMARK(BM_FabricBuild)->Arg(8)->Arg(16);

void BM_EcmpRoute(benchmark::State& state) {
  topo::FatTree ft(topo::FatTreeParams{.k = static_cast<int>(state.range(0))});
  routing::EcmpRouter router(ft);
  std::uint64_t id = 0;
  for (auto _ : state) {
    net::Path p = router.route(ft.network(), ft.host(0),
                               ft.host(ft.host_count() / 2), id++, nullptr);
    benchmark::DoNotOptimize(p.hops());
  }
}
BENCHMARK(BM_EcmpRoute)->Arg(8)->Arg(16)->Arg(32);

void BM_EcmpRouteCached(benchmark::State& state) {
  // Warm-cache routing across a spread of (src, dst) pairs: after the
  // first visit each pair costs a hash probe plus an indexed path copy.
  // Contrast with BM_EcmpRoute, whose first iteration pays enumeration.
  topo::FatTree ft(topo::FatTreeParams{.k = static_cast<int>(state.range(0))});
  routing::EcmpRouter router(ft);
  constexpr std::size_t kPairs = 64;
  const int hosts = ft.host_count();
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    int a = static_cast<int>((i * 37) % static_cast<std::size_t>(hosts));
    int b = static_cast<int>((i * 61 + hosts / 2) %
                             static_cast<std::size_t>(hosts));
    if (a == b) b = (b + 1) % hosts;
    pairs.emplace_back(ft.host(a), ft.host(b));
    (void)router.route(ft.network(), ft.host(a), ft.host(b), i, nullptr);
  }
  std::uint64_t id = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[id % kPairs];
    net::Path p = router.route(ft.network(), src, dst, id++, nullptr);
    benchmark::DoNotOptimize(p.hops());
  }
}
BENCHMARK(BM_EcmpRouteCached)->Arg(8)->Arg(16)->Arg(32);

void BM_GlobalRerouteAffected(benchmark::State& state) {
  topo::FatTree ft(topo::FatTreeParams{.k = 16});
  routing::EcmpWithGlobalRerouteRouter router(ft);
  routing::LinkLoads loads(ft.network().link_count());
  ft.network().fail_node(ft.core(0));
  std::uint64_t id = 0;
  for (auto _ : state) {
    net::Path p = router.route(ft.network(), ft.host(0),
                               ft.host(ft.host_count() - 1), id++, &loads);
    benchmark::DoNotOptimize(p.hops());
  }
}
BENCHMARK(BM_GlobalRerouteAffected);

void BM_MaxMinAllocation(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  topo::FatTree ft(topo::FatTreeParams{.k = 16});
  routing::EcmpRouter router(ft);
  Rng rng(1);
  std::vector<sim::Demand> demands;
  for (std::size_t f = 0; f < flows; ++f) {
    net::NodeId src = ft.host(static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(ft.host_count()))));
    net::NodeId dst = ft.host(static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(ft.host_count()))));
    if (src == dst) continue;
    net::Path p = router.route(ft.network(), src, dst, f, nullptr);
    demands.push_back(sim::Demand{p.directed_links(ft.network())});
  }
  // Hot-path idiom: one solver instance, scratch reused across calls —
  // exactly how FluidSimulator drives it.
  sim::MaxMinSolver solver;
  std::vector<double> rates;
  for (auto _ : state) {
    solver.begin(ft.network(), demands.size());
    for (const sim::Demand& d : demands) solver.add_demand(d.links);
    solver.solve_into(rates);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(demands.size()));
}
BENCHMARK(BM_MaxMinAllocation)->Arg(64)->Arg(256)->Arg(1024);

// Pod-local hotspot population for the incremental-vs-full comparison:
// `per_pod` flows per pod, all sourced from the pod's first host, so
// every pod's flows share that host's directed uplink and each pod is
// exactly one allocation component. (Flows that only share a cable in
// *opposite* directions occupy different directed slots and are not
// coupled — a scattered ring of pairs would decompose into singleton
// components and make the incremental numbers meaninglessly fast.)
std::vector<std::vector<net::DirectedLink>> pod_hotspot_flows(
    topo::FatTree& ft, routing::EcmpRouter& router, int per_pod) {
  std::vector<std::vector<net::DirectedLink>> links;
  links.reserve(static_cast<std::size_t>(ft.pods()) *
                static_cast<std::size_t>(per_pod));
  const int hosts_per_pod = ft.host_count() / ft.pods();
  std::uint64_t id = 0;
  for (int p = 0; p < ft.pods(); ++p) {
    const int base = p * hosts_per_pod;
    for (int f = 0; f < per_pod; ++f) {
      const int dst = base + 1 + f % (hosts_per_pod - 1);
      net::Path path = router.route(ft.network(), ft.host(base),
                                    ft.host(dst), id++, nullptr);
      links.push_back(path.directed_links(ft.network()));
    }
  }
  return links;
}

void BM_MaxMinIncremental(benchmark::State& state) {
  // Single-failure-group churn at k=32: 32 pods x 64 pod-local flows
  // (2048 total). Each iteration removes one flow, re-adds it, and
  // re-solves; only the victim pod's ~64-flow component is recomputed.
  // BM_MaxMinFullResolve drives the identical churn through a monolithic
  // solve of all 2048 flows — the ratio of the two is the incremental
  // speedup for event-local churn.
  topo::FatTree ft(topo::FatTreeParams{.k = 32});
  routing::EcmpRouter router(ft);
  const auto links = pod_hotspot_flows(ft, router, /*per_pod=*/64);
  sim::IncrementalMaxMin inc;
  inc.bind(ft.network());
  std::vector<sim::IncrementalMaxMin::FlowSlot> slots;
  slots.reserve(links.size());
  for (const auto& l : links) slots.push_back(inc.add_flow(l));
  inc.solve();
  const std::size_t resolved_at_start = inc.total_resolved_flows();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t victim = (i * 997) % slots.size();  // rotates pods
    inc.remove_flow(slots[victim]);
    slots[victim] = inc.add_flow(links[victim]);
    inc.solve();
    benchmark::DoNotOptimize(inc.rate(slots[victim]));
    ++i;
  }
  state.counters["flows"] = static_cast<double>(links.size());
  state.counters["resolved_per_event"] =
      i == 0 ? 0.0
             : static_cast<double>(inc.total_resolved_flows() -
                                   resolved_at_start) /
                   static_cast<double>(i);
}
BENCHMARK(BM_MaxMinIncremental);

void BM_MaxMinFullResolve(benchmark::State& state) {
  // Denominator for BM_MaxMinIncremental: the same k=32 pod-local
  // population, every event re-solved from scratch the way the
  // pre-incremental FluidSimulator did.
  topo::FatTree ft(topo::FatTreeParams{.k = 32});
  routing::EcmpRouter router(ft);
  const auto links = pod_hotspot_flows(ft, router, /*per_pod=*/64);
  sim::MaxMinSolver solver;
  std::vector<double> rates;
  for (auto _ : state) {
    solver.begin(ft.network(), links.size());
    for (const auto& l : links) solver.add_demand(l);
    solver.solve_into(rates);
    benchmark::DoNotOptimize(rates.data());
  }
  state.counters["flows"] = static_cast<double>(links.size());
}
BENCHMARK(BM_MaxMinFullResolve);

void BM_FabricFailover(benchmark::State& state) {
  sharebackup::FabricParams p;
  p.fat_tree.k = 16;
  p.backups_per_group = 1;
  sharebackup::Fabric fabric(p);
  topo::SwitchPosition pos{topo::Layer::kAgg, 0, 0};
  for (auto _ : state) {
    auto r = fabric.fail_over(pos);
    benchmark::DoNotOptimize(r->circuit_switches_touched);
    // Undo so the pool never exhausts: the replaced device is "repaired".
    fabric.return_to_pool(r->failed_device);
  }
}
BENCHMARK(BM_FabricFailover);

void BM_OfflineDiagnosis(benchmark::State& state) {
  sharebackup::FabricParams p;
  p.fat_tree.k = 8;
  p.backups_per_group = 2;
  sharebackup::Fabric fabric(p);
  control::DiagnosisEngine engine(fabric);
  // Take an edge/agg pair offline once; diagnose repeatedly.
  auto fe = fabric.fail_over({topo::Layer::kEdge, 0, 0});
  auto fa = fabric.fail_over({topo::Layer::kAgg, 0, 0});
  std::size_t cs = fabric.cs_index(2, 0, 0);
  for (auto _ : state) {
    auto r = engine.diagnose_link(fe->failed_device, fa->failed_device, cs);
    benchmark::DoNotOptimize(r.circuit_operations);
  }
}
BENCHMARK(BM_OfflineDiagnosis);

void BM_ServiceIngest(benchmark::State& state) {
  // One full ControllerService lifecycle per iteration: the prebuilt
  // report stream (failures with resends, probes, operator cadences)
  // runs inline through the bounded ingress model, the controller
  // dispatch, and the shutdown settle sweep. Stream construction is
  // hoisted — it is deterministic and identical every iteration.
  Log::set_level(LogLevel::kError);  // watchdog churn is part of the run
  sharebackup::FabricParams p;
  p.fat_tree.k = 6;
  p.backups_per_group = 2;
  sharebackup::Fabric plan_fabric(p);
  faultinject::FaultPlanConfig pcfg;
  pcfg.switch_failures = 6;
  pcfg.link_failures = 9;
  const faultinject::FaultPlan plan =
      faultinject::FaultPlan::generate(plan_fabric, pcfg, /*seed=*/11);
  faultinject::ReportStreamConfig scfg;
  scfg.repeats = 3;
  scfg.time_scale = 0.02;
  const std::vector<service::ServiceMessage> stream =
      faultinject::build_report_stream(plan, scfg);
  for (auto _ : state) {
    sharebackup::Fabric fabric(p);
    control::Controller controller(fabric, control::ControllerConfig{});
    controller.set_audit_limit(1000);
    service::ControllerService svc(fabric, controller);
    svc.run_inline(stream);
    benchmark::DoNotOptimize(svc.stats().submitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ServiceIngest);

void BM_ServiceIngestSloEnabled(benchmark::State& state) {
  // BM_ServiceIngest with the live SLO engine on: streaming histogram
  // records, burn-rate window advances at batch boundaries, and health
  // snapshots on the virtual-time cadence. bench.sh gates this against
  // BM_ServiceIngest — a disabled engine costs one branch per message,
  // and the enabled engine must stay within the ingest noise floor.
  Log::set_level(LogLevel::kError);
  sharebackup::FabricParams p;
  p.fat_tree.k = 6;
  p.backups_per_group = 2;
  sharebackup::Fabric plan_fabric(p);
  faultinject::FaultPlanConfig pcfg;
  pcfg.switch_failures = 6;
  pcfg.link_failures = 9;
  const faultinject::FaultPlan plan =
      faultinject::FaultPlan::generate(plan_fabric, pcfg, /*seed=*/11);
  faultinject::ReportStreamConfig scfg;
  scfg.repeats = 3;
  scfg.time_scale = 0.02;
  const std::vector<service::ServiceMessage> stream =
      faultinject::build_report_stream(plan, scfg);
  service::ServiceConfig svc_cfg;
  svc_cfg.slo.enabled = true;
  for (auto _ : state) {
    sharebackup::Fabric fabric(p);
    control::Controller controller(fabric, control::ControllerConfig{});
    controller.set_audit_limit(1000);
    service::ControllerService svc(fabric, controller, svc_cfg);
    svc.run_inline(stream);
    benchmark::DoNotOptimize(svc.stats().submitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ServiceIngestSloEnabled);

void BM_LogHistogramRecord(benchmark::State& state) {
  // The SLO engine's hot-path primitive: O(1) frexp bucketing into a
  // fixed array. Pre-drawn latencies so the rng is out of the loop.
  Rng rng(17);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.lognormal(-6.0, 1.2);
  obs::slo::LogHistogram hist;
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(values[i++ & 4095]);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogHistogramRecord);

void BM_HealthSnapshot(benchmark::State& state) {
  // Cost of cutting one health snapshot from a populated histogram
  // (four quantile queries walk the bucket array) plus its JSON
  // rendering — the per-interval cost of the snapshot timeline.
  Rng rng(23);
  obs::slo::LogHistogram hist;
  for (int i = 0; i < 100000; ++i) hist.record(rng.lognormal(-6.0, 1.2));
  for (auto _ : state) {
    obs::slo::HealthSnapshot snap;
    snap.at = 1.0;
    snap.processed = hist.count();
    obs::slo::HealthHistogramStat hs;
    hs.name = "decision_latency";
    hs.count = hist.count();
    hs.p50 = hist.quantile(0.5);
    hs.p99 = hist.quantile(0.99);
    hs.p999 = hist.quantile(0.999);
    hs.max = hist.max();
    snap.histograms.push_back(hs);
    std::ostringstream os;
    obs::slo::write_health_json(os, snap);
    benchmark::DoNotOptimize(os);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HealthSnapshot);

void BM_CombinedTableLookup(benchmark::State& state) {
  routing::TwoLevelTableBuilder builder(64);
  routing::TwoLevelTable table = builder.combined_edge_table(0);
  int h = 0;
  for (auto _ : state) {
    auto port = table.lookup(routing::HostAddr{5, 3, h++ % 32}, h % 32,
                             /*require_tag_match=*/true);
    benchmark::DoNotOptimize(port);
  }
}
BENCHMARK(BM_CombinedTableLookup);

void BM_ForwardingWalk(benchmark::State& state) {
  // One inter-pod packet walked over the k=16 group tables.
  topo::FatTree ft(topo::FatTreeParams{.k = 16});
  routing::TableForwarding fwd(ft);
  int i = 0;
  for (auto _ : state) {
    auto r = fwd.walk(ft.host(0, 0, i % 8), ft.host(15, 7, (i + 3) % 8));
    benchmark::DoNotOptimize(r.delivered);
    ++i;
  }
}
BENCHMARK(BM_ForwardingWalk);

void BM_EventQueueDrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    Rng rng(7);
    auto& eng = rng.engine();
    std::uint64_t sink = 0;
    // The payload pushes the callback past the small-buffer size of
    // std::function, so each heap sift moves (or, before the fix,
    // copied) a heap allocation.
    struct Payload {
      std::uint64_t a, b, c, d, e, f;
    };
    for (std::size_t i = 0; i < n; ++i) {
      Payload p{eng(), eng(), eng(), eng(), eng(), eng()};
      Seconds at = static_cast<double>(eng() % 1000000) * 1e-6;
      q.schedule_at(at, [&sink, p] { sink += p.a ^ p.f; });
    }
    state.ResumeTiming();
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueDrain)->Arg(1024)->Arg(16384);

// The failure detector's pattern, the opposite of BM_EventQueueDrain's
// one event per timestamp: `chains` periodic probe chains on one
// interval, each firing scheduling its successor one interval later,
// so every tick holds `chains` events at one timestamp. Every 97th
// firing also schedules an off-grid event between two ticks, the way
// controller and injector callbacks interleave with probing. 464 is the
// chain count of a k=8 control plane (every switch and every link).
void BM_EventQueueProbeChains(benchmark::State& state) {
  const auto chains = static_cast<std::uint32_t>(state.range(0));
  constexpr Seconds kInterval = 1e-3;
  constexpr Seconds kHorizon = 200 * kInterval;
  struct Prober {
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    void probe(std::uint32_t chain) {
      if (++fired % 97 == 0) {
        queue.schedule_in(0.37 * kInterval, [this] { ++fired; });
      }
      const Seconds next = queue.now() + kInterval;
      if (next <= kHorizon) {
        queue.schedule_at(next, [this, chain] { probe(chain); });
      }
    }
  };
  std::uint64_t events = 0;
  for (auto _ : state) {
    Prober p;
    for (std::uint32_t c = 0; c < chains; ++c) {
      p.queue.schedule_at(kInterval, [&p, c] { p.probe(c); });
    }
    p.queue.run();
    events += p.fired;
    benchmark::DoNotOptimize(p.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueProbeChains)->Arg(64)->Arg(464);

void BM_FluidSimCoflowTrace(benchmark::State& state) {
  // Setup (topology, router, trace expansion) is hoisted out of the loop:
  // the old per-iteration PauseTiming()/ResumeTiming() pair costs ~100ns
  // of timer overhead per iteration and distorts sub-millisecond numbers.
  // The trace is deterministic (fixed seed), so one pre-built trace is
  // what every iteration would have rebuilt anyway. Simulator
  // construction stays inside the timed region — it is part of the cost
  // of running a scenario, and simulators are single-shot.
  const auto coflows = static_cast<std::size_t>(state.range(0));
  topo::FatTreeParams ftp{.k = 8};
  ftp.hosts_per_edge = 1;
  ftp.host_link_capacity = 40.0;
  topo::FatTree ft(ftp);
  routing::EcmpRouter router(ft);
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = coflows;
  wp.duration = 60.0;
  Rng rng(5);
  const auto flows =
      workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
  for (auto _ : state) {
    sim::FluidSimulator simulator(ft.network(), router, sim::SimConfig{});
    simulator.add_flows(flows);
    auto results = simulator.run();
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_FluidSimCoflowTrace)->Arg(20)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FluidSimEqualShare(benchmark::State& state) {
  // fig1c's allocation mode and router in miniature: per-link equal
  // share, ECMP with global reroute, one edge-agg link failed at t=0
  // and restored at the end of the arrival window (which also leaves
  // the hoisted network pristine between iterations). The router is
  // built inside the timed region, as each fig1c simulation builds its
  // own.
  const auto coflows = static_cast<std::size_t>(state.range(0));
  topo::FatTreeParams ftp{.k = 8};
  ftp.hosts_per_edge = 1;
  ftp.host_link_capacity = 40.0;
  topo::FatTree ft(ftp);
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = coflows;
  wp.duration = 60.0;
  Rng rng(5);
  const auto flows =
      workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
  const net::LinkId victim =
      *ft.network().find_link(ft.edge(1, 0), ft.agg(1, 0));
  sim::SimConfig cfg;
  cfg.allocation = sim::AllocationModel::kPerLinkEqualShare;
  for (auto _ : state) {
    routing::EcmpWithGlobalRerouteRouter router(ft, 1);
    sim::FluidSimulator simulator(ft.network(), router, cfg);
    simulator.add_flows(flows);
    simulator.at(0.0, [victim](net::Network& n) { n.fail_link(victim); });
    simulator.at(wp.duration,
                 [victim](net::Network& n) { n.restore_link(victim); });
    auto results = simulator.run();
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_FluidSimEqualShare)->Arg(20)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FlightRecorderDisabled(benchmark::State& state) {
  // The flight recorder's disabled-mode contract: a simulation with a
  // disabled recorder and a sampler over it ATTACHED must run at the
  // speed of one that never heard of them (every hook is a single
  // branch). This is the same workload as BM_FluidSimCoflowTrace(60);
  // bench.sh asserts the two stay within the regression tolerance of
  // each other.
  const auto coflows = static_cast<std::size_t>(state.range(0));
  topo::FatTreeParams ftp{.k = 8};
  ftp.hosts_per_edge = 1;
  ftp.host_link_capacity = 40.0;
  topo::FatTree ft(ftp);
  routing::EcmpRouter router(ft);
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = coflows;
  wp.duration = 60.0;
  Rng rng(5);
  const auto flows =
      workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
  obs::FlightRecorder recorder(/*enabled=*/false);
  obs::TelemetrySampler sampler(recorder, 0.01);
  for (auto _ : state) {
    sim::FluidSimulator simulator(ft.network(), router, sim::SimConfig{});
    simulator.attach_recorder(&recorder);
    simulator.attach_telemetry(&sampler);
    simulator.add_flows(flows);
    auto results = simulator.run();
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_FlightRecorderDisabled)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FluidSimFailureStorm(benchmark::State& state) {
  // Datacenter-scale end-to-end: a k=48 fat-tree (27,648 hosts; hoisted
  // — building it is BM_FatTreeBuild/48's job) carrying pod-local
  // hotspot traffic through a storm of capacity drain/restore pairs.
  // Pod p's flows start at 0.5 + p and need 1 to 2 seconds of their fair
  // share of the hotspot uplink, so all of them are live across its
  // drain (1 + p) and restore (1.5 + p), and they finish at different
  // events (as in examples/scale_smoke). Every storm event dirties
  // exactly one pod's component, so the default incremental allocator
  // re-solves a few dozen flows per event where a full resolve would
  // redo the whole population. Each drain is paired with a restore to
  // the original capacity, leaving the hoisted network pristine between
  // iterations.
  topo::FatTree ft(topo::FatTreeParams{.k = 48});
  routing::EcmpRouter router(ft);
  constexpr int kStormPods = 12;
  constexpr int kPerPod = 32;
  const int hosts_per_pod = ft.host_count() / ft.pods();
  std::vector<sim::FlowSpec> flows;
  std::vector<net::LinkId> uplinks;  // each storm pod's hotspot uplink
  std::uint64_t id = 0;
  for (int p = 0; p < kStormPods; ++p) {
    const net::NodeId src = ft.host(p * hosts_per_pod);
    uplinks.push_back(*ft.network().find_link(src, ft.edge_of_host(src)));
    for (int f = 0; f < kPerPod; ++f) {
      sim::FlowSpec fs;
      fs.id = id++;
      fs.src = src;
      fs.dst = ft.host(p * hosts_per_pod + 1 + f);
      fs.bytes = sim::SimConfig{}.unit_bytes_per_second * (kPerPod + f) /
                 (kPerPod * kPerPod);
      fs.start = 0.5 + p;
      flows.push_back(fs);
    }
  }
  for (auto _ : state) {
    sim::FluidSimulator simulator(ft.network(), router, sim::SimConfig{});
    simulator.add_flows(flows);
    for (int p = 0; p < kStormPods; ++p) {
      const net::LinkId l = uplinks[static_cast<std::size_t>(p)];
      const double cap = ft.network().link(l).capacity;
      simulator.at(1.0 + p, [l](net::Network& n) {
        n.set_link_capacity(l, 0.25);
      });
      simulator.at(1.5 + p, [l, cap](net::Network& n) {
        n.set_link_capacity(l, cap);
      });
    }
    auto results = simulator.run();
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_FluidSimFailureStorm)->Unit(benchmark::kMillisecond);

void BM_PacketSimThroughput(benchmark::State& state) {
  // Packets simulated per second of wall time for one bulk transfer.
  // Router and config are hoisted; the simulator itself is single-shot
  // and constructed inside the timed region (no Pause/Resume overhead).
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  routing::EcmpRouter router(ft);
  pktsim::PktSimConfig cfg;
  cfg.unit_bytes_per_second = 1.25e8;
  cfg.min_rto = milliseconds(10);
  std::int64_t packets = 0;
  for (auto _ : state) {
    pktsim::PacketSimulator sim(ft.network(), router, cfg);
    sim.add_flow(sim::FlowSpec{1, ft.host(0), ft.host(8), 4e6, 0.0});
    auto results = sim.run();
    benchmark::DoNotOptimize(results.size());
    packets += static_cast<std::int64_t>(sim.stats().data_packets_sent +
                                         sim.stats().acks_sent);
  }
  state.SetItemsProcessed(packets);  // simulated packets per wall second
}
BENCHMARK(BM_PacketSimThroughput)->Unit(benchmark::kMillisecond);

void BM_LeafSpineFailover(benchmark::State& state) {
  sharebackup::LeafSpineParams p;
  p.leaves = 16;
  p.spines = 8;
  p.hosts_per_leaf = 8;
  p.group_size = 8;
  p.backups_per_group = 1;
  sharebackup::LeafSpineFabric fabric(p);
  sharebackup::LsPosition pos{sharebackup::LsTier::kLeaf, 3};
  for (auto _ : state) {
    auto r = fabric.fail_over(pos);
    benchmark::DoNotOptimize(r->circuit_switches_touched);
    fabric.return_to_pool(r->failed_device);
  }
}
BENCHMARK(BM_LeafSpineFailover);

}  // namespace

BENCHMARK_MAIN();
