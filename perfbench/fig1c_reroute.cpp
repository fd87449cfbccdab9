// Workload fig1c-reroute: fig1c_cct_slowdown's single-failure fluid
// simulations at its defaults — k=16 paper fat-tree (one rack host per
// edge, 10:1 oversubscribed), its fixed 200-coflow trace, per-link
// equal share, 2.5 Gbps units, every failure repaired at t=300.
//
// Scenario s draws its victims from sweep::derive_seed(seed, s) the way
// fig1c does: one node per switch layer and one link per link class.
// Each victim is simulated under EcmpWithGlobalRerouteRouter,
// SpiderProtectRouter and BackupRulesRouter on the plain fat-tree and
// under F10Router on the AB-wired one: 24 simulations per scenario, in
// fig1c's order. One item is one simulation: topology build, router
// build and FluidSimulator::run.
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "control/controller.hpp"
#include "net/path.hpp"
#include "routing/backup_rules.hpp"
#include "routing/f10.hpp"
#include "routing/global_reroute.hpp"
#include "routing/spider.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/fluid_sim.hpp"
#include "sweep/sweep.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "workload/coflow_gen.hpp"

namespace sbk::perfbench {
namespace {

constexpr int kK = 16;
constexpr std::size_t kCoflows = 200;
constexpr Seconds kDuration = 300.0;
/// 1 capacity unit = 2.5 Gbps, as in fig1c.
constexpr double kUnitBps = 3.125e8;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kSimsPerScenario = 24;
/// Fixed work of the traced and slowed phases: one whole scenario.
constexpr std::size_t kTracedSims = kSimsPerScenario;
/// Seeded slowdown: a spin after every route() call of the
/// global-reroute router (one target row for the self-test).
constexpr std::int64_t kSlowdownNs = 40'000;

enum SetupLayer : int { kTraceGen, kBaseline };

enum Layer : int {
  kTopoBuild,
  kRoutingBuild,
  kFluid,
  kRouteGlobal,
  kRouteF10,
  kRouteSpider,
  kRouteBackup,
  kActions,
  kCheck,
};

enum class Arch { kGlobalReroute, kSpider, kBackupRules, kF10 };
constexpr Arch kArchOrder[] = {Arch::kGlobalReroute, Arch::kSpider,
                               Arch::kBackupRules, Arch::kF10};
constexpr const char* kArchNames[] = {"global_reroute", "spider",
                                      "backup_rules", "f10"};

std::vector<std::string> layer_names() {
  return {"topo.build",           "routing.build",
          "sim.fluid",            "routing.route.global_reroute",
          "routing.route.f10",    "routing.route.spider",
          "routing.route.backup_rules", "net.actions",
          "bench.check"};
}

int route_layer(Arch arch) {
  switch (arch) {
    case Arch::kGlobalReroute: return kRouteGlobal;
    case Arch::kSpider: return kRouteSpider;
    case Arch::kBackupRules: return kRouteBackup;
    case Arch::kF10: break;
  }
  return kRouteF10;
}

topo::FatTreeParams paper_fat_tree(topo::Wiring wiring) {
  topo::FatTreeParams p{.k = kK, .wiring = wiring};
  p.hosts_per_edge = 1;  // one rack-aggregate host per edge switch
  p.host_link_capacity = 10.0 * (kK / 2);  // 10:1 oversubscription
  return p;
}

sim::SimConfig sim_config() {
  sim::SimConfig cfg;
  cfg.unit_bytes_per_second = kUnitBps;
  cfg.allocation = sim::AllocationModel::kPerLinkEqualShare;
  return cfg;
}

/// fig1c's heavy-shuffle trace (fixed seed, so every benchmark seed
/// simulates the same flows and only the victims differ).
std::vector<sim::FlowSpec> heavy_flows(const topo::FatTree& ft) {
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = kCoflows;
  wp.duration = kDuration;
  wp.width_lognorm_mu = 1.2;
  wp.reducer_bytes_xm = 1e9;
  wp.reducer_bytes_cap = 1e11;
  Rng rng(20170003);
  return workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
}

/// One scenario's victims, drawn in fig1c's order.
struct Victims {
  int pod, idx, core_idx;  // node victims
  int p2, e2, a2, c2, h2;  // link victims
};

Victims draw_victims(std::uint64_t scenario_seed, int hosts) {
  Rng rng(scenario_seed);
  auto draw = [&rng](int n) {
    return static_cast<int>(rng.uniform_index(static_cast<std::size_t>(n)));
  };
  Victims v{};
  v.pod = draw(kK);
  v.idx = draw(kK / 2);
  v.core_idx = draw(kK * kK / 4);
  v.p2 = draw(kK);
  v.e2 = draw(kK / 2);
  v.a2 = draw(kK / 2);
  v.c2 = draw(kK * kK / 4);
  v.h2 = draw(hosts);
  return v;
}

/// Item j of the sweep: scenario j / 24; within it, fig1c's order —
/// three node layers, then three link classes, each under the four
/// architectures.
struct SimSpec {
  std::size_t scenario = 0;
  bool node = true;
  int klass = 0;  ///< switch layer (node) or link class (link)
  Arch arch = Arch::kGlobalReroute;
};

SimSpec sim_spec(std::size_t j) {
  SimSpec s;
  s.scenario = j / kSimsPerScenario;
  const std::size_t r = j % kSimsPerScenario;
  s.node = r < 12;
  s.klass = static_cast<int>((r % 12) / 4);
  s.arch = kArchOrder[r % 4];
  return s;
}

std::unique_ptr<routing::Router> make_router(Arch arch,
                                             const topo::FatTree& ft) {
  switch (arch) {
    case Arch::kGlobalReroute:
      return std::make_unique<routing::EcmpWithGlobalRerouteRouter>(ft, 1);
    case Arch::kSpider:
      return std::make_unique<routing::SpiderProtectRouter>(ft, 1);
    case Arch::kBackupRules:
      return std::make_unique<routing::BackupRulesRouter>(ft, 1);
    case Arch::kF10: break;
  }
  return std::make_unique<routing::F10Router>(ft, 1);
}

struct Input {
  std::vector<sim::FlowSpec> flows;
  int hosts = 0;
};

struct SimResult {
  std::uint64_t digest = 0;  ///< over every coflow's (id, CCT)
  bool all_completed = false;
  std::size_t allocation_rounds = 0;
  std::size_t recompute_skips = 0;
};

/// Per-item observers of the traced run (all null when untraced).
struct SimTrace {
  Tracer* tracer = nullptr;
  /// Spin after each global-reroute route() call.
  std::int64_t slowdown_ns = 0;
  std::int64_t* injected = nullptr;
};

/// Runs simulation `j`. `item_ns` receives the timed part: topology
/// and router build, FluidSimulator::run, and their teardown.
SimResult run_sim(const Input& in, std::uint64_t seed, std::size_t j,
                  const SimTrace& tr, std::int64_t& item_ns) {
  const SimSpec spec = sim_spec(j);
  const Victims v = draw_victims(sweep::derive_seed(seed, spec.scenario),
                                 in.hosts);
  const std::int64_t t0 = now_ns();
  std::unique_ptr<topo::FatTree> ft;
  {
    Span span(tr.tracer, kTopoBuild);
    ft = std::make_unique<topo::FatTree>(paper_fat_tree(
        spec.arch == Arch::kF10 ? topo::Wiring::kAb : topo::Wiring::kPlain));
  }
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<TimedRouter> timed;
  {
    Span span(tr.tracer, kRoutingBuild);
    router = make_router(spec.arch, *ft);
    if (tr.tracer != nullptr) {
      timed = std::make_unique<TimedRouter>(
          *router, tr.tracer, route_layer(spec.arch),
          spec.arch == Arch::kGlobalReroute ? tr.slowdown_ns : 0,
          tr.injected);
    }
  }
  SimResult out;
  std::vector<sim::FlowResult> results;
  {
    Span span(tr.tracer, kFluid);
    sim::FluidSimulator simulator(
        ft->network(), timed ? static_cast<routing::Router&>(*timed) : *router,
        sim_config());
    simulator.add_flows(in.flows);
    std::function<void(net::Network&)> fail, restore;
    if (spec.node) {
      net::NodeId victim = spec.klass == 0   ? ft->edge(v.pod, v.idx)
                           : spec.klass == 1 ? ft->agg(v.pod, v.idx)
                                             : ft->core(v.core_idx);
      fail = [victim](net::Network& n) { n.fail_node(victim); };
      restore = [victim](net::Network& n) { n.restore_node(victim); };
    } else {
      net::LinkId victim =
          spec.klass == 0
              ? ft->host_link(ft->host(v.h2))
          : spec.klass == 1
              ? *ft->network().find_link(ft->edge(v.p2, v.e2),
                                         ft->agg(v.p2, v.a2))
              : *ft->network().find_link(ft->core(v.c2),
                                         ft->agg_for_core(v.c2, v.p2));
      fail = [victim](net::Network& n) { n.fail_link(victim); };
      restore = [victim](net::Network& n) { n.restore_link(victim); };
    }
    Tracer* tracer = tr.tracer;
    simulator.at(0.0, [tracer, fail](net::Network& n) {
      Span action(tracer, kActions);
      fail(n);
    });
    simulator.at(kDuration, [tracer, restore](net::Network& n) {
      Span action(tracer, kActions);
      restore(n);
    });
    results = simulator.run();
    out.allocation_rounds = simulator.allocation_rounds();
    out.recompute_skips = simulator.recompute_skips();
  }
  // Teardown is part of the item: the routers' path caches are large.
  {
    Span span(tr.tracer, kRoutingBuild);
    timed.reset();
    router.reset();
  }
  {
    Span span(tr.tracer, kTopoBuild);
    ft.reset();
  }
  item_ns = now_ns() - t0;

  Span span(tr.tracer, kCheck);
  out.all_completed = true;
  for (const sim::FlowResult& f : results) {
    out.all_completed =
        out.all_completed && f.outcome == sim::FlowOutcome::kCompleted;
  }
  Digest d;
  for (const sim::CoflowResult& c : sim::aggregate_coflows(results)) {
    d.add(c.id);
    d.add_double(c.all_completed ? c.cct() : -1.0);
  }
  out.digest = d.value();
  return out;
}

/// Coflow completion times of a finished simulation (fig1c's run_ccts).
std::map<sim::CoflowId, double> ccts_of(
    const std::vector<sim::FlowResult>& results) {
  std::map<sim::CoflowId, double> ccts;
  for (const sim::CoflowResult& c : sim::aggregate_coflows(results)) {
    if (c.all_completed && c.cct() > 0.0) ccts[c.id] = c.cct();
  }
  return ccts;
}

/// fig1c's ShareBackup series: the same flows on a ShareBackup fabric,
/// one switch failed mid-run and replaced after the controller's
/// end-to-end recovery latency. Returns true when every affected
/// coflow's slowdown prints as 1.00 at fig1c's precision (%.2f) and no
/// coflow is left unfinished.
bool sharebackup_keeps_slowdown_one(
    const Input& in, const std::map<sim::CoflowId, double>& healthy,
    const std::vector<net::Path>& healthy_paths, topo::SwitchPosition pos,
    const char* label, bool print) {
  sharebackup::FabricParams fp;
  fp.fat_tree = paper_fat_tree(topo::Wiring::kPlain);
  sharebackup::Fabric fabric(fp);
  control::Controller ctrl(fabric, control::ControllerConfig{});
  routing::EcmpWithGlobalRerouteRouter router(fabric.fat_tree(), 1);
  sim::SimConfig cfg = sim_config();
  cfg.reroute_on_path_failure = false;  // paths pinned; fabric repairs
  sim::FluidSimulator simulator(fabric.network(), router, cfg);
  simulator.add_flows(in.flows);
  const net::NodeId victim = fabric.node_at(pos);
  const Seconds recover = ctrl.end_to_end_recovery_latency();
  simulator.at(kDuration / 2,
               [victim](net::Network& n) { n.fail_node(victim); });
  simulator.at(kDuration / 2 + recover, [&](net::Network&) {
    (void)ctrl.on_switch_failure(pos);
  });
  const std::map<sim::CoflowId, double> failed = ccts_of(simulator.run());
  std::set<sim::CoflowId> affected;
  for (std::size_t i = 0; i < in.flows.size(); ++i) {
    if (net::path_uses_node(healthy_paths[i], victim)) {
      affected.insert(in.flows[i].coflow);
    }
  }
  std::size_t unfinished = 0, checked = 0;
  bool ok = true;
  char text[32];
  for (const auto& [id, base] : healthy) {
    const auto it = failed.find(id);
    if (it == failed.end()) {
      ++unfinished;
      continue;
    }
    if (!affected.contains(id)) continue;
    ++checked;
    std::snprintf(text, sizeof text, "%.2f", it->second / base);
    ok = ok && std::string(text) == "1.00";
  }
  if (print) {
    std::printf("ShareBackup, %s: %zu affected coflows, slowdown 1.00 for "
                "all: %s, unfinished %zu\n",
                label, checked, ok ? "yes" : "NO", unfinished);
  }
  return ok && unfinished == 0 && checked > 0;
}

struct SimPhase : TracedPhase {
  SimPhase() : TracedPhase(layer_names()) {}
  std::int64_t items_ns = 0;  ///< the timed part of each simulation
  std::size_t allocation_rounds = 0;
  std::size_t recompute_skips = 0;
};

}  // namespace

Outcome run_fig1c_reroute(const Options& opt) {
  Outcome out;

  // Set-up, repeated: the trace, fig1c's healthy fat-tree baseline and
  // its two ShareBackup replacement runs (checked), and one untimed
  // warm-up simulation (item 0, which the timed phase runs again).
  Input in;
  std::vector<double> setup_s;
  Tracer setup_tracer({"workload.trace_gen", "sim.baseline"});
  SimResult warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const bool last = rep + 1 == kSetupRepeats;
    Tracer* tracer = last ? &setup_tracer : nullptr;
    if (last) setup_tracer.begin_item(0);
    const std::int64_t t0 = now_ns();
    {
      Span span(tracer, kTraceGen);
      const topo::FatTree plain(paper_fat_tree(topo::Wiring::kPlain));
      in.flows = heavy_flows(plain);
      in.hosts = plain.host_count();
    }
    bool sharebackup_ok = false;
    {
      Span span(tracer, kBaseline);
      topo::FatTree plain(paper_fat_tree(topo::Wiring::kPlain));
      routing::EcmpWithGlobalRerouteRouter router(plain, 1);
      sim::FluidSimulator healthy_sim(plain.network(), router, sim_config());
      healthy_sim.add_flows(in.flows);
      const std::map<sim::CoflowId, double> healthy =
          ccts_of(healthy_sim.run());
      std::vector<net::Path> paths;
      paths.reserve(in.flows.size());
      for (const sim::FlowSpec& f : in.flows) {
        paths.push_back(f.src == f.dst ? net::Path{{f.src}, {}}
                                       : router.route(plain.network(), f.src,
                                                      f.dst, f.id, nullptr));
      }
      const bool agg = sharebackup_keeps_slowdown_one(
          in, healthy, paths, {topo::Layer::kAgg, 0, 0}, "agg", last);
      const bool edge = sharebackup_keeps_slowdown_one(
          in, healthy, paths, {topo::Layer::kEdge, 0, 0}, "edge", last);
      sharebackup_ok = agg && edge;
    }
    std::int64_t unused = 0;
    warmup = run_sim(in, opt.seed, 0, {}, unused);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (last) {
      out.check(sharebackup_ok,
                "ShareBackup keeps every affected coflow's slowdown at 1.00");
    }
  }
  std::printf("fig1c-reroute: k=%d, %zu coflows -> %zu flows, %zu "
              "simulations per scenario\n",
              kK, kCoflows, in.flows.size(), kSimsPerScenario);

  // Timed phase: whole scenarios until the budget is spent. The
  // simulation-time percentiles are taken over the 24 simulation kinds
  // (failure class x router) of each kind's median over the scenarios.
  std::vector<double> item_ms;
  std::vector<std::uint64_t> digests;
  std::int64_t items_ns = 0;
  const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  while (now_ns() - start < budget ||
         digests.size() % kSimsPerScenario != 0) {
    const std::size_t j = digests.size();
    std::int64_t dt = 0;
    const SimResult r = run_sim(in, opt.seed, j, {}, dt);
    items_ns += dt;
    item_ms.push_back(static_cast<double>(dt) / 1e6);
    digests.push_back(r.digest);
    out.check(r.all_completed,
              "simulation " + std::to_string(j) + ": every flow completes");
  }
  out.check(digests.front() == warmup.digest,
            "simulation 0 reproduces the warm-up simulation");
  const double throughput = static_cast<double>(digests.size()) /
                            (static_cast<double>(items_ns) / 1e9);
  const double p50_ms = cycle_percentile(item_ms, kSimsPerScenario, 50.0);
  const double p90_ms = cycle_percentile(item_ms, kSimsPerScenario, 90.0);
  std::printf("timed: %zu simulations (%zu scenarios) in %.6f s, %.4f "
              "sims/s; per simulation, percentile over the %zu kinds of "
              "each kind's median: p50 %.3f ms, p90 %.3f ms (all %zu "
              "samples pooled: p50 %.3f ms, p90 %.3f ms)\n",
              digests.size(), digests.size() / kSimsPerScenario,
              static_cast<double>(items_ns) / 1e9, throughput,
              kSimsPerScenario, p50_ms, p90_ms, item_ms.size(),
              percentile(item_ms, 50.0), percentile(item_ms, 90.0));

  if (!opt.trace) {
    out.add("throughput_per_s", throughput, "1/s");
    out.add("step_p50_ms", p50_ms, "ms");
    out.add("step_tail_ms", p90_ms, "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", util::peak_rss_mb(), "MB");
    return out;
  }

  // Traced phase over one whole scenario, and the same simulations with
  // the seeded slowdown in the global-reroute router decorator,
  // interleaved simulation by simulation so that both phases share
  // whatever else the host is doing.
  std::vector<std::uint64_t> traced_digests;
  auto run_item = [&](SimPhase& ph, std::size_t j,
                      std::int64_t slowdown_ns, const std::string& name) {
    const SimTrace tr{&ph.tracer, slowdown_ns, &ph.injected_ns};
    const std::int64_t t0 = now_ns();
    ph.tracer.begin_item(j);
    std::int64_t dt = 0;
    const SimResult r = run_sim(in, opt.seed, j, tr, dt);
    ph.items_ns += dt;
    ph.allocation_rounds += r.allocation_rounds;
    ph.recompute_skips += r.recompute_skips;
    {
      Span span(&ph.tracer, kCheck);
      const std::string what = name + " simulation " + std::to_string(j);
      out.check(r.all_completed, what + ": every flow completes");
      if (slowdown_ns == 0) {
        traced_digests.push_back(r.digest);
        if (j < digests.size()) {
          out.check(r.digest == digests[j],
                    what + " reproduces the untraced CCT digest");
        }
      } else {
        out.check(r.digest == traced_digests[j],
                  what + " reproduces the traced CCT digest");
      }
    }
    ph.wall_ns += now_ns() - t0;
  };
  SimPhase clean;
  SimPhase slowed;
  for (std::size_t j = 0; j < kTracedSims; ++j) {
    run_item(clean, j, 0, "traced");
    run_item(slowed, j, kSlowdownNs, "slowed");
  }

  const double traced_throughput =
      static_cast<double>(kTracedSims) /
      (static_cast<double>(clean.items_ns) / 1e9);
  report_trace(out, opt, &setup_tracer, clean, slowed, kRouteGlobal,
               throughput, traced_throughput);

  const Tracer& t = clean.tracer;
  out.add("workload.trace_gen_s", setup_tracer.self_s(kTraceGen), "s");
  out.add("sim.baseline_s", setup_tracer.self_s(kBaseline), "s");
  out.add("topo.build_s", t.self_s(kTopoBuild), "s");
  out.add("routing.build_s", t.self_s(kRoutingBuild), "s");
  out.add("sim.fluid_self_s", t.self_s(kFluid), "s");
  out.add("net.actions_s", t.self_s(kActions), "s");
  out.add("bench.check_s", t.self_s(kCheck), "s");
  out.add("sim.allocation_rounds",
          static_cast<double>(clean.allocation_rounds), "count");
  out.add("sim.ns_per_allocation_round",
          clean.allocation_rounds == 0
              ? 0.0
              : static_cast<double>(t.totals(kFluid).self_ns) /
                    static_cast<double>(clean.allocation_rounds),
          "ns");
  const std::size_t events = clean.allocation_rounds + clean.recompute_skips;
  out.add("sim.recompute_skip_frac",
          events == 0 ? 0.0
                      : static_cast<double>(clean.recompute_skips) /
                            static_cast<double>(events),
          "frac");
  for (std::size_t a = 0; a < 4; ++a) {
    const Tracer::LayerTotals lt = t.totals(route_layer(kArchOrder[a]));
    out.add(std::string("routing.route_calls.") + kArchNames[a],
            static_cast<double>(lt.count), "count");
    out.add(std::string("routing.route_ns.") + kArchNames[a],
            static_cast<double>(lt.self_ns), "ns");
  }
  return out;
}

}  // namespace sbk::perfbench
