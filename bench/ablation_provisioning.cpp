// Ablation A2 — backup provisioning: sweep the number of backups per
// failure group (uniform n, and the §6 non-uniform variant) against
// survivability and cost. Survivability is measured operationally: a
// year-long Poisson failure storm replayed against the real fabric +
// controller, counting unrecovered failures.
//
// Each provisioning row is an independent (seed, scenario) simulation —
// its own fabric, controller, and derived RNG stream — so the rows fan
// out across cores through sweep::SweepRunner and stay bit-identical to
// a --threads=1 run.
#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "cost/cost_model.hpp"
#include "sharebackup/fabric.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

using namespace sbk;

namespace {

struct StormOutcome {
  std::size_t failures = 0;
  std::size_t recovered = 0;
  std::size_t unrecovered = 0;

  bool operator==(const StormOutcome&) const = default;
};

/// Replays `events` switch failures over `years` against the fabric:
/// each failure picks a uniform random in-service position, consumes a
/// backup via the controller, and is repaired (device healed, returned
/// to the pool) after a 5-minute MTTR. Time advances event by event.
StormOutcome failure_storm(sharebackup::Fabric& fabric, double years,
                           Rng& rng) {
  control::Controller ctrl(fabric, control::ControllerConfig{});
  const int k = fabric.k();
  const int half = k / 2;

  std::vector<topo::SwitchPosition> positions;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      positions.push_back({topo::Layer::kEdge, pod, j});
      positions.push_back({topo::Layer::kAgg, pod, j});
    }
  }
  for (int c = 0; c < half * half; ++c) {
    positions.push_back({topo::Layer::kCore, -1, c});
  }

  // 99.99% availability, 5-minute MTTR => per-device failure rate.
  const Seconds mttr = minutes(5);
  const double rate_per_device = 1e-4 / mttr;  // failures per second
  const double total_rate =
      rate_per_device * static_cast<double>(positions.size());
  const Seconds horizon = years * 365.25 * 24 * 3600;

  struct Repair {
    Seconds when;
    sharebackup::DeviceUid device;
  };
  std::vector<Repair> repairs;

  StormOutcome out;
  Seconds now = 0.0;
  while (true) {
    now += rng.exponential(total_rate);
    if (now >= horizon) break;
    // Complete due repairs first.
    for (auto it = repairs.begin(); it != repairs.end();) {
      if (it->when <= now) {
        ctrl.on_device_repaired(it->device);
        it = repairs.erase(it);
      } else {
        ++it;
      }
    }
    ++out.failures;
    auto pos = positions[rng.uniform_index(positions.size())];
    net::NodeId node = fabric.node_at(pos);
    if (fabric.network().node_failed(node)) continue;  // already down
    fabric.network().fail_node(node);
    auto outcome = ctrl.on_switch_failure(pos);
    if (outcome.recovered) {
      ++out.recovered;
      repairs.push_back({now + mttr, outcome.failovers[0].failed_device});
    } else {
      ++out.unrecovered;
      // The dead switch is eventually fixed in place.
      fabric.network().restore_node(node);
    }
  }
  return out;
}

/// One provisioning configuration under study.
struct ProvisioningRow {
  const char* label;
  int n, ne, na, nc;
};

/// Storm outcome plus the fabric census the cost column needs.
struct RowResult {
  StormOutcome storm;
  std::size_t backup_switches = 0;

  bool operator==(const RowResult&) const = default;
};

sharebackup::FabricParams fabric_params(int k, const ProvisioningRow& row) {
  sharebackup::FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = row.n;
  p.backups_edge = row.ne;
  p.backups_agg = row.na;
  p.backups_core = row.nc;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags = cli::parse_int_flags(
      argc, argv, {{"k", 8}, {"years", 50}, {"threads", 0}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  const auto years = static_cast<double>(flags->get("years"));
  const auto threads = static_cast<std::size_t>(flags->get("threads"));
  bench::banner("A2 / ablation — backup provisioning vs survivability & cost",
                "Year-scale Poisson failure storms (99.99% availability, "
                "5-min MTTR) against the real fabric + controller; "
                "k=" + std::to_string(k) + ", " +
                    std::to_string(static_cast<int>(years)) +
                    " simulated years per row.");

  cost::PriceSet prices = cost::PriceSet::electrical();
  double base_cost = cost::fat_tree_cost(k, prices).total();

  const std::vector<ProvisioningRow> rows{
      {"uniform n=0", 0, -1, -1, -1},
      {"uniform n=1", 1, -1, -1, -1},
      {"uniform n=2", 2, -1, -1, -1},
      // §6 non-uniform: racks are the single point of failure, so shift
      // budget toward edge groups.
      {"edge=2, agg=1, core=1", 1, 2, 1, 1},
      {"edge=2, agg=1, core=0", 1, 2, 1, 0},
      {"edge=1, agg=1, core=0", 1, 1, 1, 0},
  };

  // One sweep scenario per provisioning row: fabric + controller are
  // scenario-private (the storm mutates both) and the storm draws from
  // the scenario's derived RNG stream.
  auto scenario_fn = [&](const sweep::ScenarioSpec& spec) {
    sharebackup::Fabric fabric(fabric_params(k, rows[spec.index]));
    Rng rng = spec.rng();
    RowResult out;
    out.storm = failure_storm(fabric, years, rng);
    out.backup_switches = fabric.census().backup_switches;
    return out;
  };

  sweep::SweepRunner runner({.master_seed = 77, .threads = threads});
  auto t0 = std::chrono::steady_clock::now();
  auto results = runner.run(rows.size(), scenario_fn);
  double parallel_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%-26s %10s %11s %13s %14s\n", "provisioning", "failures",
              "recovered", "unrecovered", "added cost");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProvisioningRow& row = rows[i];
    const StormOutcome& o = results[i].storm;
    sharebackup::FabricParams p = fabric_params(k, row);
    // Cost: per-layer backup hardware at the Table 2 unit prices. The
    // circuit-port term uses the largest n (switch dimension must fit).
    int max_n = std::max(
        {p.backups_for(topo::Layer::kEdge), p.backups_for(topo::Layer::kAgg),
         p.backups_for(topo::Layer::kCore)});
    double backups = static_cast<double>(results[i].backup_switches);
    double added =
        1.5 * k * k * (k / 2.0 + max_n + 2.0) * prices.circuit_port_a +
        backups * k * prices.packet_port_b +
        backups * k * 0.5 * prices.link_c;
    std::printf("%-26s %10zu %11zu %13zu %9.1f%% FT\n", row.label, o.failures,
                o.recovered, o.unrecovered, added / base_cost * 100);
    bench::csv_row({row.label, std::to_string(o.failures),
                    std::to_string(o.recovered),
                    std::to_string(o.unrecovered),
                    bench::fmt(added / base_cost)});
  }

  if (runner.threads() > 1) {
    sweep::SweepRunner reference({.master_seed = 77, .threads = 1});
    t0 = std::chrono::steady_clock::now();
    auto ref_results = reference.run(rows.size(), scenario_fn);
    double serial_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("\nsweep: %zu storms, threads=%zu: %.2fs; threads=1: %.2fs; "
                "speedup %.2fx; parallel==serial: %s\n",
                rows.size(), runner.threads(), parallel_s, serial_s,
                parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
                results == ref_results ? "yes" : "NO (determinism bug)");
    bench::csv_row({"sweep-speedup", std::to_string(runner.threads()),
                    bench::fmt(serial_s), bench::fmt(parallel_s),
                    bench::fmt(parallel_s > 0.0 ? serial_s / parallel_s : 0.0)});
  }

  std::printf(
      "\nReading: uniform n=1 recovers essentially every failure —\n"
      "concurrent same-group failures within a 5-minute repair window are\n"
      "rare — and n=2 removes even those. Non-uniform provisioning is a\n"
      "*targeting* knob: edge=2 doubles protection for the only failure\n"
      "class that takes down racks, while core=0 deliberately leaves core\n"
      "failures unrecovered — the one class ECMP rerouting degrades most\n"
      "gracefully — in exchange for a smaller hardware bill.\n");
  return 0;
}
