// Experiment E7 — §5.1: capacity to handle failures.
//
//   * Backup ratios n/(k/2) vs the ~0.01% switch failure rate;
//   * Monte-Carlo estimate of how often a failure group sees more than n
//     concurrent switch failures, with the paper's reliability numbers:
//     99.99% device availability, failures lasting a few minutes;
//   * link-failure capacity: n independent link failures per group
//     (up to kn links rooted at n switches), demonstrated on the fabric.
//
// The Monte-Carlo cells run through sweep::SweepRunner: each cell's
// simulated horizon is split into independent shards with their own
// derived RNG streams, so the years of simulated time spread across
// cores while staying bit-identical to --threads=1 / SBK_THREADS=1.
#include <chrono>
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "cost/cost_model.hpp"
#include "sharebackup/fabric.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

using namespace sbk;

namespace {

/// Simulates one failure group of `members` switches for `horizon`
/// seconds: each switch fails independently (exponential inter-failure
/// times tuned so availability = 99.99% with MTTR = 5 min) and repairs
/// after MTTR. Returns the fraction of time more than n members are down
/// simultaneously, plus the count of overflow episodes.
struct GroupSim {
  double overflow_time = 0.0;
  std::size_t overflow_episodes = 0;
  std::size_t failures = 0;

  bool operator==(const GroupSim&) const = default;

  void merge(const GroupSim& other) {
    overflow_time += other.overflow_time;
    overflow_episodes += other.overflow_episodes;
    failures += other.failures;
  }
};

GroupSim simulate_group(int members, int n, Seconds horizon, Rng& rng) {
  const Seconds mttr = minutes(5);
  const double unavailability = 1e-4;                 // 99.99% availability
  const Seconds mtbf = mttr / unavailability - mttr;  // ~833 hours

  // Event-free simulation: draw each member's alternating up/down
  // timeline and sweep the merged change points.
  std::vector<std::pair<Seconds, int>> changes;  // (time, +1 down / -1 up)
  for (int m = 0; m < members; ++m) {
    Seconds t = 0.0;
    while (t < horizon) {
      t += rng.exponential(1.0 / mtbf);
      if (t >= horizon) break;
      changes.push_back({t, +1});
      Seconds up = std::min(t + mttr, horizon);
      changes.push_back({up, -1});
      t = up;
    }
  }
  std::sort(changes.begin(), changes.end());
  GroupSim out;
  int down = 0;
  Seconds last = 0.0;
  bool in_overflow = false;
  for (auto [t, delta] : changes) {
    if (down > n) out.overflow_time += t - last;
    down += delta;
    if (delta > 0) ++out.failures;
    if (down > n && !in_overflow) {
      in_overflow = true;
      ++out.overflow_episodes;
    }
    if (down <= n) in_overflow = false;
    last = t;
  }
  return out;
}

struct Cell {
  int k;
  int n;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags =
      cli::parse_int_flags(argc, argv, {{"years", 25}, {"threads", 0}});
  if (!flags.has_value()) return 2;
  const auto years = static_cast<double>(flags->get("years"));
  const auto threads = static_cast<std::size_t>(flags->get("threads"));
  bench::banner("E7 / §5.1 — capacity to handle failures",
                "Backup ratios; Monte-Carlo group-overflow probability "
                "(99.99% availability, 5-minute repairs); kn link capacity.");

  std::printf("Backup ratios (vs ~0.01%% switch failure rate):\n");
  std::printf("%-5s %-4s %12s %14s\n", "k", "n", "ratio", "vs 0.01%");
  for (auto [k, n] : {std::pair{16, 1}, {48, 1}, {48, 4}, {58, 1}, {48, 6}}) {
    double ratio = cost::backup_ratio(k, n);
    std::printf("%-5d %-4d %11.2f%% %13.0fx\n", k, n, ratio * 100,
                ratio / 1e-4);
    bench::csv_row({"ratio", std::to_string(k), std::to_string(n),
                    bench::fmt(ratio)});
  }

  std::printf("\nMonte-Carlo: fraction of time a k/2-member failure group "
              "has more than n\nconcurrent switch failures (simulated %.0f "
              "years per cell):\n", years);
  std::printf("%-5s %-8s %14s %16s %12s\n", "k", "n", "P[overflow]",
              "episodes/year", "fails/year");

  // Sweep layout: each (k, n) cell is sharded into independent slices of
  // the simulated horizon; scenario i covers shard i % kShards of cell
  // i / kShards. Sharding trades a negligible edge effect (an outage
  // spanning a shard boundary is counted once per shard) for even
  // per-task granularity across cores.
  const std::vector<Cell> cells{{16, 0}, {16, 1}, {16, 2},
                                {48, 0}, {48, 1}, {48, 2}};
  constexpr std::size_t kShards = 8;
  const Seconds horizon = years * 365.25 * 24 * 3600;
  const Seconds shard_horizon = horizon / static_cast<double>(kShards);

  auto scenario_fn = [&](const sweep::ScenarioSpec& spec) {
    const Cell& cell = cells[spec.index / kShards];
    Rng rng = spec.rng();
    return simulate_group(cell.k / 2, cell.n, shard_horizon, rng);
  };

  sweep::SweepRunner runner({.master_seed = 31, .threads = threads});
  auto t0 = std::chrono::steady_clock::now();
  auto shards = runner.run(cells.size() * kShards, scenario_fn);
  double parallel_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (std::size_t c = 0; c < cells.size(); ++c) {
    GroupSim g;
    for (std::size_t s = 0; s < kShards; ++s) g.merge(shards[c * kShards + s]);
    std::printf("%-5d %-8d %14.3g %16.4f %12.1f\n", cells[c].k, cells[c].n,
                g.overflow_time / horizon,
                static_cast<double>(g.overflow_episodes) / years,
                static_cast<double>(g.failures) / years);
    bench::csv_row({"overflow", std::to_string(cells[c].k),
                    std::to_string(cells[c].n),
                    bench::fmt(g.overflow_time / horizon, 6),
                    bench::fmt(static_cast<double>(g.overflow_episodes) /
                               years)});
  }
  std::printf("(n=1 already pushes group overflow to ~zero: concurrent "
              "same-group failures\nwithin a 5-minute repair window are "
              "vanishingly rare.)\n");

  if (runner.threads() > 1) {
    sweep::SweepRunner reference({.master_seed = 31, .threads = 1});
    t0 = std::chrono::steady_clock::now();
    auto ref_shards = reference.run(cells.size() * kShards, scenario_fn);
    double serial_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("sweep: %zu shards, threads=%zu: %.2fs; threads=1: %.2fs; "
                "speedup %.2fx; parallel==serial: %s\n",
                shards.size(), runner.threads(), parallel_s, serial_s,
                parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
                shards == ref_shards ? "yes" : "NO (determinism bug)");
    bench::csv_row({"sweep-speedup", std::to_string(runner.threads()),
                    bench::fmt(serial_s), bench::fmt(parallel_s),
                    bench::fmt(parallel_s > 0.0 ? serial_s / parallel_s : 0.0)});
  }

  // --- link-failure capacity on the real fabric -------------------------
  std::printf("\nLink-failure capacity (k=8, n=2): a group absorbs n "
              "independent link\nfailure events; each can root up to k "
              "failed links at one switch:\n");
  sharebackup::FabricParams fp;
  fp.fat_tree.k = 8;
  fp.backups_per_group = 2;
  sharebackup::Fabric fabric(fp);
  control::Controller ctrl(fabric, control::ControllerConfig{});

  // Edge switch (0,0) loses ALL its uplinks at once (k/2 links, one
  // faulty switch): a single backup absorbs the whole event, because the
  // controller re-probes each reported link before consuming backups.
  net::NodeId sick_edge = fabric.fat_tree().edge(0, 0);
  std::vector<net::LinkId> sick_links;
  for (int a = 0; a < 4; ++a) {
    net::LinkId l = *fabric.network().find_link(sick_edge,
                                                fabric.fat_tree().agg(0, a));
    fabric.ground_link_failure(l, sick_edge);
    sick_links.push_back(l);
  }
  std::size_t recovered_links = 0;
  for (net::LinkId l : sick_links) {
    if (ctrl.on_link_failure(l).recovered) ++recovered_links;
  }
  ctrl.run_pending_diagnosis();
  std::printf("  %zu/4 uplink failures of one sick edge switch recovered; "
              "backups consumed:\n  edge group: %zu, agg group: %zu "
              "(diagnosis returned every healthy agg)\n",
              recovered_links,
              2 - fabric.spares(topo::Layer::kEdge, 0).size(),
              2 - fabric.spares(topo::Layer::kAgg, 0).size());
  bench::csv_row({"link-capacity", std::to_string(recovered_links),
                  std::to_string(2 - fabric.spares(topo::Layer::kEdge, 0).size()),
                  std::to_string(2 - fabric.spares(topo::Layer::kAgg, 0).size())});
  return 0;
}
