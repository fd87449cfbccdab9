// Cost explorer: interactive-style CLI over the Table 2 cost model.
// Prints the full cost breakdown for a given (k, n) and both media, the
// relative overhead versus the rerouting alternatives, and the
// scalability envelope for a given circuit-switch port budget.
//
//   $ ./build/examples/cost_explorer --k=48 --n=2 --ports=32
#include <cstdio>
#include <optional>

#include "cost/cost_model.hpp"
#include "util/cli.hpp"

using namespace sbk::cost;

namespace {
void print_breakdown(const char* name, const CostBreakdown& c) {
  std::printf("  %-22s circuit ports $%12.0f | packet ports $%12.0f | "
              "links $%12.0f | total $%13.0f\n",
              name, c.circuit_ports, c.packet_ports, c.links, c.total());
}
}  // namespace

int main(int argc, char** argv) {
  const std::optional<sbk::cli::IntFlags> flags = sbk::cli::parse_int_flags(
      argc, argv, {{"k", 48}, {"n", 1}, {"ports", 32}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  const int n = static_cast<int>(flags->get("n"));
  const int ports = static_cast<int>(flags->get("ports"));

  std::printf("ShareBackup cost explorer: k=%d, n=%d  (%d hosts, backup "
              "ratio %.2f%%)\n\n",
              k, n, k * k * k / 4, backup_ratio(k, n) * 100);

  for (Medium m : {Medium::kElectrical, Medium::kOptical}) {
    PriceSet p = PriceSet::for_medium(m);
    std::printf("%s data center (a=$%.0f, b=$%.0f, c=$%.0f):\n",
                m == Medium::kElectrical ? "Electrical (copper DAC)"
                                         : "Optical (fiber)",
                p.circuit_port_a, p.packet_port_b, p.link_c);
    CostBreakdown base = fat_tree_cost(k, p);
    CostBreakdown sb = sharebackup_additional(k, n, p);
    CostBreakdown aspen = aspen_additional(k, p);
    CostBreakdown one = one_to_one_additional(k, p);
    print_breakdown("fat-tree (base)", base);
    print_breakdown("ShareBackup (+)", sb);
    print_breakdown("Aspen Tree (+)", aspen);
    print_breakdown("1:1 backup (+)", one);
    std::printf("  => ShareBackup adds %.1f%% to the fat-tree; Aspen adds "
                "%.1f%% (%.1fx more); 1:1 adds %.1f%%\n\n",
                relative_additional(sb, base) * 100,
                relative_additional(aspen, base) * 100,
                aspen.total() / sb.total(),
                relative_additional(one, base) * 100);
  }

  auto counts = sharebackup_counts(k, n);
  std::printf("Hardware added by ShareBackup:\n");
  std::printf("  %lld backup switches across %d failure groups\n",
              counts.backup_switches, 5 * k / 2);
  std::printf("  %lld circuit switches, dimension %d x %d\n",
              counts.circuit_switches, k / 2 + n + 2, k / 2 + n + 2);
  std::printf("  %.0f whole-link cable equivalents\n\n", counts.extra_cables);

  std::printf("Scalability with %d-port circuit switches (k/2+n+2 <= %d):\n",
              ports, ports);
  for (int nn = 1; nn <= 6; ++nn) {
    int max_k = max_k_for_ports(ports, nn);
    if (max_k < 4) break;
    std::printf("  n=%d -> up to k=%d (%d hosts), backup ratio %.2f%%\n", nn,
                max_k, max_k * max_k * max_k / 4,
                backup_ratio(max_k, nn) * 100);
  }
  return 0;
}
