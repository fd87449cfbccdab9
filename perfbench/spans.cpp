#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"

namespace sbk::perfbench {

std::int64_t spin_ns(std::int64_t ns) {
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  while (t - t0 < ns) t = now_ns();
  return t - t0;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cout << "CHECK FAILED: " << what << "\n";
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double cycle_percentile(const std::vector<double>& values, std::size_t period,
                        double p) {
  std::vector<double> kinds;
  for (std::size_t k = 0; k < period && k < values.size(); ++k) {
    std::vector<double> times;
    for (std::size_t j = k; j < values.size(); j += period) {
      times.push_back(values[j]);
    }
    kinds.push_back(median(std::move(times)));
  }
  return percentile(std::move(kinds), p);
}

Tracer::Tracer(std::vector<std::string> layer_names)
    : names_(std::move(layer_names)) {
  stack_.reserve(16);
}

void Tracer::begin_item(std::uint64_t id) {
  items_.push_back({id, std::vector<LayerTotals>(names_.size())});
}

void Tracer::begin(int layer) {
  stack_.push_back({layer, now_ns(), 0});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - f.start;
  LayerTotals& lt = items_.back().layers[static_cast<std::size_t>(f.layer)];
  ++lt.count;
  lt.total_ns += dur;
  lt.self_ns += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

Tracer::LayerTotals Tracer::totals(int layer) const {
  LayerTotals sum;
  for (const Item& item : items_) {
    const LayerTotals& lt = item.layers[static_cast<std::size_t>(layer)];
    sum.count += lt.count;
    sum.total_ns += lt.total_ns;
    sum.self_ns += lt.self_ns;
  }
  return sum;
}

std::int64_t Tracer::attributed_ns() const {
  std::int64_t sum = 0;
  for (std::size_t l = 0; l < names_.size(); ++l) {
    sum += totals(static_cast<int>(l)).self_ns;
  }
  return sum;
}

void Tracer::write_json(std::string& out) const {
  std::ostringstream os;
  os << "{\"layers\":[";
  for (std::size_t l = 0; l < names_.size(); ++l) {
    os << (l == 0 ? "" : ",") << "\"" << names_[l] << "\"";
  }
  os << "],\"items\":[";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"id\":" << items_[i].id << ",\"spans\":[";
    bool first = true;
    for (std::size_t l = 0; l < names_.size(); ++l) {
      const LayerTotals& lt = items_[i].layers[l];
      if (lt.count == 0) continue;
      os << (first ? "" : ",") << "[" << l << "," << lt.count << ","
         << lt.total_ns << "," << lt.self_ns << "]";
      first = false;
    }
    os << "]}";
  }
  os << "]}";
  out += os.str();
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

namespace {

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string stamp_json(const Options& opt) {
  std::ostringstream os;
  os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"seconds\":" << opt.seconds
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"nproc\":" << online_cpus()
     << ",\"compiler\":\"" << compiler() << "\",\"build_type\":\""
     << SBK_PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

namespace {

/// Largest unattributed share of a traced phase's wall time that the
/// reconciliation accepts.
constexpr double kMaxUnattributedFrac = 0.05;
/// Seeded-slowdown tolerance, as a share of the injected total: the
/// target layer must grow by the injected total within it, and no other
/// row (unattributed included) may move by more than it.
constexpr double kSlowdownTolerance = 0.15;

/// Checks that self times are non-negative, every span closed, and the
/// unattributed remainder within kMaxUnattributedFrac; returns the
/// unattributed share.
double reconcile(Outcome& out, const Tracer& tracer, std::int64_t wall_ns,
                 std::string_view phase) {
  bool nonneg = true;
  for (std::size_t l = 0; l < tracer.layer_count(); ++l) {
    nonneg = nonneg && tracer.totals(static_cast<int>(l)).self_ns >= 0;
  }
  out.check(tracer.balanced() && nonneg,
            std::string(phase) + ": every span closed, no negative self time");
  const std::int64_t unattributed = wall_ns - tracer.attributed_ns();
  const double frac = wall_ns > 0 ? static_cast<double>(unattributed) /
                                        static_cast<double>(wall_ns)
                                  : 0.0;
  std::printf("%s: wall %.6f s = attributed %.6f s + unattributed %.6f s "
              "(%.4f of wall, limit %.2f)\n",
              std::string(phase).c_str(), static_cast<double>(wall_ns) / 1e9,
              static_cast<double>(tracer.attributed_ns()) / 1e9,
              static_cast<double>(unattributed) / 1e9, frac,
              kMaxUnattributedFrac);
  out.check(unattributed >= 0 && frac <= kMaxUnattributedFrac,
            std::string(phase) + ": layers reconcile to the wall time");
  return frac;
}

void slowdown_selftest(Outcome& out, const TracedPhase& clean_phase,
                       const TracedPhase& slowed_phase, int target) {
  const Tracer& clean = clean_phase.tracer;
  const Tracer& slowed = slowed_phase.tracer;
  const std::int64_t injected_ns = slowed_phase.injected_ns;
  const double tol = kSlowdownTolerance * static_cast<double>(injected_ns);
  std::printf("seeded slowdown: %.6f s injected at %s; every row must move "
              "by its expected delta within +-%.6f s (%.0f%% of injected)\n",
              static_cast<double>(injected_ns) / 1e9,
              clean.name(target).c_str(), tol / 1e9,
              kSlowdownTolerance * 100.0);
  bool ok = true;
  auto row = [&](const std::string& name, double delta, double expected) {
    const bool row_ok = std::fabs(delta - expected) <= tol;
    ok = ok && row_ok;
    std::printf("  %-34s delta %+.6f s  expected %+.6f s  %s\n",
                name.c_str(), delta / 1e9, expected / 1e9,
                row_ok ? "ok" : "OUT OF TOLERANCE");
  };
  for (std::size_t l = 0; l < clean.layer_count(); ++l) {
    const int layer = static_cast<int>(l);
    const double delta =
        static_cast<double>(slowed.totals(layer).self_ns -
                            clean.totals(layer).self_ns);
    row(clean.name(layer), delta,
        layer == target ? static_cast<double>(injected_ns) : 0.0);
  }
  const double un_clean =
      static_cast<double>(clean_phase.wall_ns - clean.attributed_ns());
  const double un_slowed =
      static_cast<double>(slowed_phase.wall_ns - slowed.attributed_ns());
  row("(unattributed)", un_slowed - un_clean, 0.0);
  out.check(ok, "seeded slowdown shows in " + clean.name(target) +
                    " and in no other row");
}

/// Writes the traced run's span tables, stamped, to opt.trace_out.
void write_trace_file(
    const Options& opt,
    const std::vector<std::pair<std::string, const Tracer*>>& phases) {
  if (opt.trace_out.empty()) return;
  std::string body = "{\"stamp\":" + stamp_json(opt) + ",\"phases\":{";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    body += (i == 0 ? "\"" : ",\"") + phases[i].first + "\":";
    phases[i].second->write_json(body);
  }
  body += "}}\n";
  std::ofstream f(opt.trace_out);
  f << body;
  if (!f.good()) {
    std::cerr << "perfbench: could not write " << opt.trace_out << "\n";
  }
}

}  // namespace

void report_trace(Outcome& out, const Options& opt, const Tracer* setup,
                  const TracedPhase& clean, const TracedPhase& slowed,
                  int target, double untraced_throughput,
                  double traced_throughput) {
  const double unattributed =
      reconcile(out, clean.tracer, clean.wall_ns, "traced");
  reconcile(out, slowed.tracer, slowed.wall_ns, "slowed");
  slowdown_selftest(out, clean, slowed, target);
  std::vector<std::pair<std::string, const Tracer*>> phases;
  if (setup != nullptr) phases.emplace_back("setup", setup);
  phases.emplace_back("traced", &clean.tracer);
  phases.emplace_back("slowed", &slowed.tracer);
  write_trace_file(opt, phases);
  out.add("trace.wall_s", static_cast<double>(clean.wall_ns) / 1e9, "s");
  out.add("trace.items", static_cast<double>(clean.tracer.item_count()),
          "count");
  out.add("trace.unattributed_frac", unattributed, "frac");
  out.add("trace.overhead_frac",
          untraced_throughput / traced_throughput - 1.0, "frac");
}

}  // namespace sbk::perfbench
