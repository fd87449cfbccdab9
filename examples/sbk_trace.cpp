// Trace analyzer CLI for flight-recorder exports.
//
//   sbk_trace summary   trace.json [--top=N]
//   sbk_trace service   trace.json
//   sbk_trace incidents trace.json [--window=seconds]
//   sbk_trace slo       trace.json
//   sbk_trace check     trace.json
//
// `summary` aggregates spans by (category, name) and prints the top
// groups by cumulative wall-clock time (simulated time when no wall
// clock was recorded), with per-group wall-time percentiles.
//
// `service` digests the "service" category a ControllerService records:
// batch spans (count, size-weighted virtual service time), queue-depth
// counter samples, sampled decision latencies (p50/p99), backpressure
// on/off edges with total asserted virtual time, and overflow/shed
// instants.
//
// `incidents` reconstructs recovery incidents from the "recovery" spans
// (exported from a RecoveryTracer) and prints each incident's stage
// timeline, then how each "telemetry" counter series on the incident's
// own track moved in a window around it — the paper's
// utilization-dips-then-restores picture, per incident.
//
// `slo` digests the "slo" category an SloMonitor records: the burn-rate
// alert timeline (every slo_breach/slo_clear instant with its burn
// rates and any linked recovery incidents, per track) and the final
// per-objective attainment from the slo_attainment instants the
// monitor's finish() emits.
//
// `check` validates the file: it must parse as trace_event JSON (the
// loader enforces the schema), every event must be named with a
// non-negative duration, recovery spans must be monotone within each
// incident, and no incident may recover before its injection. Exits
// non-zero on any failure, so CI can gate on it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace_load.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

using sbk::obs::TraceEvent;
using sbk::obs::TracePhase;

namespace {

struct Options {
  std::string command;
  std::string trace_path;
  std::size_t top = 10;
  double window = 0.05;
};

int usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "sbk_trace: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: sbk_trace summary   <trace.json> [--top=N]\n"
               "       sbk_trace service   <trace.json>\n"
               "       sbk_trace incidents <trace.json> [--window=seconds]\n"
               "       sbk_trace slo       <trace.json>\n"
               "       sbk_trace check     <trace.json>\n");
  return 2;
}

std::vector<TraceEvent> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  // Distinguish the two common half-written exports up front: a
  // zero-byte file (the writer died before flushing anything) and a
  // file cut off mid-JSON. The parser's raw byte-offset error means
  // little without this context.
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    throw std::runtime_error(
        path + " is empty - not a trace export (was the recorder enabled"
               " and the writer flushed?)");
  }
  std::istringstream stream(text);
  try {
    return sbk::obs::load_trace_json(stream);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": truncated or malformed trace: " +
                             e.what());
  }
}

/// Pulls `key=<value>` out of a ';'-separated detail string ("" when
/// absent).
std::string detail_field(const std::string& detail, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < detail.size()) {
    std::size_t end = detail.find(';', pos);
    if (end == std::string::npos) end = detail.size();
    if (detail.compare(pos, needle.size(), needle) == 0) {
      return detail.substr(pos + needle.size(), end - pos - needle.size());
    }
    pos = end + 1;
  }
  return "";
}

// --- summary -----------------------------------------------------------------

struct SpanGroup {
  std::size_t count = 0;
  double wall_us_sum = 0.0;
  double sim_sum = 0.0;
  std::vector<double> wall_us;
};

int cmd_summary(const Options& opt) {
  std::vector<TraceEvent> events = load(opt.trace_path);
  std::map<std::pair<std::string, std::string>, SpanGroup> groups;
  std::size_t spans = 0, instants = 0, counters = 0;
  std::set<std::uint32_t> tracks;
  for (const TraceEvent& e : events) {
    tracks.insert(e.track);
    if (e.phase == TracePhase::kInstant) { ++instants; continue; }
    if (e.phase == TracePhase::kCounter) { ++counters; continue; }
    ++spans;
    SpanGroup& g = groups[{e.category, e.name}];
    ++g.count;
    g.sim_sum += e.dur;
    if (e.wall_us >= 0.0) {
      g.wall_us_sum += e.wall_us;
      g.wall_us.push_back(e.wall_us);
    }
  }
  std::printf("%zu events (%zu spans, %zu instants, %zu counters) on %zu "
              "track(s)\n\n",
              events.size(), spans, instants, counters, tracks.size());

  std::vector<std::pair<std::pair<std::string, std::string>, SpanGroup>>
      sorted(groups.begin(), groups.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second.wall_us_sum != b.second.wall_us_sum) {
      return a.second.wall_us_sum > b.second.wall_us_sum;
    }
    return a.second.sim_sum > b.second.sim_sum;
  });
  std::printf("top span groups by cumulative wall time:\n");
  std::printf("  %-32s %10s %12s %12s %12s\n", "category/name", "count",
              "wall ms", "p50 us", "p99 us");
  std::size_t shown = 0;
  for (const auto& [key, g] : sorted) {
    if (shown++ >= opt.top) break;
    double p50 = 0.0, p99 = 0.0;
    if (!g.wall_us.empty()) {
      // cdf_percentile handles the single-sample case by returning the
      // sample itself for every percentile.
      std::vector<sbk::CdfPoint> cdf = sbk::empirical_cdf(g.wall_us);
      p50 = sbk::cdf_percentile(cdf, 50.0);
      p99 = sbk::cdf_percentile(cdf, 99.0);
    }
    std::printf("  %-32s %10zu %12.3f %12.2f %12.2f\n",
                (key.first + "/" + key.second).c_str(), g.count,
                g.wall_us_sum / 1e3, p50, p99);
  }
  return 0;
}

// --- service -----------------------------------------------------------------

int cmd_service(const Options& opt) {
  std::vector<TraceEvent> events = load(opt.trace_path);
  std::size_t batches = 0;
  double batch_sim_sum = 0.0;
  double span_lo = 0.0, span_hi = 0.0;
  bool have_span = false;
  std::vector<double> depth_samples;
  std::vector<double> latency_us;
  std::size_t overflow_drops = 0, probe_sheds = 0, drains = 0;
  // Failover digest (replicated service only; all zero for the
  // single-controller service).
  std::size_t crashes = 0, repairs = 0, failovers = 0;
  std::vector<double> headless_windows;
  // Backpressure edges come in (on, off) pairs in virtual-time order;
  // a trailing unmatched "on" is closed at the last service event.
  std::size_t bp_on = 0;
  double bp_time = 0.0, bp_since = 0.0;
  bool bp_open = false;
  for (const TraceEvent& e : events) {
    if (e.category != "service") continue;
    if (!have_span) { span_lo = span_hi = e.ts; have_span = true; }
    span_lo = std::min(span_lo, e.ts);
    span_hi = std::max(span_hi, e.ts + e.dur);
    if (e.phase == TracePhase::kComplete && e.name == "batch") {
      ++batches;
      batch_sim_sum += e.dur;
    } else if (e.phase == TracePhase::kCounter) {
      if (e.name == "queue_depth") depth_samples.push_back(e.value);
      if (e.name == "decision_latency_us") latency_us.push_back(e.value);
      if (e.name == "headless_window_s") headless_windows.push_back(e.value);
    } else if (e.phase == TracePhase::kInstant) {
      if (e.name == "overflow_drop") ++overflow_drops;
      if (e.name == "probe_shed") ++probe_sheds;
      if (e.name == "drained") ++drains;
      if (e.name == "controller_crash") ++crashes;
      if (e.name == "controller_repair") ++repairs;
      if (e.name == "failover") ++failovers;
      if (e.name == "backpressure_on") {
        ++bp_on;
        bp_open = true;
        bp_since = e.ts;
      }
      if (e.name == "backpressure_off" && bp_open) {
        bp_time += e.ts - bp_since;
        bp_open = false;
      }
    }
  }
  if (!have_span) {
    std::printf("no \"service\" events in %s\n", opt.trace_path.c_str());
    return 1;
  }
  if (bp_open) bp_time += span_hi - bp_since;

  std::printf("service trace over %.6f virtual seconds\n", span_hi - span_lo);
  std::printf("  batches              %10zu  (%.3f virtual ms in service)\n",
              batches, batch_sim_sum * 1e3);
  if (!depth_samples.empty()) {
    double peak = 0.0, sum = 0.0;
    for (double d : depth_samples) {
      peak = std::max(peak, d);
      sum += d;
    }
    std::printf("  queue depth          %10zu samples  mean %.1f  peak %.0f\n",
                depth_samples.size(), sum / depth_samples.size(), peak);
  }
  if (!latency_us.empty()) {
    std::vector<sbk::CdfPoint> cdf = sbk::empirical_cdf(latency_us);
    std::printf("  decision latency     %10zu samples  p50 %.1f us"
                "  p99 %.1f us\n",
                latency_us.size(), sbk::cdf_percentile(cdf, 50.0),
                sbk::cdf_percentile(cdf, 99.0));
  }
  std::printf("  backpressure         %10zu engagement(s), %.3f virtual ms"
              " asserted\n",
              bp_on, bp_time * 1e3);
  std::printf("  overflow drops       %10zu\n", overflow_drops);
  std::printf("  probes shed          %10zu\n", probe_sheds);
  std::printf("  drain completions    %10zu\n", drains);
  if (crashes + repairs + failovers + headless_windows.size() > 0) {
    double headless_sum = 0.0, headless_max = 0.0;
    for (double w : headless_windows) {
      headless_sum += w;
      headless_max = std::max(headless_max, w);
    }
    std::printf("  controller crashes   %10zu\n", crashes);
    std::printf("  controller repairs   %10zu\n", repairs);
    std::printf("  failovers            %10zu\n", failovers);
    std::printf("  headless windows     %10zu  total %.3f virtual ms"
                "  max %.3f ms\n",
                headless_windows.size(), headless_sum * 1e3,
                headless_max * 1e3);
  }
  return 0;
}

// --- incidents ---------------------------------------------------------------

struct Incident {
  std::uint32_t track = 0;
  std::string detail;  ///< element#id
  std::vector<const TraceEvent*> stages;
  double injected = 0.0;
  double recovered = -1.0;
};

std::vector<Incident> collect_incidents(const std::vector<TraceEvent>& events) {
  std::map<std::pair<std::uint32_t, std::string>, Incident> by_key;
  for (const TraceEvent& e : events) {
    if (e.category != "recovery" || e.detail.empty()) continue;
    Incident& inc = by_key[{e.track, e.detail}];
    inc.track = e.track;
    inc.detail = e.detail;
    if (e.phase == TracePhase::kInstant && e.name == "recovered") {
      inc.recovered = e.ts;
    } else if (e.phase == TracePhase::kComplete) {
      inc.stages.push_back(&e);
    }
  }
  std::vector<Incident> out;
  for (auto& [key, inc] : by_key) {
    if (inc.stages.empty()) continue;
    std::stable_sort(inc.stages.begin(), inc.stages.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->ts < b->ts;
                     });
    inc.injected = inc.stages.front()->ts;
    out.push_back(std::move(inc));
  }
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    if (a.track != b.track) return a.track < b.track;
    return a.injected < b.injected;
  });
  return out;
}

/// One sampled series of a track: a "telemetry" counter name, with its
/// samples in time order.
struct Series {
  std::string name;
  std::vector<const TraceEvent*> samples;
};

/// The "telemetry" counter series of each track, in the order each name
/// first appears there (the sampler's registration order).
std::map<std::uint32_t, std::vector<Series>> collect_telemetry(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<Series>> by_track;
  for (const TraceEvent& e : events) {
    if (e.phase != TracePhase::kCounter || e.category != "telemetry") {
      continue;
    }
    std::vector<Series>& track = by_track[e.track];
    auto it = std::find_if(track.begin(), track.end(),
                           [&e](const Series& s) { return s.name == e.name; });
    if (it == track.end()) it = track.insert(track.end(), Series{e.name, {}});
    it->samples.push_back(&e);
  }
  return by_track;
}

int cmd_incidents(const Options& opt) {
  std::vector<TraceEvent> events = load(opt.trace_path);
  std::vector<Incident> incidents = collect_incidents(events);
  const std::map<std::uint32_t, std::vector<Series>> telemetry =
      collect_telemetry(events);
  std::printf("%zu recovery incident(s)\n", incidents.size());
  for (const Incident& inc : incidents) {
    if (inc.recovered >= 0.0) {
      std::printf("\n[track %u] %s  injected %.6fs  recovered in %.3f ms\n",
                  inc.track, inc.detail.c_str(), inc.injected,
                  (inc.recovered - inc.injected) * 1e3);
    } else {
      std::printf("\n[track %u] %s  injected %.6fs  still open\n", inc.track,
                  inc.detail.c_str(), inc.injected);
    }
    for (const TraceEvent* s : inc.stages) {
      std::printf("    %-20s %.6fs  +%.3f ms\n", s->name.c_str(), s->ts,
                  s->dur * 1e3);
    }
    const auto track = telemetry.find(inc.track);
    if (track == telemetry.end()) continue;
    // Telemetry window around the incident, from the same track.
    const double lo = inc.injected - opt.window;
    const double hi =
        (inc.recovered >= 0.0 ? inc.recovered : inc.injected) + opt.window;
    for (const Series& series : track->second) {
      double mn = 0.0, mx = 0.0, first = 0.0, last = 0.0;
      std::size_t n = 0;
      for (const TraceEvent* e : series.samples) {
        if (e->ts < lo || e->ts > hi) continue;
        const double v = e->value;
        if (n == 0) { mn = mx = first = v; }
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        last = v;
        ++n;
      }
      if (n == 0) continue;
      std::printf("    ~ %-28s %zu samples in +/-%.0fms window: "
                  "first %.4f  min %.4f  max %.4f  last %.4f\n",
                  series.name.c_str(), n, opt.window * 1e3, first, mn, mx,
                  last);
    }
  }
  return 0;
}

// --- slo ---------------------------------------------------------------------

int cmd_slo(const Options& opt) {
  std::vector<TraceEvent> events = load(opt.trace_path);
  // Alert timeline: breach/clear instants in (track, time) order — the
  // recorder already merges scenarios in scenario order, so a stable
  // sort by track keeps each track's virtual-time ordering intact.
  std::vector<const TraceEvent*> alerts;
  std::vector<const TraceEvent*> attainments;
  for (const TraceEvent& e : events) {
    if (e.category != "slo" || e.phase != TracePhase::kInstant) continue;
    if (e.name == "slo_breach" || e.name == "slo_clear") {
      alerts.push_back(&e);
    } else if (e.name == "slo_attainment") {
      attainments.push_back(&e);
    }
  }
  if (alerts.empty() && attainments.empty()) {
    std::printf("no \"slo\" events in %s (was the SLO engine enabled?)\n",
                opt.trace_path.c_str());
    return 1;
  }
  std::stable_sort(alerts.begin(), alerts.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->track < b->track;
                   });

  std::printf("%zu burn-rate alert(s)\n", alerts.size());
  for (const TraceEvent* e : alerts) {
    const std::string objective = detail_field(e->detail, "objective");
    const std::string burn_long = detail_field(e->detail, "burn_long");
    const std::string burn_short = detail_field(e->detail, "burn_short");
    const std::string incidents = detail_field(e->detail, "incidents");
    std::printf("  [track %3u] %-10s %-24s at %.6fs  burn long %s short %s",
                e->track, e->name == "slo_breach" ? "BREACH" : "clear",
                objective.c_str(), e->ts, burn_long.c_str(),
                burn_short.c_str());
    if (!incidents.empty()) {
      std::printf("  incidents %s", incidents.c_str());
    }
    std::printf("\n");
  }

  // Per-objective attainment: one slo_attainment instant per objective
  // per run; aggregate good/bad across tracks so a sweep digests to one
  // row per objective.
  struct Attain {
    double good = 0.0, bad = 0.0;
    double breaches = 0.0, clears = 0.0;
    std::size_t runs = 0;
  };
  std::map<std::string, Attain> per_objective;
  for (const TraceEvent* e : attainments) {
    Attain& a = per_objective[detail_field(e->detail, "objective")];
    a.good += std::atof(detail_field(e->detail, "good").c_str());
    a.bad += std::atof(detail_field(e->detail, "bad").c_str());
    a.breaches += std::atof(detail_field(e->detail, "breaches").c_str());
    a.clears += std::atof(detail_field(e->detail, "clears").c_str());
    ++a.runs;
  }
  if (!per_objective.empty()) {
    std::printf("\nper-objective attainment:\n");
    std::printf("  %-24s %12s %12s %12s %10s %10s\n", "objective", "good",
                "bad", "attainment", "breaches", "clears");
    for (const auto& [name, a] : per_objective) {
      const double total = a.good + a.bad;
      std::printf("  %-24s %12.0f %12.0f %12.6f %10.0f %10.0f\n",
                  name.c_str(), a.good, a.bad,
                  total > 0.0 ? a.good / total : 1.0, a.breaches, a.clears);
    }
  }
  return 0;
}

// --- check -------------------------------------------------------------------

int cmd_check(const Options& opt) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      ++failures;
    }
  };

  std::vector<TraceEvent> events = load(opt.trace_path);  // throws on schema
  std::printf("parsed %zu trace event(s)\n", events.size());
  for (const TraceEvent& e : events) {
    expect(e.dur >= 0.0, "span duration is non-negative");
    expect(!e.name.empty(), "every event is named");
    if (failures > 0) break;  // one representative failure is enough
  }

  std::vector<Incident> incidents = collect_incidents(events);
  for (const Incident& inc : incidents) {
    double prev_start = -1e300;
    for (const TraceEvent* s : inc.stages) {
      expect(s->ts >= prev_start - 1e-9,
             inc.detail + ": recovery spans are monotone");
      prev_start = s->ts;
    }
    if (inc.recovered >= 0.0) {
      expect(inc.recovered >= inc.injected - 1e-9,
             inc.detail + ": recovery does not precede injection");
    }
  }
  std::printf("%zu recovery incident(s) monotone\n", incidents.size());

  if (failures == 0) std::printf("trace check: OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const sbk::cli::ParseResult args = sbk::cli::parse_args(
      argc, argv, {{"top", true}, {"window", true}}, /*max_positional=*/2);
  if (!args.ok()) return usage(args.error);

  Options opt;
  if (auto top = args.value_of("top")) {
    const auto n = sbk::cli::parse_int(*top);
    if (!n || *n < 0) return usage("--top wants a non-negative integer");
    opt.top = static_cast<std::size_t>(*n);
  }
  if (auto window = args.value_of("window")) {
    const auto w = sbk::cli::parse_double(*window);
    if (!w || *w < 0.0) {
      return usage("--window wants a non-negative number of seconds");
    }
    opt.window = *w;
  }
  if (args.positional.size() < 2) return usage();
  opt.command = args.positional[0];
  opt.trace_path = args.positional[1];
  try {
    if (opt.command == "summary") return cmd_summary(opt);
    if (opt.command == "service") return cmd_service(opt);
    if (opt.command == "incidents") return cmd_incidents(opt);
    if (opt.command == "slo") return cmd_slo(opt);
    if (opt.command == "check") return cmd_check(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbk_trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
