#include "obs/slo/health_snapshot.hpp"

#include <iomanip>
#include <sstream>

#include "obs/slo/log_histogram.hpp"
#include "obs/slo/slo_monitor.hpp"

namespace sbk::obs::slo {

namespace {

/// Minimal JSON / Prometheus-label string escape (names here are plain
/// identifiers; this guards the odd metric name with a quote or slash).
[[nodiscard]] std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

HealthHistogramStat histogram_stat(std::string name,
                                   const LogHistogram& hist) {
  HealthHistogramStat hs;
  hs.name = std::move(name);
  hs.count = hist.count();
  hs.p50 = hist.quantile(0.5);
  hs.p99 = hist.quantile(0.99);
  hs.p999 = hist.quantile(0.999);
  hs.max = hist.max();
  return hs;
}

std::vector<HealthObjectiveStat> objective_stats(const SloMonitor& slo) {
  std::vector<HealthObjectiveStat> out;
  for (std::size_t i = 0; i < slo.objective_count(); ++i) {
    HealthObjectiveStat os;
    os.name = slo.objective(i).name;
    os.good = slo.good_total(i);
    os.bad = slo.bad_total(i);
    os.breaches = slo.breach_count(i);
    os.clears = slo.clear_count(i);
    os.attainment = slo.attainment(i);
    os.breached = slo.breached(i);
    out.push_back(std::move(os));
  }
  return out;
}

void write_health_json(std::ostream& os, const HealthSnapshot& snap) {
  os << std::setprecision(17);
  os << "{\"track\":" << snap.track << ",\"sequence\":" << snap.sequence
     << ",\"at\":" << snap.at << ",\"queue_depth\":" << snap.queue_depth
     << ",\"backpressure\":" << (snap.backpressure ? "true" : "false")
     << ",\"accepted\":" << snap.accepted
     << ",\"processed\":" << snap.processed
     << ",\"dropped_overflow\":" << snap.dropped_overflow
     << ",\"shed_probes\":" << snap.shed_probes
     << ",\"batches\":" << snap.batches
     << ",\"replicated\":" << (snap.replicated ? "true" : "false")
     << ",\"cluster_term\":" << snap.cluster_term
     << ",\"acting_member\":" << snap.acting_member
     << ",\"cluster_available\":" << (snap.cluster_available ? "true" : "false")
     << ",\"headless_backlog\":" << snap.headless_backlog
     << ",\"headless_seconds\":" << snap.headless_seconds
     << ",\"spare_pool\":" << snap.spare_pool
     << ",\"live_link_frac\":" << snap.live_link_frac << ",\"histograms\":[";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HealthHistogramStat& h = snap.histograms[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << escaped(h.name) << "\",\"count\":" << h.count
       << ",\"p50\":" << h.p50 << ",\"p99\":" << h.p99
       << ",\"p999\":" << h.p999 << ",\"max\":" << h.max << "}";
  }
  os << "],\"objectives\":[";
  for (std::size_t i = 0; i < snap.objectives.size(); ++i) {
    const HealthObjectiveStat& o = snap.objectives[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << escaped(o.name) << "\",\"good\":" << o.good
       << ",\"bad\":" << o.bad << ",\"breaches\":" << o.breaches
       << ",\"clears\":" << o.clears << ",\"attainment\":" << o.attainment
       << ",\"breached\":" << (o.breached ? "true" : "false") << "}";
  }
  os << "]}";
}

void write_health_prometheus(std::ostream& os, const HealthSnapshot& snap) {
  os << std::setprecision(17);
  auto gauge = [&os](const char* name, const char* help, double v) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << v << "\n";
  };
  auto counter = [&os](const char* name, const char* help, std::uint64_t v) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " counter\n";
    os << name << " " << v << "\n";
  };
  gauge("sbk_snapshot_virtual_seconds",
        "Virtual time this snapshot represents", snap.at);
  gauge("sbk_service_queue_depth", "Ingress queue depth at the snapshot",
        static_cast<double>(snap.queue_depth));
  gauge("sbk_service_backpressure", "1 while backpressure is asserted",
        snap.backpressure ? 1.0 : 0.0);
  counter("sbk_service_accepted_total", "Messages admitted to the ingress",
          snap.accepted);
  counter("sbk_service_processed_total", "Messages dispatched in batches",
          snap.processed);
  counter("sbk_service_dropped_overflow_total",
          "Messages dropped on ingress overflow", snap.dropped_overflow);
  counter("sbk_service_shed_probes_total",
          "Healthy probes shed under backpressure", snap.shed_probes);
  counter("sbk_service_batches_total", "Batches dispatched", snap.batches);
  gauge("sbk_cluster_replicated", "1 when a controller cluster is embedded",
        snap.replicated ? 1.0 : 0.0);
  gauge("sbk_cluster_term", "Current election term",
        static_cast<double>(snap.cluster_term));
  gauge("sbk_cluster_acting_member", "Member id of the acting primary",
        static_cast<double>(snap.acting_member));
  gauge("sbk_cluster_available", "1 while a usable primary is seated",
        snap.cluster_available ? 1.0 : 0.0);
  gauge("sbk_cluster_headless_backlog",
        "Reports buffered while no primary is usable",
        static_cast<double>(snap.headless_backlog));
  gauge("sbk_cluster_headless_seconds_total",
        "Cumulative virtual seconds without a usable primary",
        snap.headless_seconds);
  gauge("sbk_fabric_spare_pool", "Healthy spare switches remaining",
        static_cast<double>(snap.spare_pool));
  gauge("sbk_net_live_link_fraction", "Fraction of links currently healthy",
        snap.live_link_frac);

  if (!snap.histograms.empty()) {
    os << "# HELP sbk_latency_seconds "
          "Streaming latency quantiles per metric\n";
    os << "# TYPE sbk_latency_seconds gauge\n";
    for (const HealthHistogramStat& h : snap.histograms) {
      const std::string label = escaped(h.name);
      os << "sbk_latency_seconds{metric=\"" << label
         << "\",quantile=\"0.5\"} " << h.p50 << "\n";
      os << "sbk_latency_seconds{metric=\"" << label
         << "\",quantile=\"0.99\"} " << h.p99 << "\n";
      os << "sbk_latency_seconds{metric=\"" << label
         << "\",quantile=\"0.999\"} " << h.p999 << "\n";
      os << "sbk_latency_seconds{metric=\"" << label << "\",quantile=\"1\"} "
         << h.max << "\n";
    }
    os << "# HELP sbk_latency_count Samples recorded per metric\n";
    os << "# TYPE sbk_latency_count counter\n";
    for (const HealthHistogramStat& h : snap.histograms) {
      os << "sbk_latency_count{metric=\"" << escaped(h.name) << "\"} "
         << h.count << "\n";
    }
  }
  if (!snap.objectives.empty()) {
    os << "# HELP sbk_slo_attainment Fraction of events meeting the SLO\n";
    os << "# TYPE sbk_slo_attainment gauge\n";
    for (const HealthObjectiveStat& o : snap.objectives) {
      os << "sbk_slo_attainment{objective=\"" << escaped(o.name) << "\"} "
         << o.attainment << "\n";
    }
    os << "# HELP sbk_slo_breached 1 while the objective is in breach\n";
    os << "# TYPE sbk_slo_breached gauge\n";
    for (const HealthObjectiveStat& o : snap.objectives) {
      os << "sbk_slo_breached{objective=\"" << escaped(o.name) << "\"} "
         << (o.breached ? 1 : 0) << "\n";
    }
    os << "# HELP sbk_slo_breaches_total Breach alerts fired\n";
    os << "# TYPE sbk_slo_breaches_total counter\n";
    for (const HealthObjectiveStat& o : snap.objectives) {
      os << "sbk_slo_breaches_total{objective=\"" << escaped(o.name) << "\"} "
         << o.breaches << "\n";
    }
  }
}

void HealthLog::append(const HealthLog& other, std::uint32_t track) {
  for (const HealthSnapshot& snap : other.snapshots_) {
    snapshots_.push_back(snap);
    snapshots_.back().track = track;
  }
}

void HealthLog::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (i != 0) os << ",\n";
    write_health_json(os, snapshots_[i]);
  }
  os << "\n]\n";
}

std::string HealthLog::fingerprint() const {
  std::ostringstream os;
  for (const HealthSnapshot& snap : snapshots_) {
    write_health_json(os, snap);
    os << "\n";
  }
  std::uint64_t hash = 14695981039346656037ull;
  for (char c : os.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::ostringstream fp;
  fp << "snapshots=" << snapshots_.size() << ";h=" << std::hex << hash;
  return fp.str();
}

}  // namespace sbk::obs::slo
