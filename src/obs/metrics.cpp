#include "obs/metrics.hpp"

#include "util/csv.hpp"
#include "util/json.hpp"

namespace sbk::obs {

namespace {

// Lookup-or-create over one instrument family. The deque keeps element
// addresses stable across growth, which is what lets the registry hand
// out long-lived references. `make` constructs the instrument (it runs
// inside a MetricsRegistry member, where the private constructors are
// accessible).
template <typename T, typename Make>
T& intern(std::string_view name, std::deque<T>& items,
          std::vector<std::string>& names,
          std::unordered_map<std::string, std::size_t>& index, Make make) {
  auto it = index.find(std::string(name));
  if (it != index.end()) return items[it->second];
  items.push_back(make());
  names.emplace_back(name);
  index.emplace(names.back(), items.size() - 1);
  return items.back();
}

template <typename T>
const T* find(std::string_view name, const std::deque<T>& items,
              const std::unordered_map<std::string, std::size_t>& index) {
  auto it = index.find(std::string(name));
  return it == index.end() ? nullptr : &items[it->second];
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return intern(name, counters_, counter_names_, counter_index_,
                [this] { return Counter(&enabled_); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return intern(name, gauges_, gauge_names_, gauge_index_,
                [this] { return Gauge(&enabled_); });
}

LatencyHistogram& MetricsRegistry::latency(std::string_view name) {
  return intern(name, latencies_, latency_names_, latency_index_,
                [this] { return LatencyHistogram(&enabled_); });
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find(name, counters_, counter_index_);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find(name, gauges_, gauge_index_);
}

const LatencyHistogram* MetricsRegistry::find_latency(
    std::string_view name) const {
  return find(name, latencies_, latency_index_);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  if (!enabled_) return;
  for (std::size_t i = 0; i < other.counter_names_.size(); ++i) {
    counter(other.counter_names_[i]).add(other.counters_[i].value_);
  }
  for (std::size_t i = 0; i < other.gauge_names_.size(); ++i) {
    gauge(other.gauge_names_[i]).value_ = other.gauges_[i].value_;
  }
  for (std::size_t i = 0; i < other.latency_names_.size(); ++i) {
    latency(other.latency_names_[i]).merge_from(other.latencies_[i]);
  }
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.row({"kind", "name", "count", "sum", "mean", "min", "max", "p50",
           "p99"});
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    csv.row({"counter", counter_names_[i],
             CsvWriter::num(static_cast<std::size_t>(counters_[i].value())),
             "", "", "", "", "", ""});
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    csv.row({"gauge", gauge_names_[i], "",
             CsvWriter::num(gauges_[i].value()), "", "", "", "", ""});
  }
  for (std::size_t i = 0; i < latency_names_.size(); ++i) {
    const LatencyHistogram& l = latencies_[i];
    if (l.empty()) {
      csv.row({"latency", latency_names_[i], "0", "", "", "", "", "", ""});
      continue;
    }
    csv.row({"latency", latency_names_[i],
             CsvWriter::num(static_cast<std::size_t>(l.count())),
             CsvWriter::num(l.sum()), CsvWriter::num(l.mean()),
             CsvWriter::num(l.min()), CsvWriter::num(l.max()),
             CsvWriter::num(l.percentile(50.0)),
             CsvWriter::num(l.percentile(99.0))});
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(counter_names_[i])
        << "\":" << counters_[i].value();
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(gauge_names_[i])
        << "\":" << CsvWriter::num(gauges_[i].value());
  }
  out << "},\"latencies\":{";
  for (std::size_t i = 0; i < latency_names_.size(); ++i) {
    if (i > 0) out << ",";
    const LatencyHistogram& l = latencies_[i];
    out << "\"" << json_escape(latency_names_[i]) << "\":{\"count\":"
        << l.count();
    if (!l.empty()) {
      out << ",\"sum\":" << CsvWriter::num(l.sum())
          << ",\"mean\":" << CsvWriter::num(l.mean())
          << ",\"min\":" << CsvWriter::num(l.min())
          << ",\"max\":" << CsvWriter::num(l.max())
          << ",\"p50\":" << CsvWriter::num(l.percentile(50.0))
          << ",\"p99\":" << CsvWriter::num(l.percentile(99.0));
    }
    out << "}";
  }
  out << "}}";
}

}  // namespace sbk::obs
