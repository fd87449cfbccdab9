#include "control/failure_detector.hpp"

#include "util/assert.hpp"

namespace sbk::control {

std::string element_name(const net::Network& net, ReportedElement element) {
  if (const auto* node = std::get_if<net::NodeId>(&element)) {
    return "node:" + net.node(*node).name;
  }
  const net::Link& l = net.link(std::get<net::LinkId>(element));
  return "link:" + net.node(l.a).name + "-" + net.node(l.b).name;
}

FailureDetector::FailureDetector(sim::EventQueue& queue,
                                 const net::Network& net,
                                 DetectorConfig config)
    : queue_(&queue),
      net_(&net),
      config_(config),
      node_watch_(net.node_count()),
      link_watch_(net.link_count()) {
  SBK_EXPECTS(config_.probe_interval > 0.0);
  SBK_EXPECTS(config_.miss_threshold >= 1);
  SBK_EXPECTS(config_.phase >= 0.0);
  SBK_EXPECTS(config_.report_retry_interval >= 0.0);
}

bool FailureDetector::report_due(const WatchState& w) const {
  if (w.misses < config_.miss_threshold) return false;
  if (!w.reported) return true;
  // Already reported: re-report a still-failed element periodically so a
  // lost report does not strand the failure forever.
  return config_.report_retry_interval > 0.0 &&
         queue_->now() - w.last_report >=
             config_.report_retry_interval - 1e-12;
}

void FailureDetector::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_node_probes_ = m_link_probes_ = m_misses_ = nullptr;
    m_node_reports_ = m_link_reports_ = nullptr;
    return;
  }
  m_node_probes_ = &metrics->counter("detector.node_probes");
  m_link_probes_ = &metrics->counter("detector.link_probes");
  m_misses_ = &metrics->counter("detector.misses");
  m_node_reports_ = &metrics->counter("detector.node_failures_reported");
  m_link_reports_ = &metrics->counter("detector.link_failures_reported");
}

void FailureDetector::trace_detection(ReportedElement element,
                                      Seconds first_miss,
                                      Seconds detected_at) {
  if (tracer_ == nullptr) return;
  std::size_t inc =
      tracer_->ensure_incident(element_name(*net_, element), first_miss);
  // Anchor at the injection time when the injector announced itself (it
  // precedes the first miss); otherwise the miss streak is the best
  // observable start of the detection window.
  Seconds start = std::min(tracer_->injected_at(inc), first_miss);
  tracer_->add_span(inc, "detection", start, detected_at);
}

void FailureDetector::watch_node(net::NodeId node, Seconds horizon) {
  SBK_EXPECTS(node.index() < net_->node_count());
  if (node.index() >= node_watch_.size()) {
    node_watch_.resize(net_->node_count());
  }
  WatchState& w = node_watch_[node.index()];
  w.watched = true;
  w.misses = 0;
  w.reported = false;
  w.horizon = horizon;
  if (w.chain_scheduled) return;  // reuse the existing probe chain
  Seconds first = queue_->now() + config_.phase + config_.probe_interval;
  if (first <= horizon) {
    w.chain_scheduled = true;
    queue_->schedule_at(first, [this, node] { probe_node(node); });
  }
}

void FailureDetector::watch_link(net::LinkId link, Seconds horizon) {
  SBK_EXPECTS(link.index() < net_->link_count());
  if (link.index() >= link_watch_.size()) {
    link_watch_.resize(net_->link_count());
  }
  WatchState& w = link_watch_[link.index()];
  w.watched = true;
  w.misses = 0;
  w.reported = false;
  w.horizon = horizon;
  if (w.chain_scheduled) return;  // reuse the existing probe chain
  Seconds first = queue_->now() + config_.phase + config_.probe_interval;
  if (first <= horizon) {
    w.chain_scheduled = true;
    queue_->schedule_at(first, [this, link] { probe_link(link); });
  }
}

void FailureDetector::probe_node(net::NodeId node) {
  WatchState& w = node_watch_[node.index()];
  if (m_node_probes_) m_node_probes_->add();
  // The keep-alive arrives iff the node is up.
  if (net_->node_failed(node)) {
    if (w.misses == 0) w.first_miss = queue_->now();
    ++w.misses;
    if (m_misses_) m_misses_->add();
    if (report_due(w)) {
      bool first_report = !w.reported;
      w.reported = true;
      w.last_report = queue_->now();
      if (m_node_reports_) m_node_reports_->add();
      if (first_report) {
        trace_detection(node, w.first_miss, queue_->now());
      }
      if (node_cb_) node_cb_(node, queue_->now());
    }
  } else {
    w.misses = 0;
  }
  // Re-read the state: the callback may have re-watched or re-armed
  // (and a watch of a newly added element may have grown the vector).
  WatchState& w2 = node_watch_[node.index()];
  Seconds next = queue_->now() + config_.probe_interval;
  if (next <= w2.horizon) {
    queue_->schedule_at(next, [this, node] { probe_node(node); });
  } else {
    w2.chain_scheduled = false;
  }
}

void FailureDetector::probe_link(net::LinkId link) {
  WatchState& w = link_watch_[link.index()];
  if (m_link_probes_) m_link_probes_->add();
  // A link probe succeeds iff the link and both endpoints are up. A dead
  // endpoint is detected by the node keep-alives; the link path still
  // fails its probes, but a node-failure report takes precedence at the
  // controller, so we only report when both endpoints are alive.
  const net::Link& l = net_->link(link);
  bool endpoints_up = !net_->node_failed(l.a) && !net_->node_failed(l.b);
  if (net_->link_failed(link) && endpoints_up) {
    if (w.misses == 0) w.first_miss = queue_->now();
    ++w.misses;
    if (m_misses_) m_misses_->add();
    if (report_due(w)) {
      bool first_report = !w.reported;
      w.reported = true;
      w.last_report = queue_->now();
      if (m_link_reports_) m_link_reports_->add();
      if (first_report) {
        trace_detection(link, w.first_miss, queue_->now());
      }
      if (link_cb_) link_cb_(link, queue_->now());
    }
  } else if (!net_->link_failed(link)) {
    w.misses = 0;
  }
  WatchState& w2 = link_watch_[link.index()];
  Seconds next = queue_->now() + config_.probe_interval;
  if (next <= w2.horizon) {
    queue_->schedule_at(next, [this, link] { probe_link(link); });
  } else {
    w2.chain_scheduled = false;
  }
}

void FailureDetector::rearm_node(net::NodeId node) {
  if (node.index() >= node_watch_.size()) return;
  WatchState& w = node_watch_[node.index()];
  if (!w.watched) return;  // never watched: nothing to re-arm
  w.misses = 0;
  w.reported = false;
  if (!w.chain_scheduled) {
    Seconds next = queue_->now() + config_.probe_interval;
    if (next <= w.horizon) {
      w.chain_scheduled = true;
      queue_->schedule_at(next, [this, node] { probe_node(node); });
    }
  }
}

void FailureDetector::rearm_link(net::LinkId link) {
  if (link.index() >= link_watch_.size()) return;
  WatchState& w = link_watch_[link.index()];
  if (!w.watched) return;  // never watched: nothing to re-arm
  w.misses = 0;
  w.reported = false;
  if (!w.chain_scheduled) {
    Seconds next = queue_->now() + config_.probe_interval;
    if (next <= w.horizon) {
      w.chain_scheduled = true;
      queue_->schedule_at(next, [this, link] { probe_link(link); });
    }
  }
}

}  // namespace sbk::control
