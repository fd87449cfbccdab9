// Discrete-event failure detection (§4.1): switches send keep-alive
// messages to the controller every probe interval; adjacent devices probe
// their links the same way (the F10 rapid-detection mechanism the paper
// adopts). A failure is declared after `miss_threshold` consecutive
// missed probes, and the registered callback fires with the detection
// timestamp — which the recovery-latency experiments compare against the
// injection timestamp.
//
// Probe-chain contract:
//   * watch_node/watch_link arm at most ONE probe chain per element.
//     Re-watching a watched element resets its miss counter and
//     reported flag and moves its horizon; it never starts a second
//     chain (a duplicate chain would double-count misses and halve the
//     effective detection time).
//   * A chain expires when the next probe would land past the horizon.
//   * rearm_node/rearm_link reset the counters for a recovered element
//     and, if its chain has expired but the clock has not passed the
//     horizon (e.g. the first probe was pushed past it by a large
//     phase), reschedule probing so the element is watched again. Once
//     now + probe_interval exceeds the horizon, re-arming keeps the
//     element unwatched — extend coverage with a fresh watch_* call.
#pragma once

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace sbk::control {

/// The element a failure report is about: a node or a link.
using ReportedElement = std::variant<net::NodeId, net::LinkId>;

/// The element's RecoveryTracer and audit-log name: "node:<name>", or
/// "link:<a>-<b>" over the endpoint names. Every caller that opens or
/// joins an incident names its element here, so one element keeps one
/// incident. Naming costs string work, so callers name an element only
/// where a record needs the name.
[[nodiscard]] std::string element_name(const net::Network& net,
                                       ReportedElement element);

struct DetectorConfig {
  Seconds probe_interval = milliseconds(1);
  int miss_threshold = 3;
  /// Phase offset of the first probe (probes at phase, phase+interval, ...).
  Seconds phase = 0.0;
  /// Re-report a still-failed element every this many seconds after the
  /// first report (0 = report once, the historical behavior). Re-reports
  /// are what lets the control plane survive a lost failure report: the
  /// controller's stale-report guard makes duplicates harmless.
  Seconds report_retry_interval = 0.0;
};

/// Watches nodes (keep-alives) and links (pairwise probes) of a Network
/// and reports failures. The Network's failure flags are the ground
/// truth a probe observes.
class FailureDetector {
 public:
  FailureDetector(sim::EventQueue& queue, const net::Network& net,
                  DetectorConfig config);

  /// Starts watching a node / link of the network. Probing events are
  /// scheduled up to `horizon`. Watching an already-watched element
  /// resets its counters and retargets its horizon without starting a
  /// second probe chain.
  void watch_node(net::NodeId node, Seconds horizon);
  void watch_link(net::LinkId link, Seconds horizon);

  using NodeCallback = std::function<void(net::NodeId, Seconds)>;
  using LinkCallback = std::function<void(net::LinkId, Seconds)>;
  void on_node_failure(NodeCallback cb) { node_cb_ = std::move(cb); }
  void on_link_failure(LinkCallback cb) { link_cb_ = std::move(cb); }

  /// A recovered element is re-armed for future detections; if its probe
  /// chain expired while the horizon is still ahead, probing resumes
  /// (see the probe-chain contract above). A never-watched element is
  /// left alone.
  void rearm_node(net::NodeId node);
  void rearm_link(net::LinkId link);

  /// Counters: detector.node_probes / link_probes / misses /
  /// node_failures_reported / link_failures_reported. Pass nullptr to
  /// detach. The registry must outlive the detector.
  void attach_metrics(obs::MetricsRegistry* metrics);
  /// Detection spans per incident ("detection": first miss -> report,
  /// anchored at the incident's injection time when the injector
  /// announced it). Pass nullptr to detach; must outlive the detector.
  void attach_tracer(obs::RecoveryTracer* tracer) noexcept {
    tracer_ = tracer;
  }

 private:
  struct WatchState {
    /// watch_* was called for this element (rearm_* is a no-op until then).
    bool watched = false;
    int misses = 0;
    bool reported = false;
    /// A probe event for this element is pending in the queue.
    bool chain_scheduled = false;
    Seconds horizon = 0.0;
    /// Timestamp of the first miss of the current streak (span start).
    Seconds first_miss = 0.0;
    /// Timestamp of the last report (for report_retry_interval).
    Seconds last_report = 0.0;
  };

  [[nodiscard]] bool report_due(const WatchState& w) const;

  void probe_node(net::NodeId node);
  void probe_link(net::LinkId link);
  /// Opens the element's incident with its detection span; names the
  /// element only when a tracer is attached.
  void trace_detection(ReportedElement element, Seconds first_miss,
                       Seconds detected_at);

  sim::EventQueue* queue_;
  const net::Network* net_;
  DetectorConfig config_;
  /// Watch state indexed by NodeId / LinkId, sized from the network (and
  /// grown if the network gains elements later).
  std::vector<WatchState> node_watch_;
  std::vector<WatchState> link_watch_;
  NodeCallback node_cb_;
  LinkCallback link_cb_;
  obs::RecoveryTracer* tracer_ = nullptr;
  obs::Counter* m_node_probes_ = nullptr;
  obs::Counter* m_link_probes_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_node_reports_ = nullptr;
  obs::Counter* m_link_reports_ = nullptr;
};

}  // namespace sbk::control
