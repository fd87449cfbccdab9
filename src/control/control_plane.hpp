// The assembled ShareBackup control plane: failure detector + controller
// + (optional) controller cluster, wired over one discrete-event queue.
// This is the component a deployment would run; the pieces remain
// independently usable and tested.
//
// Event flow (all on the shared EventQueue):
//   keep-alive miss ──> node-failure report ──┐
//   link-probe miss ──> link-failure report ──┤ (control channel may
//                                             │  lose/delay reports via
//                                             │  the fault hook; reports
//                                             │  arriving while no
//                                             │  primary controller is
//                                             │  up are buffered and
//                                             │  replayed to the newly
//                                             │  elected primary)
//                                   controller acts: failover /
//                                   dual-replace / host policy
//                                             │
//                       diagnosis scheduled after `diagnosis_delay`
//                       (strictly background, §4.2) — including for
//                       diagnoses queued by retried parked recoveries
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "control/controller.hpp"
#include "control/controller_cluster.hpp"
#include "control/failure_detector.hpp"
#include "sim/event_queue.hpp"

namespace sbk::control {

struct ControlPlaneConfig {
  ControllerConfig controller;
  DetectorConfig detector;
  /// Controllers in the replicated cluster; 0 disables replication (a
  /// single, never-failing controller).
  std::size_t cluster_members = 3;
  ClusterConfig cluster;
  /// Delay before a queued offline diagnosis runs (it is background
  /// work; the paper only requires it off the critical path).
  Seconds diagnosis_delay = 1.0;
};

/// Everything §4 describes, assembled and self-driving.
class ControlPlane {
 public:
  ControlPlane(sharebackup::Fabric& fabric, sim::EventQueue& queue,
               ControlPlaneConfig config);

  /// Starts watching every switch and every link until `horizon`.
  void start(Seconds horizon);

  // --- component access -------------------------------------------------------
  [[nodiscard]] Controller& controller() noexcept { return controller_; }
  [[nodiscard]] const Controller& controller() const noexcept {
    return controller_;
  }
  [[nodiscard]] FailureDetector& detector() noexcept { return detector_; }
  [[nodiscard]] ControllerCluster* cluster() noexcept {
    return cluster_ ? &*cluster_ : nullptr;
  }
  /// Reports lost on the control channel by the fault hook.
  [[nodiscard]] std::size_t reports_lost() const noexcept {
    return reports_lost_;
  }
  /// Reports buffered while the cluster had no primary (switches keep
  /// unacknowledged reports and re-send them to the next primary).
  [[nodiscard]] std::size_t reports_buffered() const noexcept {
    return reports_buffered_;
  }
  /// Buffered reports replayed to a newly elected primary.
  [[nodiscard]] std::size_t reports_replayed() const noexcept {
    return reports_replayed_;
  }

  /// Observer hook: called after every handled failure event.
  using RecoveryObserver =
      std::function<void(const RecoveryOutcome&, Seconds)>;
  void on_recovery(RecoveryObserver cb) { observer_ = std::move(cb); }

  /// Fault-injection surface for the switch->controller report channel.
  /// Called once per report; the return value decides its fate:
  /// nullopt = lost (never arrives; the detector's report_retry_interval
  /// is the recovery mechanism), 0 = delivered immediately, d > 0 =
  /// delivered after an extra delay of d seconds (delays reorder
  /// reports relative to each other). Default: every report delivered
  /// immediately.
  using ReportFaultHook = std::function<std::optional<Seconds>(
      bool is_link, std::uint64_t element, Seconds at)>;
  void set_report_fault_hook(ReportFaultHook hook) {
    report_fault_ = std::move(hook);
  }

  /// Wires one tracer through the detector (detection spans) and the
  /// controller (control-path + background spans) so both report into
  /// the same incidents. Pass nullptr to detach; must outlive `this`.
  void attach_tracer(obs::RecoveryTracer* tracer) noexcept {
    detector_.attach_tracer(tracer);
    controller_.attach_tracer(tracer);
  }
  /// Wires one registry through the detector and controller counters.
  void attach_metrics(obs::MetricsRegistry* metrics) {
    detector_.attach_metrics(metrics);
    controller_.attach_metrics(metrics);
  }
  /// Wires one flight recorder through the controller (control-path
  /// spans) and the report channel (lost/delayed/buffered/replayed
  /// instants). Pass nullptr to detach; must outlive `this`.
  void attach_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
    controller_.attach_recorder(recorder);
  }

 private:
  /// One failure report in flight or buffered (exactly one id is set).
  struct Report {
    std::optional<net::NodeId> node;
    std::optional<net::LinkId> link;
  };

  [[nodiscard]] bool controller_available() const;
  /// Applies the report fault hook, then delivers (possibly later).
  void deliver_report(Report r, Seconds t);
  /// Hands an arrived report to the controller, or buffers it while the
  /// cluster is headless.
  void handle_report(const Report& r, Seconds t);
  void process_report(const Report& r, Seconds t);
  void schedule_diagnosis_if_pending();
  void replay_buffered(Seconds t);

  sharebackup::Fabric* fabric_;
  sim::EventQueue* queue_;
  ControlPlaneConfig config_;
  Controller controller_;
  FailureDetector detector_;
  std::optional<ControllerCluster> cluster_;
  RecoveryObserver observer_;
  ReportFaultHook report_fault_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::deque<Report> election_buffer_;
  std::size_t reports_lost_ = 0;
  std::size_t reports_buffered_ = 0;
  std::size_t reports_replayed_ = 0;
};

}  // namespace sbk::control
