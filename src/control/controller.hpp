// The logically centralized ShareBackup network controller (§4).
//
// Responsibilities implemented here:
//   * node-failure recovery: allocate a backup from the failure group and
//     reconfigure the group's circuit switches (§4.1);
//   * link-failure recovery: replace the switches on *both* sides
//     immediately, then queue offline diagnosis to exonerate the healthy
//     one and return it to the pool (§4.1-4.2);
//   * host-link policy: hosts cannot be probed offline, so the edge
//     switch is assumed at fault; if the failure persists after the
//     replacement, the switch is redressed healthy and the host flagged
//     for troubleshooting (§4.2);
//   * circuit-switch watchdog: a burst of link-failure reports localized
//     to one circuit switch stops automatic recovery and requests human
//     intervention (§5.1);
//   * recovery-latency accounting (§5.3): detection + notification +
//     processing + circuit reconfiguration.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "control/diagnosis.hpp"
#include "control/failure_detector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "sharebackup/fabric.hpp"
#include "util/ring_buffer.hpp"
#include "util/time.hpp"

namespace sbk::control {

struct ControllerConfig {
  /// Keep-alive / link-probe interval (same as F10 and Aspen Tree, §5.3).
  Seconds probe_interval = milliseconds(1);
  /// Consecutive misses before a failure is declared.
  int miss_threshold = 3;
  /// One-way switch-to-controller report latency ("sub-ms with an
  /// efficient kernel-module implementation", §5.3).
  Seconds report_latency = microseconds(100);
  /// Controller decision time per failure event.
  Seconds processing_latency = microseconds(50);
  /// One-way controller-to-circuit-switch command latency.
  Seconds command_latency = microseconds(100);
  /// Link-failure reports attributable to one circuit switch within the
  /// window before recovery halts and humans are paged (§5.1).
  std::size_t watchdog_threshold = 4;
  Seconds watchdog_window = 1.0;

  // --- reconfiguration-command reliability -------------------------------
  /// Re-sends of a reconfiguration command after the first attempt before
  /// the controller stops waiting on hardware and degrades to rerouting.
  int command_max_retries = 4;
  /// Latency charged for a command whose ack never arrives.
  Seconds command_timeout = milliseconds(1);
  /// Retry backoff: starts at the initial value, doubles per retry, and
  /// is capped (capped exponential backoff).
  Seconds retry_backoff_initial = microseconds(200);
  Seconds retry_backoff_cap = milliseconds(2);
  /// Upstream forwarding-rule updates charged to a degraded recovery (the
  /// §5.3 global-reroute path taken when no backup can be installed).
  int degraded_rule_updates = 2;
};

/// Outcome of delivering one reconfiguration command to the failure
/// group's circuit switches. The default control channel always acks;
/// fault injection substitutes the other statuses.
enum class CommandStatus {
  kAck,             ///< delivered, applied, ack received
  kNack,            ///< rejected by the circuit switch; not applied
  kTimeoutLost,     ///< lost in flight; not applied, no ack
  kTimeoutApplied,  ///< applied, but the ack was lost
};

/// The failovers of one recovery. Two fit inline (a switch-switch link
/// failure replaces both ends); only a dead-on-arrival cascade spills
/// the list to the heap.
class FailoverList {
 public:
  using Report = sharebackup::Fabric::FailoverReport;

  void push_back(const Report& report);
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const Report* begin() const noexcept { return data(); }
  [[nodiscard]] const Report* end() const noexcept { return data() + size_; }
  [[nodiscard]] const Report& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] const Report& front() const noexcept { return data()[0]; }

 private:
  static constexpr std::size_t kInline = 2;
  [[nodiscard]] const Report* data() const noexcept {
    return spill_.empty() ? inline_.data() : spill_.data();
  }

  std::array<Report, kInline> inline_{};
  std::vector<Report> spill_;  ///< every report, once there are > kInline
  std::size_t size_ = 0;
};

/// What the controller did about one failure event.
struct RecoveryOutcome {
  bool recovered = false;
  /// Failovers executed (2 for a switch-switch link failure).
  FailoverList failovers;
  /// Report arrival to circuits reconfigured (excludes detection time;
  /// see RecoveryLatencyModel for end-to-end numbers). Includes retry
  /// penalties when the command channel misbehaved.
  Seconds control_latency = 0.0;
  /// The failure could not be recovered by backup hardware (pool empty
  /// or command retries spent) and traffic falls back to the global
  /// reroute path; the element stays failed and is parked for a hardware
  /// re-attempt when a pool refills.
  bool degraded = false;
  /// Post-detection latency of the degraded reroute (0 when !degraded).
  Seconds degraded_latency = 0.0;
  /// Command re-sends plus dead-on-arrival backup cascades spent here.
  std::size_t retries = 0;
  /// Static text naming what happened (never null).
  const char* detail = "";
};

/// One entry of the controller's append-only audit trail: everything an
/// operator needs to reconstruct what the control plane did and when.
/// The controller keeps typed records and formats entries on read.
struct AuditEntry {
  Seconds at = 0.0;
  std::string event;   ///< e.g. "failover", "diagnosis", "repair"
  std::string detail;  ///< human-readable specifics
};

/// Aggregate controller statistics.
struct ControllerStats {
  std::size_t node_failures_handled = 0;
  std::size_t link_failures_handled = 0;
  std::size_t host_link_failures_handled = 0;
  std::size_t failovers = 0;
  std::size_t recoveries_failed_pool_exhausted = 0;
  std::size_t diagnoses_run = 0;
  std::size_t switches_exonerated = 0;
  std::size_t switches_confirmed_faulty = 0;
  std::size_t hosts_flagged = 0;
  std::size_t watchdog_trips = 0;
  /// Command re-sends (NACK / timeout) plus dead-on-arrival cascades.
  std::size_t retries = 0;
  /// Backups that were dead on arrival and cascaded to the next spare.
  std::size_t doa_backups = 0;
  /// Recoveries abandoned because command retries were spent.
  std::size_t retries_exhausted = 0;
  /// Failures degraded to the global-reroute path (pool empty or
  /// retries spent); these stay parked for a hardware re-attempt.
  std::size_t degraded_reroutes = 0;
  /// Parked failures re-queued for recovery (pool refill, watchdog ack).
  std::size_t requeued = 0;
};

class Controller {
 public:
  Controller(sharebackup::Fabric& fabric, ControllerConfig config);

  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  // --- failure handling ------------------------------------------------------
  /// Handles a detected switch (node) failure at `pos`. The caller (the
  /// failure detector or a test) must already have failed the position's
  /// node in the Network; recovery restores it.
  RecoveryOutcome on_switch_failure(sharebackup::SwitchPosition pos);

  /// Handles a detected link failure. For switch-switch links both
  /// endpoints are replaced and diagnosis is queued; for host-edge links
  /// only the edge switch is replaced, with the host-policy fallback.
  RecoveryOutcome on_link_failure(net::LinkId link);

  // --- background work --------------------------------------------------------
  /// Runs queued offline diagnoses; exonerated devices return to their
  /// pools. Returns the number processed. `queued_before` restricts the
  /// pass to jobs queued strictly earlier (the ControlPlane uses it so
  /// every job waits its full diagnosis_delay in the background — a
  /// drain must not sweep up work queued this very instant by a retried
  /// recovery); the default processes everything, including jobs queued
  /// by the pass's own pool-refill retries.
  std::size_t run_pending_diagnosis(
      Seconds queued_before = std::numeric_limits<Seconds>::infinity());
  [[nodiscard]] std::size_t pending_diagnosis() const noexcept {
    return diagnosis_queue_.size();
  }

  /// A technician repaired a confirmed-faulty device: heal its interfaces
  /// and return it to the pool as a backup (the paper keeps roles fluid).
  void on_device_repaired(sharebackup::DeviceUid dev);
  /// The repair crew: on_device_repaired() for every out-of-service
  /// device, walking fabric.switch_devices() in order (a retry that a
  /// repair triggers may take a device out that the walk reaches
  /// later). Returns the number repaired.
  std::size_t repair_out_of_service();

  /// Failures that could not be recovered (pool exhausted) are parked and
  /// automatically retried whenever a device returns to a pool. The
  /// listener fires for each retried recovery so the caller (e.g.
  /// ControlPlane) can re-arm detectors and notify observers.
  using RetryListener = std::function<void(
      const RecoveryOutcome&, std::optional<net::NodeId> node,
      std::optional<net::LinkId> link)>;
  void set_retry_listener(RetryListener listener) {
    retry_listener_ = std::move(listener);
  }
  [[nodiscard]] std::size_t pending_recoveries() const noexcept {
    return pending_nodes_.size() + pending_links_.size();
  }
  [[nodiscard]] const std::vector<sharebackup::SwitchPosition>&
  pending_node_recoveries() const noexcept {
    return pending_nodes_;
  }
  [[nodiscard]] const std::vector<net::LinkId>& pending_link_recoveries()
      const noexcept {
    return pending_links_;
  }
  /// Re-attempts parked recoveries now. Normally retries fire
  /// automatically on pool returns / watchdog acknowledgment; the chaos
  /// soak's operator tick also drives this directly.
  void retry_parked() { retry_pending(); }

  /// Fault-injection surface for the controller->circuit-switch command
  /// channel: called once per (position, attempt) and returns what
  /// happened to that command. Commands are idempotent, so a re-send
  /// after kTimeoutApplied is acked without a second reconfiguration.
  /// Default (no hook): every command acks on the first attempt.
  using CommandFaultHook =
      std::function<CommandStatus(sharebackup::SwitchPosition pos,
                                  int attempt)>;
  void set_command_fault_hook(CommandFaultHook hook) {
    command_fault_ = std::move(hook);
  }

  /// Deterministic state handoff at a cluster failover (§5.1): the new
  /// primary adopts the dead primary's in-flight work — parked
  /// recoveries, queued offline diagnoses, the tripped-watchdog flag
  /// plus its link-report window, and the faulty-device incident map —
  /// so no accepted failure report is lost across the transition and no
  /// reconfiguration runs twice (commands are idempotent and
  /// park_node/park_link deduplicate). The dead controller is left with
  /// no in-flight state; it must not act again under its old term.
  void adopt_in_flight_from(Controller& dead);

  // --- watchdog / status -------------------------------------------------------
  [[nodiscard]] bool human_intervention_required() const noexcept {
    return watchdog_tripped_;
  }
  /// Clears the watchdog after manual service (e.g. circuit switch
  /// rebooted and re-synced from the controller) and re-attempts the
  /// failures parked while recovery was halted.
  void acknowledge_intervention();

  [[nodiscard]] const ControllerStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& flagged_hosts() const noexcept {
    return flagged_hosts_;
  }
  /// Append-only operations log (timestamps from set_time()), formatted
  /// from the typed records on each call; device and element names are
  /// read from the fabric, which must still be alive.
  [[nodiscard]] std::vector<AuditEntry> audit_log() const;
  /// Bounds the in-memory audit trail for always-on service use: once
  /// the log exceeds `limit` entries the oldest are shed in blocks
  /// (amortized O(1)) and counted in audit_dropped(). 0 (the default)
  /// keeps every entry — single-run harness behavior.
  void set_audit_limit(std::size_t limit) noexcept { audit_limit_ = limit; }
  [[nodiscard]] std::size_t audit_dropped() const noexcept {
    return audit_dropped_;
  }

  /// End-to-end recovery latency for one failure under this config:
  /// detection (worst-case probe misses) + report + processing + command
  /// + circuit reconfiguration.
  [[nodiscard]] Seconds end_to_end_recovery_latency() const;

  /// Advances the watchdog's notion of time (reports are timestamped with
  /// it). Tests and the control-plane simulation drive this. The fabric's
  /// trace clock follows so its failover/pool instants carry the same
  /// timestamps.
  void set_time(Seconds now) noexcept {
    now_ = now;
    fabric_->set_trace_time(now);
  }

  /// Recovery-timeline spans per incident: "notification" (report
  /// arrival), "decision", "command", "reconfiguration",
  /// "table_activation" (the zero-length instant the circuit reset
  /// activates the group's preloaded table, §4.3), with trailing
  /// "diagnosis" / "restore" background spans. Incidents are
  /// correlated with the detector's through element_name(). Pass
  /// nullptr to detach; must outlive the controller.
  void attach_tracer(obs::RecoveryTracer* tracer) noexcept {
    tracer_ = tracer;
  }
  /// Counters controller.{failovers,diagnoses,watchdog_trips,
  /// pool_exhausted,retries,degraded_reroutes,requeued} and latency
  /// histograms controller.{control_latency,degraded_latency}.
  /// Pass nullptr to detach. The registry must outlive the controller.
  void attach_metrics(obs::MetricsRegistry* metrics);

  /// Wall-clock-timed spans around failure handling and diagnosis
  /// passes, plus instants for degraded recoveries and watchdog trips
  /// (sim timestamps from set_time()). Pass nullptr to detach; the
  /// recorder must outlive the controller.
  void attach_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  struct PendingDiagnosis {
    sharebackup::DeviceUid a;
    sharebackup::DeviceUid b;
    std::size_t cs;
    /// Tracer incident the diagnosed link failure belongs to.
    std::size_t incident = obs::RecoveryTracer::kNoIncident;
    /// When the job was queued (run_pending_diagnosis cutoff).
    Seconds queued_at = 0.0;
  };

  /// Result of pushing one reconfiguration command through the (possibly
  /// faulty) command channel, retries and DOA cascades included.
  struct CommandOutcome {
    /// The verified-healthy failover, absent on pool/retry exhaustion.
    std::optional<sharebackup::Fabric::FailoverReport> report;
    /// Failovers whose replacement was dead on arrival (each consumed a
    /// spare and reconfigured circuits before cascading onward).
    std::vector<sharebackup::Fabric::FailoverReport> doa_cascade;
    Seconds retry_penalty = 0.0;
    std::size_t retries = 0;
    bool retries_exhausted = false;
    bool pool_exhausted = false;
  };
  [[nodiscard]] CommandOutcome execute_failover(
      sharebackup::SwitchPosition pos);
  /// Folds a CommandOutcome's retries and DOA-cascade failovers into the
  /// stats, metrics and the RecoveryOutcome.
  void account_command(const CommandOutcome& co, RecoveryOutcome& outcome);
  /// One executed failover: stats, metric, outcome.
  void count_failover(const sharebackup::Fabric::FailoverReport& report,
                      RecoveryOutcome& outcome);
  /// One recovery that installed no backup: an exhausted pool, or
  /// command retries spent.
  void count_failed_recovery(bool pool_exhausted);
  /// Marks an unrecoverable failure as degraded to the global-reroute
  /// path (latency model, counters, tracer span, audit). `detail` is one
  /// of the static "<cause>; degraded to global reroute" texts; the
  /// audit trail names the cause.
  void degrade(RecoveryOutcome& outcome, ReportedElement element,
               const char* detail);
  [[nodiscard]] Seconds degraded_reroute_latency() const;

  void note_link_report_for_watchdog(std::size_t cs, net::LinkId link);
  /// Empties the watchdog window and zeroes its live counts.
  void clear_watch_window();
  /// Merges `dead`'s live window entries into this one (see
  /// adopt_in_flight_from) and empties `dead`'s.
  void adopt_watch_window(Controller& dead);
  [[nodiscard]] Seconds control_path_latency() const;

  /// Records the control-path spans for a completed failover on
  /// `element` starting at now_ and closes the incident at the
  /// reconfiguration end. `command_penalty` stretches the command span
  /// by the retry penalty actually paid. Returns the incident
  /// (kNoIncident when no tracer is attached, in which case the element
  /// is never named) so background work can append to it.
  std::size_t trace_recovery(ReportedElement element,
                             Seconds command_penalty = 0.0);

  /// What an audit record says happened; audit_log() names it.
  enum class AuditKind : std::uint8_t {
    kFailover,         ///< device -> other
    kLinkFailover,     ///< device & other replaced
    kDoaBackup,        ///< device dead on arrival
    kCommandUnacked,   ///< reconfiguration applied, never acknowledged
    kDegraded,         ///< element: cause
    kHostFlagged,      ///< element (the host node)
    kExonerated,       ///< device
    kConfirmedFaulty,  ///< device
    kRepair,           ///< device
    kHandoff,          ///< count in-flight commands adopted
  };
  /// One fixed-size audit record: appended on the dispatch path without
  /// building a string, formatted into an AuditEntry on read.
  struct AuditRecord {
    Seconds at = 0.0;
    AuditKind kind = AuditKind::kFailover;
    sharebackup::DeviceUid device = sharebackup::kNoDeviceUid;
    sharebackup::DeviceUid other = sharebackup::kNoDeviceUid;
    ReportedElement element{};
    std::size_t count = 0;
    const char* cause = nullptr;  ///< kDegraded: the outcome's detail
  };
  [[nodiscard]] AuditEntry format_audit(const AuditRecord& record) const;

  void park_node(sharebackup::SwitchPosition pos);
  void park_link(net::LinkId link);
  /// Appends `record` stamped with now_.
  void audit(AuditRecord record);
  /// Re-attempts parked recoveries after a pool replenishment.
  void retry_pending();

  sharebackup::Fabric* fabric_;
  ControllerConfig config_;
  DiagnosisEngine engine_;
  util::RingBuffer<PendingDiagnosis> diagnosis_queue_;
  std::vector<sharebackup::SwitchPosition> pending_nodes_;
  std::vector<net::LinkId> pending_links_;
  /// retry_pending()'s working copies of the parked lists: swapped with
  /// them per pass, so neither side gives up its capacity.
  std::vector<sharebackup::SwitchPosition> retry_nodes_;
  std::vector<net::LinkId> retry_links_;
  RetryListener retry_listener_;
  bool retrying_ = false;
  /// Set by a re-entrant retry_pending() trigger (pool refill or
  /// watchdog ack landing while a pass runs); the outer pass re-sweeps.
  bool retry_again_ = false;
  CommandFaultHook command_fault_;
  /// One report in the watchdog window. The watchdog counts *distinct*
  /// sick links per circuit switch, so a re-transmitted report of a link
  /// retires the link's older entries: they stay queued but stop
  /// counting once their generation falls behind the link's.
  struct LinkReport {
    Seconds at = 0.0;
    std::size_t cs = 0;
    net::LinkId link{0};
    std::uint32_t generation = 0;
  };
  /// Per-link window state: the generation its live entries carry, and
  /// how many live entries the window holds (two or more only after a
  /// handoff merged windows that both saw the link).
  struct LinkWatch {
    std::uint32_t generation = 0;
    std::uint32_t live = 0;
  };
  [[nodiscard]] bool watch_live(const LinkReport& r) const noexcept {
    return r.generation == link_watch_[r.link.index()].generation;
  }
  /// Reports in time order; a prefix falls out of the window.
  util::RingBuffer<LinkReport> watch_window_;
  /// By link index / circuit-switch index; sized on first use.
  std::vector<LinkWatch> link_watch_;
  std::vector<std::size_t> cs_live_reports_;
  std::vector<net::NodeId> flagged_hosts_;
  std::vector<AuditRecord> audit_;
  std::size_t audit_limit_ = 0;  ///< 0 = unbounded
  std::size_t audit_dropped_ = 0;
  ControllerStats stats_;
  bool watchdog_tripped_ = false;
  Seconds now_ = 0.0;
  obs::RecoveryTracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  /// Incident to attach a "restore" span to when a confirmed-faulty
  /// device comes back via on_device_repaired().
  std::unordered_map<sharebackup::DeviceUid, std::size_t>
      incident_of_faulty_;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_diagnoses_ = nullptr;
  obs::Counter* m_watchdog_trips_ = nullptr;
  obs::Counter* m_pool_exhausted_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  obs::Counter* m_requeued_ = nullptr;
  obs::LatencyHistogram* m_control_latency_ = nullptr;
  obs::LatencyHistogram* m_degraded_latency_ = nullptr;
};

}  // namespace sbk::control
