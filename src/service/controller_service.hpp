// The always-on controller service (paper §4.1-4.2, under the §5.3
// latency claim): the ShareBackup Controller stood up as a long-lived
// event-loop daemon that ingests a continuous stream of failure reports,
// probe results, and operator commands over the narrow ServiceMessage
// interface.
//
// Architecture:
//
//     producer threads          service loop thread
//     ----------------          -------------------
//     submit(p, msg) ──► per-producer staging deque
//                               │  pull strictly below the minimum
//                               │  (at, seq) watermark, sort, offer
//                               ▼
//                         IngressQueue (bounded, batched, virtual time)
//                               │  BatchFn
//                               ▼
//                         Controller dispatch (failures, probes, ops)
//
// Determinism contract: every queueing decision — admission, overflow
// drop, probe shed, backpressure edge, batch boundary, decision latency
// — is computed by the IngressQueue in *virtual* time from the sorted
// message schedule. Producer threads only control the wall-clock pace at
// which that schedule is revealed. The watermark protocol below
// guarantees the loop offers messages in exact (at, seq) order no matter
// how many producers feed it or how the OS schedules them, so service
// stats and metrics are bit-identical across 1/4/8 producer threads
// (tested), and `run_inline` on one thread reproduces them too.
//
// Watermark protocol (the part worth reading twice): a producer's
// watermark is a lower bound on the key of anything it will ever deliver
// next. submit() publishes the incoming message's (at, seq) as the
// watermark *before* blocking on staging space, and raises it to
// (at, seq + 1) after the push; finish_producer() raises it to +inf.
// The loop releases staged messages with keys strictly below the minimum
// watermark across unfinished producers. Liveness: if every producer is
// blocked on a full staging deque, every stream message below the
// minimum in-hand key is already staged (each producer's unstaged
// messages are >= its own watermark), so the loop always finds
// releasable work and frees space. Progress never requires a timeout.
//
// Shutdown protocol: finish_producer() for every producer, then
// drain_and_stop(). The loop pulls the remaining staging (watermarks all
// +inf), the IngressQueue drains every accepted message (processed ==
// accepted, asserted), and a bounded settle loop steps virtual time in
// watchdog-window increments running diagnosis / watchdog-ack / parked
// retries until the controller has no runnable work left.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/health_snapshot.hpp"
#include "obs/slo/log_histogram.hpp"
#include "obs/slo/slo_monitor.hpp"
#include "service/ingress_queue.hpp"
#include "service/message.hpp"
#include "sharebackup/fabric.hpp"
#include "util/time.hpp"

namespace sbk::service {

/// Live SLO engine configuration (obs/slo wired into the service loop).
/// Disabled by default: the only hot-path cost of a disabled engine is
/// one branch per message (the same gate style as the flight recorder).
/// The objectives and snapshot cadence are fixed (ControllerService's
/// kSlo* constants).
struct ServiceSloConfig {
  bool enabled = false;
};

struct ServiceConfig {
  IngressConfig ingress;
  /// Live SLO engine: streaming objectives, burn-rate alerts, health
  /// snapshots.
  ServiceSloConfig slo;
};

/// Deterministic service-level accounting (wall_seconds excepted — it is
/// the one explicitly nondeterministic field and is excluded from
/// fingerprint()).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted by submit()/run_inline
  // Processed (dispatched-to-controller) counts by kind.
  std::uint64_t node_reports = 0;
  std::uint64_t link_reports = 0;
  std::uint64_t probe_results = 0;   ///< healthy probes (telemetry)
  std::uint64_t sick_probes = 0;     ///< unhealthy probes -> re-reports
  std::uint64_t operator_commands = 0;
  std::uint64_t cluster_events = 0;  ///< crash/repair messages dispatched
  // What dispatch did.
  std::uint64_t failures_injected = 0;  ///< first reports grounded
  std::uint64_t stale_reports = 0;      ///< element already healthy
  std::uint64_t repairs_performed = 0;  ///< devices healed by kRepairAll
  std::uint64_t watchdog_acks = 0;
  std::uint64_t retry_sweeps = 0;       ///< kRetryParked dispatched
  std::uint64_t diagnosis_runs = 0;     ///< jobs processed by kRunDiagnosis
  std::uint64_t final_sweep_rounds = 0;
  /// Controller audit-trail entries shed by the bounded in-memory log
  /// (summed across replicas in the replicated service).
  std::uint64_t audit_dropped = 0;
  // --- replicated-service failover accounting (all zero for the
  // single-controller ControllerService) -------------------------------------
  std::uint64_t failovers = 0;         ///< elections that seated a primary
  std::uint64_t replayed_reports = 0;  ///< headless-buffered then replayed
  std::uint64_t stale_rejections = 0;  ///< dispatches refused by term guard
  std::uint64_t total_death_windows = 0;  ///< windows with no live member
  /// Virtual seconds with no usable primary (sum / longest single
  /// window, total-death windows excluded from the max — they are
  /// unbounded by design until an operator repair arrives).
  double headless_seconds = 0.0;
  double max_headless_window = 0.0;
  /// Wall-clock seconds between start() and drain completion (or around
  /// run_inline). Nondeterministic; excluded from fingerprint().
  double wall_seconds = 0.0;

  /// Canonical rendering of every deterministic counter above (including
  /// watchdog_acks / retry_sweeps / audit_dropped and the failover
  /// block). The service's thread-identity contract is checked against
  /// this string, so a counter missing here is a counter the tests can
  /// silently diverge on.
  [[nodiscard]] std::string fingerprint() const;
};

class ControllerService {
 public:
  ControllerService(sharebackup::Fabric& fabric,
                    control::Controller& controller,
                    ServiceConfig config = {});
  ControllerService(const ControllerService&) = delete;
  ControllerService& operator=(const ControllerService&) = delete;
  virtual ~ControllerService();

  /// Counters/gauges service.* (the decision-latency distribution is
  /// exported as service.decision_latency_count plus p50/p99/p999/max
  /// gauges) and the service.batch_size latency histogram, recorded
  /// once per dispatched batch. Pass nullptr to detach; the registry
  /// must outlive the service.
  void attach_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    m_batch_size_ =
        metrics == nullptr ? nullptr : &metrics->latency("service.batch_size");
  }
  /// Batch spans, backpressure/overflow instants, and sampled
  /// queue-depth counters under category "service"; SLO breach/clear
  /// instants under category "slo". Pass nullptr to detach; the
  /// recorder must outlive the service.
  void attach_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
    slo_monitor_.attach_recorder(recorder);
  }

  // --- threaded mode ---------------------------------------------------------
  /// Registers one producer; returns its id. All producers must be added
  /// before start().
  int add_producer();
  /// Launches the service loop thread. Requires >= 1 producer.
  void start();
  /// Delivers one message on behalf of `producer`. Messages of one
  /// producer must be nondecreasing in (at, seq); seq is globally unique
  /// across producers. Blocks (wall-clock backpressure) while the
  /// producer's staging deque is full. Thread-safe across producers.
  void submit(int producer, const ServiceMessage& msg);
  /// Declares that `producer` will submit nothing further.
  void finish_producer(int producer);
  /// Waits for the loop to ingest everything, drains the ingress queue,
  /// runs the shutdown settle sweep, and joins the loop thread. Requires
  /// every producer to be finished.
  void drain_and_stop();

  // --- synchronous mode ------------------------------------------------------
  /// Runs the full lifecycle on the calling thread: offers `stream`
  /// (which must already be sorted by (at, seq)) straight into the
  /// ingress model, drains, and settles. Mutually exclusive with
  /// start(). Produces bit-identical stats to the threaded mode fed the
  /// same stream.
  void run_inline(const std::vector<ServiceMessage>& stream);

  // --- results ---------------------------------------------------------------
  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IngressStats& ingress_stats() const noexcept {
    return ingress_.stats();
  }
  /// Virtual-time decision-latency distribution (arrival -> batch end),
  /// a bounded streaming histogram (O(1) record, exact merge).
  [[nodiscard]] const obs::slo::LogHistogram& decision_latency()
      const noexcept {
    return decision_latency_;
  }
  /// One line summarizing every deterministic output (service stats,
  /// ingress stats, latency distribution, and — when the SLO engine is
  /// enabled — the alert timeline and snapshot log). Two runs of the
  /// same stream — any producer count, threaded or inline — produce the
  /// same string.
  [[nodiscard]] std::string fingerprint() const;

  // --- SLO engine ------------------------------------------------------------
  /// Objectives, burn state, and the alert timeline (empty unless
  /// config.slo.enabled).
  [[nodiscard]] const obs::slo::SloMonitor& slo_monitor() const noexcept {
    return slo_monitor_;
  }
  /// Periodic health snapshots taken at batch boundaries.
  [[nodiscard]] const obs::slo::HealthLog& health_log() const noexcept {
    return health_;
  }
  /// Pull hook: a fresh snapshot of the current service state (stamped
  /// at the last batch end). Works whether or not the SLO engine is
  /// enabled — objectives/histogram quantiles are simply absent/empty
  /// when it is off.
  [[nodiscard]] obs::slo::HealthSnapshot health_snapshot() const;
  void write_health_json(std::ostream& os) const;
  void write_health_prometheus(std::ostream& os) const;

  /// Objective indices within slo_monitor() (fixed by construction).
  static constexpr std::size_t kSloDecision = 0;
  static constexpr std::size_t kSloAvailability = 1;
  static constexpr std::size_t kSloLoss = 2;
  /// decision_latency objective: "p-(1-budget) of decision latencies
  /// (arrival -> batch end) stays under the bound".
  static constexpr Seconds kSloDecisionLatencyBound = 0.05;
  static constexpr double kSloDecisionBudget = 0.02;
  /// service_availability objective: a failure-relevant message handled
  /// by a usable primary is good; one buffered headless (or refused by
  /// the term guard) is bad. The single-controller service never
  /// records a bad event.
  static constexpr double kSloAvailabilityBudget = 1e-3;
  /// report_loss objective: ingress overflow drops vs. processed
  /// messages (deliberate probe shedding is not loss).
  static constexpr double kSloLossBudget = 1e-4;
  /// Burn-window geometry shared by the three objectives (see
  /// obs/slo/slo_monitor.hpp).
  static constexpr Seconds kSloWindow = 0.05;
  static constexpr std::uint32_t kSloSteps = 10;
  static constexpr std::uint32_t kSloShortSteps = 2;
  static constexpr double kSloBurnFactor = 4.0;
  static constexpr double kSloClearFactor = 1.0;
  static constexpr std::uint64_t kSloMinEvents = 20;
  /// Virtual-time spacing of health snapshots; each sample is taken at
  /// the first batch boundary at or after a multiple of the interval
  /// (plus one final sample at drain), so the snapshot timeline is a
  /// pure function of the message schedule.
  static constexpr Seconds kSloSnapshotInterval = 0.25;

 protected:
  // --- subclass surface (ReplicatedControllerService) ------------------------
  /// Called at the top of every dispatched batch, after the acting
  /// controller's clock moved to `start` but before any message is
  /// handled. The replicated service advances its cluster simulation
  /// here (elections that completed strictly before the batch seat a
  /// new primary and replay the headless buffer).
  virtual void on_batch_begin(Seconds start) { (void)start; }
  /// Dispatches one message of a batch into the acting controller. The
  /// base implementation drives `controller_`; the replicated service
  /// wraps it with the term guard, headless buffering, and
  /// crash/repair application. `start` is the batch start time.
  virtual void handle_message(const ServiceMessage& msg, Seconds start);
  /// Shutdown settle loop (see file header). The replicated service
  /// first runs the cluster simulation to completion (buffered reports
  /// replay under the final primary), then delegates here.
  virtual void final_sweep();
  virtual void publish_metrics();
  /// Fills one health snapshot from current state. The base fills the
  /// ingress/fabric/histogram/objective sections; the replicated
  /// service extends it with cluster state.
  virtual void fill_health(obs::slo::HealthSnapshot& snap) const;
  void handle_operator(const ServiceMessage& msg);

  // --- SLO recording hooks (single-branch no-ops while disabled) -------------
  /// Availability outcome of one failure-relevant message: true when a
  /// usable primary handled it, false when it was buffered headless or
  /// refused by the term guard.
  void slo_note_availability(bool ok, Seconds at) {
    if (slo_enabled_) {
      slo_monitor_.record_bad(kSloAvailability, at, ok ? 0 : 1);
      slo_monitor_.record_good(kSloAvailability, at, ok ? 1 : 0);
    }
  }
  /// Takes the periodic snapshot when a batch boundary crosses the next
  /// snapshot multiple, and advances the burn windows through quiet
  /// gaps.
  void slo_on_batch(Seconds start);
  /// Final monitor flush + closing snapshot (called once after drain).
  void slo_finish();

  sharebackup::Fabric* fabric_;
  /// The acting controller. The base class points it at the single
  /// controller for the service's whole life; the replicated service
  /// re-targets it at every failover (only the elected primary's
  /// dispatch touches the shared fabric).
  control::Controller* controller_;
  ServiceConfig config_;
  IngressQueue ingress_;
  ServiceStats stats_;
  obs::slo::LogHistogram decision_latency_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LatencyHistogram* m_batch_size_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  /// Mirrors config_.slo.enabled — the one branch disabled SLO costs.
  bool slo_enabled_ = false;
  obs::slo::SloMonitor slo_monitor_;
  obs::slo::HealthLog health_;
  Seconds next_snapshot_ = 0.0;
  std::uint64_t snapshot_seq_ = 0;

 private:
  struct Producer {
    std::deque<ServiceMessage> staging;
    /// Watermark: lower bound on the key of the next delivery.
    Seconds wm_at = 0.0;
    std::uint64_t wm_seq = 0;
    bool has_wm = false;  ///< false until the first submit
    bool finished = false;
  };

  void loop_main();
  /// IngressQueue BatchFn: dispatches one batch into the controller.
  void dispatch_batch(const std::vector<ServiceMessage>& batch,
                      Seconds start, Seconds end);

  std::mutex mu_;
  std::condition_variable cv_work_;   ///< producers -> loop
  std::condition_variable cv_space_;  ///< loop -> blocked producers
  std::vector<Producer> producers_;
  std::thread loop_;
  bool started_ = false;
  bool stopped_ = false;

  double wall_start_us_ = 0.0;
};

}  // namespace sbk::service
