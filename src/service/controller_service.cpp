#include "service/controller_service.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/assert.hpp"

namespace sbk::service {

namespace {

/// Per-producer staging bound; submit() blocks when full (the wall-clock
/// backpressure path: it bounds memory but never changes virtual-time
/// outcomes).
constexpr std::size_t kStagingCapacity = 1024;
/// Every Nth processed message also records its decision latency into
/// the flight recorder as a counter sample (every message feeds the
/// streaming histogram regardless).
constexpr std::size_t kLatencySampleEvery = 64;
/// Shutdown settle: the virtual-time step between rounds (a watchdog
/// window must be able to slide past the last report burst) and the
/// round cap.
constexpr Seconds kSettleStep = 1.25;
constexpr std::size_t kMaxSettleRounds = 16;

/// Lexicographic (at, seq) comparison for watermark keys.
[[nodiscard]] bool key_less(Seconds at_a, std::uint64_t seq_a, Seconds at_b,
                            std::uint64_t seq_b) noexcept {
  if (at_a != at_b) return at_a < at_b;
  return seq_a < seq_b;
}

[[nodiscard]] const char* kind_name(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kNodeFailureReport: return "node_failure_report";
    case MessageKind::kLinkFailureReport: return "link_failure_report";
    case MessageKind::kProbeResult: return "probe_result";
    case MessageKind::kOperatorCommand: return "operator_command";
    case MessageKind::kControllerCrash: return "controller_crash";
    case MessageKind::kControllerRepair: return "controller_repair";
  }
  return "unknown";
}

}  // namespace

ControllerService::ControllerService(sharebackup::Fabric& fabric,
                                     control::Controller& controller,
                                     ServiceConfig config)
    : fabric_(&fabric), controller_(&controller), config_(config),
      ingress_(config.ingress,
               [this](const std::vector<ServiceMessage>& batch, Seconds start,
                      Seconds end) { dispatch_batch(batch, start, end); }) {
  if (config_.slo.enabled) {
    obs::slo::SloObjectiveConfig decision;
    decision.name = "decision_latency";
    decision.kind = obs::slo::ObjectiveKind::kLatency;
    decision.threshold = kSloDecisionLatencyBound;
    decision.budget = kSloDecisionBudget;
    obs::slo::SloObjectiveConfig availability;
    availability.name = "service_availability";
    availability.budget = kSloAvailabilityBudget;
    obs::slo::SloObjectiveConfig loss;
    loss.name = "report_loss";
    loss.budget = kSloLossBudget;
    for (obs::slo::SloObjectiveConfig* cfg :
         {&decision, &availability, &loss}) {
      cfg->window = kSloWindow;
      cfg->steps = kSloSteps;
      cfg->short_steps = kSloShortSteps;
      cfg->burn_factor = kSloBurnFactor;
      cfg->clear_factor = kSloClearFactor;
      cfg->min_events = kSloMinEvents;
    }
    const std::size_t d = slo_monitor_.add_objective(decision);
    const std::size_t a = slo_monitor_.add_objective(availability);
    const std::size_t l = slo_monitor_.add_objective(loss);
    SBK_ASSERT(d == kSloDecision && a == kSloAvailability && l == kSloLoss);
    slo_enabled_ = true;
    next_snapshot_ = kSloSnapshotInterval;
  }

  ingress_.set_reject_hook([this](const ServiceMessage& msg, bool overflow) {
    if (slo_enabled_ && overflow) {
      slo_monitor_.record_bad(kSloLoss, msg.at);
    }
    if (recorder_ == nullptr) return;
    recorder_->instant("service", overflow ? "overflow_drop" : "probe_shed",
                       msg.at, kind_name(msg.kind));
  });
  ingress_.set_backpressure_hook([this](bool asserted, Seconds at) {
    if (recorder_ == nullptr) return;
    recorder_->instant("service",
                       asserted ? "backpressure_on" : "backpressure_off", at);
  });
}

ControllerService::~ControllerService() {
  if (loop_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (Producer& p : producers_) p.finished = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    loop_.join();
  }
}

int ControllerService::add_producer() {
  SBK_EXPECTS_MSG(!started_, "add every producer before start()");
  producers_.emplace_back();
  return static_cast<int>(producers_.size()) - 1;
}

void ControllerService::start() {
  SBK_EXPECTS_MSG(!started_ && !stopped_, "start() must be called once");
  SBK_EXPECTS_MSG(!producers_.empty(), "start() requires >= 1 producer");
  started_ = true;
  wall_start_us_ = obs::FlightRecorder::wall_now_us();
  loop_ = std::thread([this] { loop_main(); });
}

void ControllerService::submit(int producer, const ServiceMessage& msg) {
  SBK_EXPECTS(producer >= 0 &&
              static_cast<std::size_t>(producer) < producers_.size());
  std::unique_lock<std::mutex> lk(mu_);
  Producer& p = producers_[static_cast<std::size_t>(producer)];
  SBK_EXPECTS_MSG(started_ && !p.finished,
                  "submit() requires a started service and an unfinished "
                  "producer");
  SBK_EXPECTS_MSG(
      !p.has_wm || !key_less(msg.at, msg.seq, p.wm_at, p.wm_seq),
      "a producer's messages must be nondecreasing in (at, seq)");
  // Publish the in-hand message's key as the watermark *before* blocking
  // on space: the loop may rely on it to release other producers' staged
  // work (liveness — see the file header of controller_service.hpp).
  p.wm_at = msg.at;
  p.wm_seq = msg.seq;
  p.has_wm = true;
  cv_work_.notify_one();
  cv_space_.wait(lk, [&] {
    return p.staging.size() < kStagingCapacity;
  });
  p.staging.push_back(msg);
  // Every future delivery is strictly above (at, seq) in (at, seq)
  // lexicographic order, so (at, seq + 1) is a valid lower bound.
  p.wm_seq = msg.seq + 1;
  ++stats_.submitted;
  cv_work_.notify_one();
}

void ControllerService::finish_producer(int producer) {
  SBK_EXPECTS(producer >= 0 &&
              static_cast<std::size_t>(producer) < producers_.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    producers_[static_cast<std::size_t>(producer)].finished = true;
  }
  cv_work_.notify_one();
}

void ControllerService::loop_main() {
  std::vector<ServiceMessage> ready;
  bool done = false;
  while (!done) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      auto pullable = [&]() -> bool {
        Seconds safe_at = std::numeric_limits<Seconds>::infinity();
        std::uint64_t safe_seq = 0;
        bool all_fin = true;
        for (const Producer& p : producers_) {
          if (p.finished) continue;
          all_fin = false;
          if (!p.has_wm) return false;  // no lower bound announced yet
          if (key_less(p.wm_at, p.wm_seq, safe_at, safe_seq)) {
            safe_at = p.wm_at;
            safe_seq = p.wm_seq;
          }
        }
        if (all_fin) return true;
        for (const Producer& p : producers_) {
          if (!p.staging.empty() &&
              key_less(p.staging.front().at, p.staging.front().seq, safe_at,
                       safe_seq)) {
            return true;
          }
        }
        return false;
      };
      cv_work_.wait(lk, pullable);

      Seconds safe_at = std::numeric_limits<Seconds>::infinity();
      std::uint64_t safe_seq = 0;
      bool all_fin = true;
      for (const Producer& p : producers_) {
        if (p.finished) continue;
        all_fin = false;
        if (key_less(p.wm_at, p.wm_seq, safe_at, safe_seq)) {
          safe_at = p.wm_at;
          safe_seq = p.wm_seq;
        }
      }
      bool pulled = false;
      bool staging_empty = true;
      for (Producer& p : producers_) {
        while (!p.staging.empty() &&
               (all_fin || key_less(p.staging.front().at,
                                    p.staging.front().seq, safe_at,
                                    safe_seq))) {
          ready.push_back(p.staging.front());
          p.staging.pop_front();
          pulled = true;
        }
        staging_empty = staging_empty && p.staging.empty();
      }
      if (pulled) cv_space_.notify_all();
      done = all_fin && staging_empty;
    }
    if (!ready.empty()) {
      std::sort(ready.begin(), ready.end(),
                [](const ServiceMessage& a, const ServiceMessage& b) {
                  return arrives_before(a, b);
                });
      for (const ServiceMessage& msg : ready) ingress_.offer(msg);
      ready.clear();
    }
  }
  // Shutdown: drain every accepted message, then settle the controller.
  ingress_.drain();
  final_sweep();
}

void ControllerService::drain_and_stop() {
  SBK_EXPECTS_MSG(started_ && !stopped_, "drain_and_stop() after start()");
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Producer& p : producers_) {
      SBK_EXPECTS_MSG(p.finished,
                      "finish_producer() every producer before "
                      "drain_and_stop()");
    }
  }
  loop_.join();
  stopped_ = true;
  stats_.wall_seconds =
      (obs::FlightRecorder::wall_now_us() - wall_start_us_) / 1e6;
  SBK_ASSERT_MSG(ingress_.stats().processed == ingress_.stats().accepted,
                 "drain left accepted-but-unprocessed reports behind");
  slo_finish();
  publish_metrics();
}

void ControllerService::run_inline(const std::vector<ServiceMessage>& stream) {
  SBK_EXPECTS_MSG(!started_ && !stopped_,
                  "run_inline() is mutually exclusive with start()");
  const double wall_start = obs::FlightRecorder::wall_now_us();
  for (const ServiceMessage& msg : stream) {
    ++stats_.submitted;
    ingress_.offer(msg);
  }
  ingress_.drain();
  final_sweep();
  stopped_ = true;
  stats_.wall_seconds =
      (obs::FlightRecorder::wall_now_us() - wall_start) / 1e6;
  SBK_ASSERT_MSG(ingress_.stats().processed == ingress_.stats().accepted,
                 "drain left accepted-but-unprocessed reports behind");
  slo_finish();
  publish_metrics();
}

void ControllerService::dispatch_batch(const std::vector<ServiceMessage>& batch,
                                       Seconds start, Seconds end) {
  obs::ScopedSpan span(recorder_, "service", "batch", start);
  span.set_end(end);
  if (span.active()) span.set_detail("size=" + std::to_string(batch.size()));
  if (m_batch_size_ != nullptr) {
    m_batch_size_->record(static_cast<double>(batch.size()));
  }
  controller_->set_time(start);
  on_batch_begin(start);
  if (slo_enabled_) slo_on_batch(start);
  for (const ServiceMessage& msg : batch) {
    handle_message(msg, start);
    const Seconds latency = end - msg.at;
    decision_latency_.record(latency);
    if (slo_enabled_) {
      slo_monitor_.record_latency(kSloDecision, end, latency);
      slo_monitor_.record_good(kSloLoss, end);
    }
    if (recorder_ != nullptr &&
        decision_latency_.count() % kLatencySampleEvery == 0) {
      recorder_->counter("service", "decision_latency_us", end,
                         latency * 1e6);
    }
  }
  if (recorder_ != nullptr) {
    recorder_->counter("service", "queue_depth", start,
                       static_cast<double>(ingress_.depth()));
  }
}

void ControllerService::handle_message(const ServiceMessage& msg,
                                       Seconds start) {
  net::Network& net = fabric_->network();
  switch (msg.kind) {
    case MessageKind::kNodeFailureReport: {
      ++stats_.node_reports;
      slo_note_availability(true, start);
      if (msg.inject && !net.node_failed(msg.node)) {
        // First report of this failure instance: ground it.
        net.fail_node(msg.node);
        ++stats_.failures_injected;
      } else if (!net.node_failed(msg.node)) {
        ++stats_.stale_reports;  // recovery already raced this re-send
      }
      auto pos = fabric_->position_of_node(msg.node);
      SBK_ASSERT_MSG(pos.has_value(),
                     "node-failure reports must target switches");
      controller_->on_switch_failure(*pos);
      break;
    }
    case MessageKind::kLinkFailureReport: {
      ++stats_.link_reports;
      slo_note_availability(true, start);
      if (msg.inject) {
        // First report of this failure instance: ground it.
        const net::Link& l = net.link(msg.link);
        if (fabric_->ground_link_failure(msg.link,
                                         msg.bad_side == 0 ? l.a : l.b)) {
          ++stats_.failures_injected;
        }
      }
      if (!net.link_failed(msg.link)) ++stats_.stale_reports;
      controller_->on_link_failure(msg.link);
      break;
    }
    case MessageKind::kProbeResult: {
      if (msg.healthy) {
        ++stats_.probe_results;  // pure telemetry
      } else {
        ++stats_.sick_probes;
        slo_note_availability(true, start);
        if (!net.link_failed(msg.link)) ++stats_.stale_reports;
        controller_->on_link_failure(msg.link);
      }
      break;
    }
    case MessageKind::kOperatorCommand: {
      ++stats_.operator_commands;
      slo_note_availability(true, start);
      handle_operator(msg);
      break;
    }
    case MessageKind::kControllerCrash:
    case MessageKind::kControllerRepair: {
      // The single-controller service has no cluster to crash: count the
      // event (so the kind partition still sums to processed) and move
      // on. ReplicatedControllerService overrides dispatch to act.
      ++stats_.cluster_events;
      break;
    }
  }
}

void ControllerService::handle_operator(const ServiceMessage& msg) {
  switch (msg.op) {
    case OperatorOp::kRepairAll:
      stats_.repairs_performed += controller_->repair_out_of_service();
      break;
    case OperatorOp::kAckWatchdog:
      if (controller_->human_intervention_required()) {
        controller_->acknowledge_intervention();
        ++stats_.watchdog_acks;
      }
      break;
    case OperatorOp::kRetryParked:
      controller_->retry_parked();
      ++stats_.retry_sweeps;
      break;
    case OperatorOp::kRunDiagnosis:
      stats_.diagnosis_runs += controller_->run_pending_diagnosis(msg.at);
      break;
  }
}

void ControllerService::final_sweep() {
  // Settle in virtual-time steps: each round slides past the watchdog
  // window (so one burst of reports cannot hold the watchdog tripped
  // forever), runs queued diagnoses, services the watchdog, and
  // re-attempts parked recoveries. Terminates when a round found no
  // diagnosis work and the watchdog was clear — leftover parked
  // failures are pool-excused by then (their group's spares are gone).
  Seconds t = std::max(ingress_.stats().last_batch_end, 0.0);
  for (std::size_t round = 0; round < kMaxSettleRounds; ++round) {
    t += kSettleStep;
    controller_->set_time(t);
    ++stats_.final_sweep_rounds;
    const bool tripped = controller_->human_intervention_required();
    const std::size_t diagnosed = controller_->run_pending_diagnosis();
    stats_.diagnosis_runs += diagnosed;
    if (controller_->human_intervention_required()) {
      controller_->acknowledge_intervention();
      ++stats_.watchdog_acks;
    } else if (controller_->pending_recoveries() > 0) {
      controller_->retry_parked();
      ++stats_.retry_sweeps;
    }
    if (diagnosed == 0 && !tripped &&
        controller_->pending_diagnosis() == 0 &&
        !controller_->human_intervention_required()) {
      break;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->instant("service", "drained", t);
  }
  stats_.audit_dropped = controller_->audit_dropped();
}

void ControllerService::slo_on_batch(Seconds start) {
  slo_monitor_.advance_to(start);
  if (start < next_snapshot_) return;
  obs::slo::HealthSnapshot snap;
  snap.sequence = snapshot_seq_++;
  snap.at = start;
  fill_health(snap);
  health_.add(std::move(snap));
  // One sample per crossing, however many multiples a quiet gap spans.
  const double k = std::floor(start / kSloSnapshotInterval);
  next_snapshot_ = (k + 1.0) * kSloSnapshotInterval;
}

void ControllerService::slo_finish() {
  if (!slo_enabled_) return;
  const Seconds end = ingress_.stats().last_batch_end;
  slo_monitor_.finish(end);
  obs::slo::HealthSnapshot snap;
  snap.sequence = snapshot_seq_++;
  snap.at = end;
  fill_health(snap);
  health_.add(std::move(snap));
}

void ControllerService::fill_health(obs::slo::HealthSnapshot& snap) const {
  const IngressStats& in = ingress_.stats();
  snap.queue_depth = ingress_.depth();
  snap.backpressure = ingress_.backpressure();
  snap.accepted = in.accepted;
  snap.processed = in.processed;
  snap.dropped_overflow = in.dropped_overflow;
  snap.shed_probes = in.shed_probes;
  snap.batches = in.batches;
  snap.spare_pool = fabric_->total_spares();
  snap.live_link_frac = fabric_->network().live_link_fraction();
  snap.histograms.push_back(
      obs::slo::histogram_stat("decision_latency", decision_latency_));
  snap.objectives = obs::slo::objective_stats(slo_monitor_);
}

obs::slo::HealthSnapshot ControllerService::health_snapshot() const {
  obs::slo::HealthSnapshot snap;
  snap.sequence = snapshot_seq_;
  snap.at = ingress_.stats().last_batch_end;
  fill_health(snap);
  return snap;
}

void ControllerService::write_health_json(std::ostream& os) const {
  obs::slo::write_health_json(os, health_snapshot());
  os << "\n";
}

void ControllerService::write_health_prometheus(std::ostream& os) const {
  obs::slo::write_health_prometheus(os, health_snapshot());
}

void ControllerService::publish_metrics() {
  if (metrics_ == nullptr) return;
  const IngressStats& in = ingress_.stats();
  metrics_->counter("service.submitted").add(stats_.submitted);
  metrics_->counter("service.offered").add(in.offered);
  metrics_->counter("service.accepted").add(in.accepted);
  metrics_->counter("service.dropped_overflow").add(in.dropped_overflow);
  metrics_->counter("service.shed_probes").add(in.shed_probes);
  metrics_->counter("service.processed").add(in.processed);
  metrics_->counter("service.batches").add(in.batches);
  metrics_->counter("service.backpressure_engaged")
      .add(in.backpressure_engaged);
  metrics_->counter("service.node_reports").add(stats_.node_reports);
  metrics_->counter("service.link_reports").add(stats_.link_reports);
  metrics_->counter("service.probe_results").add(stats_.probe_results);
  metrics_->counter("service.sick_probes").add(stats_.sick_probes);
  metrics_->counter("service.operator_commands")
      .add(stats_.operator_commands);
  metrics_->counter("service.failures_injected")
      .add(stats_.failures_injected);
  metrics_->counter("service.stale_reports").add(stats_.stale_reports);
  metrics_->counter("service.repairs_performed")
      .add(stats_.repairs_performed);
  metrics_->counter("service.watchdog_acks").add(stats_.watchdog_acks);
  metrics_->counter("service.cluster_events").add(stats_.cluster_events);
  metrics_->counter("service.failovers").add(stats_.failovers);
  metrics_->counter("service.replayed_reports")
      .add(stats_.replayed_reports);
  metrics_->counter("service.stale_rejections")
      .add(stats_.stale_rejections);
  metrics_->gauge("service.headless_seconds").set(stats_.headless_seconds);
  metrics_->gauge("service.peak_queue_depth")
      .set(static_cast<double>(in.peak_depth));
  metrics_->gauge("service.max_batch")
      .set(static_cast<double>(in.max_batch_seen));
  metrics_->gauge("service.backpressure_time_s").set(in.backpressure_time);
  metrics_->gauge("service.final_sweep_rounds")
      .set(static_cast<double>(stats_.final_sweep_rounds));
  metrics_->counter("service.decision_latency_count")
      .add(decision_latency_.count());
  metrics_->gauge("service.decision_latency_p50_s")
      .set(decision_latency_.quantile(0.5));
  metrics_->gauge("service.decision_latency_p99_s")
      .set(decision_latency_.quantile(0.99));
  metrics_->gauge("service.decision_latency_p999_s")
      .set(decision_latency_.quantile(0.999));
  metrics_->gauge("service.decision_latency_max_s")
      .set(decision_latency_.max());
  if (slo_enabled_) {
    std::uint64_t breaches = 0;
    std::uint64_t clears = 0;
    for (std::size_t i = 0; i < slo_monitor_.objective_count(); ++i) {
      breaches += slo_monitor_.breach_count(i);
      clears += slo_monitor_.clear_count(i);
      metrics_->gauge("slo.attainment." + slo_monitor_.objective(i).name)
          .set(slo_monitor_.attainment(i));
    }
    metrics_->counter("slo.breaches").add(breaches);
    metrics_->counter("slo.clears").add(clears);
    metrics_->counter("slo.snapshots").add(health_.size());
  }
}

std::string ServiceStats::fingerprint() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "submitted=" << submitted << ";node=" << node_reports
     << ";link=" << link_reports << ";probe=" << probe_results
     << ";sick=" << sick_probes << ";ops=" << operator_commands
     << ";cluster=" << cluster_events << ";injected=" << failures_injected
     << ";stale=" << stale_reports << ";repairs=" << repairs_performed
     << ";acks=" << watchdog_acks << ";retries=" << retry_sweeps
     << ";diag=" << diagnosis_runs << ";sweeps=" << final_sweep_rounds
     << ";audit_dropped=" << audit_dropped << ";failovers=" << failovers
     << ";replayed=" << replayed_reports
     << ";rejected=" << stale_rejections
     << ";dead_windows=" << total_death_windows
     << ";headless=" << headless_seconds
     << ";max_headless=" << max_headless_window;
  return os.str();
}

std::string ControllerService::fingerprint() const {
  const IngressStats& in = ingress_.stats();
  std::ostringstream os;
  os << std::setprecision(17);
  os << stats_.fingerprint() << ";offered=" << in.offered
     << ";accepted=" << in.accepted
     << ";dropped=" << in.dropped_overflow << ";shed=" << in.shed_probes
     << ";processed=" << in.processed << ";batches=" << in.batches
     << ";peak_depth=" << in.peak_depth
     << ";max_batch=" << in.max_batch_seen
     << ";bp_engaged=" << in.backpressure_engaged
     << ";bp_time=" << in.backpressure_time
     << ";last_end=" << in.last_batch_end
     << ";lat={" << decision_latency_.fingerprint() << "}";
  if (slo_enabled_) {
    os << ";slo={" << slo_monitor_.fingerprint() << "};health={"
       << health_.fingerprint() << "}";
  }
  return os.str();
}

}  // namespace sbk::service
