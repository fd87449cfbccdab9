#include "control/controller.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "control/recovery_latency.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::control {

using sharebackup::DeviceState;
using sharebackup::DeviceUid;
using sharebackup::Fabric;
using sharebackup::InterfaceRef;
using sharebackup::SwitchPosition;

namespace {

// The four ways a recovery degrades to the global-reroute path, as the
// outcome's detail; the audit trail names the cause before the suffix.
constexpr std::string_view kDegradedSuffix = "; degraded to global reroute";
constexpr const char* kGroupPoolExhausted =
    "backup pool exhausted for failure group; degraded to global reroute";
constexpr const char* kLinkPoolExhausted =
    "backup pool exhausted; link not recovered; degraded to global reroute";
constexpr const char* kHostLinkPoolExhausted =
    "backup pool exhausted; host link not recovered; degraded to global "
    "reroute";
constexpr const char* kRetriesExhausted =
    "reconfiguration command retries exhausted; degraded to global reroute";

}  // namespace

void FailoverList::push_back(const Report& report) {
  if (size_ < kInline) {
    inline_[size_++] = report;
    return;
  }
  if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
  spill_.push_back(report);
  ++size_;
}

Controller::Controller(Fabric& fabric, ControllerConfig config)
    : fabric_(&fabric), config_(config), engine_(fabric) {
  SBK_EXPECTS(config_.probe_interval > 0.0);
  SBK_EXPECTS(config_.miss_threshold >= 1);
  SBK_EXPECTS(config_.watchdog_threshold >= 1);
  SBK_EXPECTS(config_.command_max_retries >= 0);
  SBK_EXPECTS(config_.command_timeout >= 0.0);
  SBK_EXPECTS(config_.retry_backoff_initial >= 0.0);
  SBK_EXPECTS(config_.retry_backoff_cap >= config_.retry_backoff_initial);
  SBK_EXPECTS(config_.degraded_rule_updates >= 0);
}

void Controller::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_failovers_ = m_diagnoses_ = m_watchdog_trips_ = nullptr;
    m_pool_exhausted_ = m_retries_ = m_degraded_ = m_requeued_ = nullptr;
    m_control_latency_ = m_degraded_latency_ = nullptr;
    return;
  }
  m_failovers_ = &metrics->counter("controller.failovers");
  m_diagnoses_ = &metrics->counter("controller.diagnoses");
  m_watchdog_trips_ = &metrics->counter("controller.watchdog_trips");
  m_pool_exhausted_ = &metrics->counter("controller.pool_exhausted");
  m_retries_ = &metrics->counter("controller.retries");
  m_degraded_ = &metrics->counter("controller.degraded_reroutes");
  m_requeued_ = &metrics->counter("controller.requeued");
  m_control_latency_ = &metrics->latency("controller.control_latency");
  m_degraded_latency_ = &metrics->latency("controller.degraded_latency");
}

std::size_t Controller::trace_recovery(ReportedElement element,
                                       Seconds command_penalty) {
  if (tracer_ == nullptr) return obs::RecoveryTracer::kNoIncident;
  std::size_t inc =
      tracer_->ensure_incident(element_name(fabric_->network(), element),
                               now_);
  Seconds report_done = now_ + config_.report_latency;
  tracer_->add_span(inc, "notification", now_, report_done);
  Seconds decided = report_done + config_.processing_latency;
  tracer_->add_span(inc, "decision", report_done, decided);
  Seconds commanded = decided + config_.command_latency + command_penalty;
  tracer_->add_span(inc, "command", decided, commanded);
  Seconds reconfigured =
      commanded + sharebackup::reconfiguration_latency(fabric_->technology());
  tracer_->add_span(inc, "reconfiguration", commanded, reconfigured);
  // Backup tables are preloaded (§4.3); activation is a profile change
  // that completes with the circuit reset — a point event on the
  // timeline.
  tracer_->add_span(inc, "table_activation", reconfigured, reconfigured);
  tracer_->close_incident(inc, reconfigured);
  return inc;
}

Seconds Controller::control_path_latency() const {
  return config_.report_latency + config_.processing_latency +
         config_.command_latency +
         sharebackup::reconfiguration_latency(fabric_->technology());
}

Seconds Controller::end_to_end_recovery_latency() const {
  // Worst-case detection: the element dies right after a probe, and
  // miss_threshold consecutive probes must be missed.
  Seconds detection =
      static_cast<double>(config_.miss_threshold) * config_.probe_interval;
  return detection + control_path_latency();
}

Seconds Controller::degraded_reroute_latency() const {
  LatencyModelParams p;
  p.probe_interval = config_.probe_interval;
  p.miss_threshold = config_.miss_threshold;
  p.control_channel_one_way = config_.report_latency;
  p.controller_processing = config_.processing_latency;
  LatencyBreakdown b =
      global_reroute_latency(p, config_.degraded_rule_updates);
  // Detection already happened by the time recovery degrades; charge
  // only the post-detection reroute pipeline.
  return b.total() - b.detection;
}

Controller::CommandOutcome Controller::execute_failover(
    sharebackup::SwitchPosition pos) {
  CommandOutcome co;
  Seconds backoff = config_.retry_backoff_initial;
  bool applied = false;
  for (int attempt = 0; attempt <= config_.command_max_retries; ++attempt) {
    CommandStatus st = command_fault_ ? command_fault_(pos, attempt)
                                      : CommandStatus::kAck;
    bool applies = st == CommandStatus::kAck ||
                   st == CommandStatus::kTimeoutApplied;
    if (applies && !applied) {
      // The command reached the circuit switches: swap in spares until
      // one is verified alive (a dead-on-arrival backup cascades to the
      // next spare; the DOA unit goes out of service like any casualty).
      std::optional<Fabric::FailoverReport> rep = fabric_->fail_over(pos);
      if (!rep.has_value()) {
        co.pool_exhausted = true;
        return co;
      }
      while (!fabric_->device_interfaces_healthy(rep->replacement)) {
        co.doa_cascade.push_back(*rep);
        ++co.retries;
        ++stats_.doa_backups;
        audit({.kind = AuditKind::kDoaBackup, .device = rep->replacement});
        fabric_->network().fail_node(fabric_->node_at(pos));
        rep = fabric_->fail_over(pos);
        if (!rep.has_value()) {
          co.pool_exhausted = true;
          return co;
        }
      }
      applied = true;
      co.report = rep;
    }
    if (st == CommandStatus::kAck) {
      // Commands are idempotent: an ack for a re-sent command after a
      // lost ack confirms the reconfiguration already in effect.
      return co;
    }
    // No ack this round: charge the penalty, back off, re-send.
    ++co.retries;
    co.retry_penalty += st == CommandStatus::kNack
                            ? 2.0 * config_.command_latency
                            : config_.command_timeout;
    if (attempt < config_.command_max_retries) {
      co.retry_penalty += backoff;
      backoff = std::min(2.0 * backoff, config_.retry_backoff_cap);
    }
  }
  if (applied) {
    // Retries spent, but the reconfiguration is physically in effect
    // (every ack was lost): the position is recovered; keep the result.
    audit({.kind = AuditKind::kCommandUnacked});
    return co;
  }
  co.retries_exhausted = true;
  return co;
}

void Controller::account_command(const CommandOutcome& co,
                                 RecoveryOutcome& outcome) {
  stats_.retries += co.retries;
  if (m_retries_ && co.retries > 0) m_retries_->add(co.retries);
  outcome.retries += co.retries;
  for (const Fabric::FailoverReport& rep : co.doa_cascade) {
    count_failover(rep, outcome);
  }
}

void Controller::count_failover(const Fabric::FailoverReport& report,
                                RecoveryOutcome& outcome) {
  ++stats_.failovers;
  if (m_failovers_) m_failovers_->add();
  outcome.failovers.push_back(report);
}

void Controller::count_failed_recovery(bool pool_exhausted) {
  if (pool_exhausted) {
    ++stats_.recoveries_failed_pool_exhausted;
    if (m_pool_exhausted_) m_pool_exhausted_->add();
  } else {
    ++stats_.retries_exhausted;
  }
}

void Controller::degrade(RecoveryOutcome& outcome, ReportedElement element,
                         const char* detail) {
  SBK_EXPECTS(std::string_view(detail).ends_with(kDegradedSuffix));
  ++stats_.degraded_reroutes;
  if (m_degraded_) m_degraded_->add();
  outcome.degraded = true;
  outcome.recovered = false;
  outcome.degraded_latency = degraded_reroute_latency();
  if (m_degraded_latency_) {
    m_degraded_latency_->record(outcome.degraded_latency);
  }
  outcome.detail = detail;
  audit({.kind = AuditKind::kDegraded, .element = element, .cause = detail});
  if (recorder_ != nullptr) {
    // element_name()'s text, composed in the trace slot.
    const net::Network& net = fabric_->network();
    if (const auto* node = std::get_if<net::NodeId>(&element)) {
      recorder_->instant("control", "degraded", now_,
                         {"node:", net.node(*node).name});
    } else {
      const net::Link& l = net.link(std::get<net::LinkId>(element));
      recorder_->instant("control", "degraded", now_,
                         {"link:", net.node(l.a).name, "-",
                          net.node(l.b).name});
    }
  }
  if (tracer_ != nullptr) {
    // The incident stays open: the element is routed around, not
    // recovered; a later hardware re-attempt closes it.
    std::size_t inc = tracer_->ensure_incident(
        element_name(fabric_->network(), element), now_);
    tracer_->add_span(inc, "degraded_reroute", now_,
                      now_ + outcome.degraded_latency);
  }
}

void Controller::audit(AuditRecord record) {
  record.at = now_;
  audit_.push_back(record);
  // Amortized O(1) trim: let the log run to twice the limit, then shed
  // the oldest block in one move.
  if (audit_limit_ != 0 && audit_.size() >= 2 * audit_limit_) {
    const std::size_t drop = audit_.size() - audit_limit_;
    audit_.erase(audit_.begin(),
                 audit_.begin() + static_cast<std::ptrdiff_t>(drop));
    audit_dropped_ += drop;
  }
}

std::vector<AuditEntry> Controller::audit_log() const {
  std::vector<AuditEntry> log;
  log.reserve(audit_.size());
  for (const AuditRecord& r : audit_) log.push_back(format_audit(r));
  return log;
}

AuditEntry Controller::format_audit(const AuditRecord& r) const {
  const auto name = [this](DeviceUid uid) -> const std::string& {
    return fabric_->device(uid).name;
  };
  switch (r.kind) {
    case AuditKind::kFailover:
      return {r.at, "failover", name(r.device) + " -> " + name(r.other)};
    case AuditKind::kLinkFailover:
      return {r.at, "link-failover",
              name(r.device) + " & " + name(r.other) + " replaced"};
    case AuditKind::kDoaBackup:
      return {r.at, "doa-backup",
              name(r.device) + " dead on arrival; cascading to next spare"};
    case AuditKind::kCommandUnacked:
      return {r.at, "command-unacked",
              "reconfiguration applied but never acknowledged"};
    case AuditKind::kDegraded: {
      std::string_view cause = r.cause;
      cause.remove_suffix(kDegradedSuffix.size());
      return {r.at, "degraded",
              element_name(fabric_->network(), r.element) + ": " +
                  std::string(cause)};
    }
    case AuditKind::kHostFlagged:
      return {r.at, "host-flagged",
              fabric_->network().node(std::get<net::NodeId>(r.element)).name +
                  " (switch redressed)"};
    case AuditKind::kExonerated:
      return {r.at, "diagnosis", name(r.device) + " exonerated"};
    case AuditKind::kConfirmedFaulty:
      return {r.at, "diagnosis", name(r.device) + " confirmed faulty"};
    case AuditKind::kRepair:
      return {r.at, "repair", name(r.device) + " healed, back in pool"};
    case AuditKind::kHandoff:
      return {r.at, "handoff",
              "adopted " + std::to_string(r.count) +
                  " in-flight commands from failed primary"};
  }
  SBK_UNREACHABLE("bad audit kind");
}

void Controller::park_node(SwitchPosition pos) {
  if (std::find(pending_nodes_.begin(), pending_nodes_.end(), pos) ==
      pending_nodes_.end()) {
    pending_nodes_.push_back(pos);
  }
}

void Controller::park_link(net::LinkId link) {
  if (std::find(pending_links_.begin(), pending_links_.end(), link) ==
      pending_links_.end()) {
    pending_links_.push_back(link);
  }
}

void Controller::retry_pending() {
  if (retrying_) {
    // Re-entrant trigger (a retried recovery replenished a pool itself,
    // or a watchdog ack landed mid-pass): the outer pass must make
    // another sweep, or commands parked back during this pass would sit
    // out a refill they are now entitled to.
    retry_again_ = true;
    return;
  }
  retrying_ = true;
  do {
    retry_again_ = false;
    // Recoveries that fail again park back into the (now empty) lists.
    retry_nodes_.swap(pending_nodes_);
    retry_links_.swap(pending_links_);

    for (SwitchPosition pos : retry_nodes_) {
      if (!fabric_->network().node_failed(fabric_->node_at(pos))) continue;
      ++stats_.requeued;
      if (m_requeued_) m_requeued_->add();
      RecoveryOutcome out = on_switch_failure(pos);
      if (retry_listener_) {
        retry_listener_(out, fabric_->node_at(pos), std::nullopt);
      }
    }
    for (net::LinkId link : retry_links_) {
      if (!fabric_->network().link_failed(link)) continue;
      ++stats_.requeued;
      if (m_requeued_) m_requeued_->add();
      RecoveryOutcome out = on_link_failure(link);
      if (retry_listener_) retry_listener_(out, std::nullopt, link);
    }
    retry_nodes_.clear();
    retry_links_.clear();
    // Terminates: a re-run happens only when a nested trigger fired
    // during this pass, and each re-run either consumes spares or parks
    // everything back without firing another trigger.
  } while (retry_again_ &&
           (!pending_nodes_.empty() || !pending_links_.empty()));
  retry_again_ = false;
  retrying_ = false;
}

void Controller::adopt_in_flight_from(Controller& dead) {
  if (&dead == this) return;
  const std::size_t adopted = dead.pending_nodes_.size() +
                              dead.pending_links_.size() +
                              dead.diagnosis_queue_.size();
  // Parked recoveries survive the failover; the dedupe in
  // park_node/park_link makes a double handoff (or a report the new
  // primary already parked itself) harmless.
  for (SwitchPosition pos : dead.pending_nodes_) park_node(pos);
  for (net::LinkId link : dead.pending_links_) park_link(link);
  dead.pending_nodes_.clear();
  dead.pending_links_.clear();
  // Offline-diagnosis jobs keep their queue positions and cutoff times.
  // Their incident ids name incidents of the dead controller's tracer,
  // so they stay valid only where both controllers share one tracer
  // (the replicated service attaches none to its replicas).
  for (std::size_t i = 0; i < dead.diagnosis_queue_.size(); ++i) {
    diagnosis_queue_.push_back(dead.diagnosis_queue_[i]);
  }
  dead.diagnosis_queue_.clear();
  // A tripped watchdog is a cluster-wide operational fact: the circuit
  // switch still needs human service no matter which controller leads.
  // The report window merges so the burst that was building at the dead
  // primary can still trip the watchdog here.
  if (dead.watchdog_tripped_) watchdog_tripped_ = true;
  adopt_watch_window(dead);
  dead.watchdog_tripped_ = false;
  for (const auto& [uid, incident] : dead.incident_of_faulty_) {
    incident_of_faulty_.emplace(uid, incident);
  }
  dead.incident_of_faulty_.clear();
  audit({.kind = AuditKind::kHandoff, .count = adopted});
}

void Controller::acknowledge_intervention() {
  watchdog_tripped_ = false;
  // Start the watchdog window fresh: the serviced circuit switch's old
  // report burst must not immediately re-trip it.
  clear_watch_window();
  // Failures parked while recovery was halted get their turn now.
  retry_pending();
}

RecoveryOutcome Controller::on_switch_failure(SwitchPosition pos) {
  obs::ScopedSpan span(recorder_, "control", "switch_failure", now_);
  RecoveryOutcome outcome;
  ++stats_.node_failures_handled;
  if (watchdog_tripped_) {
    // Parked, not lost: the failure is re-attempted when the operator
    // acknowledges the intervention.
    park_node(pos);
    outcome.detail = "watchdog tripped: awaiting human intervention";
    return outcome;
  }
  // Stale-report guard: keep-alives race recovery, so a report may
  // arrive for a position that is already served by healthy hardware.
  // A second failover would burn a backup for nothing.
  const net::NodeId node = fabric_->node_at(pos);
  if (!fabric_->network().node_failed(node)) {
    outcome.recovered = true;
    outcome.detail = "stale report: position already healthy";
    return outcome;
  }
  CommandOutcome co = execute_failover(pos);
  account_command(co, outcome);
  if (!co.report.has_value()) {
    count_failed_recovery(co.pool_exhausted);
    park_node(pos);
    degrade(outcome, node,
            co.pool_exhausted ? kGroupPoolExhausted : kRetriesExhausted);
    return outcome;
  }
  const Fabric::FailoverReport& report = *co.report;
  count_failover(report, outcome);
  audit({.kind = AuditKind::kFailover,
         .device = report.failed_device,
         .other = report.replacement});
  outcome.recovered = true;
  outcome.control_latency = control_path_latency() + co.retry_penalty;
  outcome.detail = "switch replaced by backup";
  if (m_control_latency_) m_control_latency_->record(outcome.control_latency);
  trace_recovery(node, co.retry_penalty);
  return outcome;
}

void Controller::note_link_report_for_watchdog(std::size_t cs,
                                               net::LinkId link) {
  SBK_EXPECTS_MSG(watch_window_.empty() || now_ >= watch_window_.back().at,
                  "link reports must arrive in nondecreasing controller time");
  if (link.index() >= link_watch_.size()) {
    link_watch_.resize(fabric_->network().link_count());
    cs_live_reports_.resize(fabric_->circuit_switch_count(), 0);
  }
  // One live entry per link: a re-transmitted report (detector
  // re-reports, retried recoveries) retires the link's older entries
  // instead of inflating the count — the §5.1 signature is many
  // *distinct* links at one switch. A link always maps to the same
  // circuit switch, so its retired entries all counted at `cs`.
  LinkWatch& w = link_watch_[link.index()];
  cs_live_reports_[cs] -= w.live;
  ++w.generation;
  w.live = 1;
  ++cs_live_reports_[cs];
  watch_window_.push_back(LinkReport{now_, cs, link, w.generation});
  // Reports arrive in time order, so the ones that fell out of the
  // window are a prefix; retired entries that reached the front go too.
  const Seconds cutoff = now_ - config_.watchdog_window;
  while (!watch_window_.empty()) {
    const LinkReport& r = watch_window_.front();
    const bool live = watch_live(r);
    if (live && r.at >= cutoff) break;
    if (live) {
      --link_watch_[r.link.index()].live;
      --cs_live_reports_[r.cs];
    }
    watch_window_.pop_front();
  }
  const std::size_t count = cs_live_reports_[cs];
  if (count >= config_.watchdog_threshold && !watchdog_tripped_) {
    watchdog_tripped_ = true;
    ++stats_.watchdog_trips;
    if (m_watchdog_trips_) m_watchdog_trips_->add();
    if (recorder_ != nullptr) {
      recorder_->instant("control", "watchdog_trip", now_,
                         fabric_->circuit_switch(cs).name());
    }
    SBK_LOG_WARN("controller",
                 "suspected circuit switch failure at "
                     << fabric_->circuit_switch(cs).name() << " (" << count
                     << " link reports in window); requesting human "
                        "intervention");
  }
}

void Controller::clear_watch_window() {
  for (std::size_t i = 0; i < watch_window_.size(); ++i) {
    const LinkReport& r = watch_window_[i];
    link_watch_[r.link.index()].live = 0;
    cs_live_reports_[r.cs] = 0;
  }
  watch_window_.clear();
}

void Controller::adopt_watch_window(Controller& dead) {
  if (dead.watch_window_.empty()) return;
  if (link_watch_.size() < dead.link_watch_.size()) {
    link_watch_.resize(dead.link_watch_.size());
    cs_live_reports_.resize(dead.cs_live_reports_.size(), 0);
  }
  // Live entries of both windows in time order, ties to this window's
  // first — the order a stable sort of the concatenation gives. A link
  // live in both keeps both entries (both count) until it is reported
  // again; the dead window's entries take this window's generation.
  std::vector<LinkReport> mine;
  for (std::size_t i = 0; i < watch_window_.size(); ++i) {
    if (watch_live(watch_window_[i])) mine.push_back(watch_window_[i]);
  }
  std::vector<LinkReport> theirs;
  for (std::size_t i = 0; i < dead.watch_window_.size(); ++i) {
    LinkReport r = dead.watch_window_[i];
    if (!dead.watch_live(r)) continue;
    LinkWatch& w = link_watch_[r.link.index()];
    r.generation = w.generation;
    ++w.live;
    ++cs_live_reports_[r.cs];
    theirs.push_back(r);
  }
  dead.clear_watch_window();
  std::vector<LinkReport> merged;
  std::merge(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
             std::back_inserter(merged),
             [](const LinkReport& a, const LinkReport& b) {
               return a.at < b.at;
             });
  watch_window_.clear();
  for (const LinkReport& r : merged) watch_window_.push_back(r);
}

RecoveryOutcome Controller::on_link_failure(net::LinkId link) {
  obs::ScopedSpan span(recorder_, "control", "link_failure", now_);
  RecoveryOutcome outcome;
  const net::Network& net = fabric_->network();
  const net::Link& l = net.link(link);
  std::size_t cs = fabric_->cs_of_link(link);
  note_link_report_for_watchdog(cs, link);
  if (watchdog_tripped_) {
    // Parked, not lost: re-attempted on acknowledge_intervention().
    park_link(link);
    outcome.detail = "watchdog tripped: awaiting human intervention";
    return outcome;
  }

  std::optional<SwitchPosition> pos_a = fabric_->position_of_node(l.a);
  std::optional<SwitchPosition> pos_b = fabric_->position_of_node(l.b);

  // Re-probe before acting: an earlier recovery may already have fixed
  // this link — e.g. one sick switch rooting several simultaneous link
  // failures is cured by a single replacement (§5.1's "up to kn link
  // failures rooted at n switches" capacity argument).
  auto endpoint_device = [&](net::NodeId node,
                             std::optional<SwitchPosition> pos) {
    return pos.has_value() ? fabric_->device_at(*pos)
                           : fabric_->device_of_host(node);
  };
  bool currently_healthy =
      fabric_->interface_healthy(
          InterfaceRef{endpoint_device(l.a, pos_a), cs}) &&
      fabric_->interface_healthy(
          InterfaceRef{endpoint_device(l.b, pos_b), cs});
  if (!net.link_failed(link)) {
    outcome.recovered = true;
    outcome.detail = "stale report: link already healthy";
    return outcome;
  }
  if (currently_healthy) {
    fabric_->network().restore_link(link);
    outcome.recovered = true;
    outcome.control_latency = control_path_latency();
    outcome.detail = "re-probe found link healthy (already repaired)";
    if (m_control_latency_) {
      m_control_latency_->record(outcome.control_latency);
    }
    trace_recovery(link);
    return outcome;
  }

  if (pos_a.has_value() && pos_b.has_value()) {
    // Switch-switch link: replace both sides for fast recovery, then let
    // offline diagnosis sort out blame (§4.1).
    ++stats_.link_failures_handled;
    DeviceUid dev_a = fabric_->device_at(*pos_a);
    DeviceUid dev_b = fabric_->device_at(*pos_b);
    CommandOutcome ca = execute_failover(*pos_a);
    account_command(ca, outcome);
    CommandOutcome cb = execute_failover(*pos_b);
    account_command(cb, outcome);
    if (!ca.report.has_value() || !cb.report.has_value()) {
      // Roll back nothing: a half-recovered link keeps its replacement
      // (harmless — the new switch serves the position fine); but the
      // link cannot be restored without both ends replaced.
      const bool pool = ca.pool_exhausted || cb.pool_exhausted;
      count_failed_recovery(pool);
      for (const CommandOutcome* c : {&ca, &cb}) {
        if (c->report.has_value()) count_failover(*c->report, outcome);
      }
      park_link(link);
      degrade(outcome, link, pool ? kLinkPoolExhausted : kRetriesExhausted);
      return outcome;
    }
    count_failover(*ca.report, outcome);
    count_failover(*cb.report, outcome);
    audit({.kind = AuditKind::kLinkFailover,
           .device = ca.report->failed_device,
           .other = cb.report->failed_device});
    fabric_->network().fail_link(link);  // idempotent if already failed
    fabric_->network().restore_link(link);
    outcome.recovered = true;
    outcome.control_latency =
        control_path_latency() + ca.retry_penalty + cb.retry_penalty;
    outcome.detail = "both endpoints replaced; diagnosis queued";
    if (m_control_latency_) {
      m_control_latency_->record(outcome.control_latency);
    }
    diagnosis_queue_.push_back(PendingDiagnosis{
        dev_a, dev_b, cs,
        trace_recovery(link, ca.retry_penalty + cb.retry_penalty),
        now_});
    return outcome;
  }

  // Host-edge link: replace the switch side only (§4.2).
  ++stats_.host_link_failures_handled;
  std::optional<SwitchPosition> sw_pos =
      pos_a.has_value() ? pos_a : pos_b;
  SBK_EXPECTS_MSG(sw_pos.has_value(),
                  "a failed link must touch at least one switch");
  net::NodeId host = pos_a.has_value() ? l.b : l.a;

  DeviceUid old_dev = fabric_->device_at(*sw_pos);
  CommandOutcome ch = execute_failover(*sw_pos);
  account_command(ch, outcome);
  if (!ch.report.has_value()) {
    count_failed_recovery(ch.pool_exhausted);
    park_link(link);
    degrade(outcome, link,
            ch.pool_exhausted ? kHostLinkPoolExhausted : kRetriesExhausted);
    return outcome;
  }
  count_failover(*ch.report, outcome);

  // Re-test the link with the fresh switch: if the host side is at
  // fault, the failure persists.
  DeviceUid host_dev = fabric_->device_of_host(host);
  bool host_side_healthy =
      fabric_->interface_healthy(InterfaceRef{host_dev, cs});

  if (host_side_healthy) {
    fabric_->network().restore_link(link);
    outcome.recovered = true;
    outcome.detail = "edge switch replaced; host link recovered";
    if (m_control_latency_) {
      m_control_latency_->record(control_path_latency() + ch.retry_penalty);
    }
    // The replaced switch is presumed faulty; it can still be diagnosed
    // offline against backups (not against the host).
    diagnosis_queue_.push_back(PendingDiagnosis{
        old_dev, sharebackup::kNoDeviceUid, cs,
        trace_recovery(link, ch.retry_penalty), now_});
  } else {
    // Failure persists: the switch was not the problem. Redress it and
    // flag the host for troubleshooting (§4.2).
    fabric_->return_to_pool(old_dev);
    ++stats_.switches_exonerated;
    audit({.kind = AuditKind::kHostFlagged, .element = host});
    retry_pending();
    flagged_hosts_.push_back(host);
    ++stats_.hosts_flagged;
    outcome.recovered = false;
    outcome.detail = "failure persists after replacement: host flagged";
  }
  outcome.control_latency = control_path_latency() + ch.retry_penalty;
  return outcome;
}

std::size_t Controller::run_pending_diagnosis(Seconds queued_before) {
  obs::ScopedSpan span(recorder_, "control", "diagnosis_pass", now_);
  std::size_t processed = 0;
  // Queue times are monotone, so stopping at the first too-new job
  // processes exactly the jobs queued before the cutoff. Jobs queued by
  // this pass's own side effects (an exoneration refills a pool, a
  // parked recovery retries and queues a fresh diagnosis) wait for
  // their own background pass when the caller supplies a cutoff.
  while (!diagnosis_queue_.empty() &&
         diagnosis_queue_.front().queued_at < queued_before) {
    const PendingDiagnosis job = diagnosis_queue_.front();
    diagnosis_queue_.pop_front();
    ++processed;
    ++stats_.diagnoses_run;
    if (m_diagnoses_) m_diagnoses_->add();
    if (tracer_ != nullptr && job.incident != obs::RecoveryTracer::kNoIncident) {
      // The engine diagnoses instantaneously; the span marks when the
      // background pass ran, not how long the probing took.
      tracer_->add_span(job.incident, "diagnosis", now_, now_);
    }

    auto handle_verdict = [this, &job](const SuspectVerdict& v) {
      if (v.device == sharebackup::kNoDeviceUid) return;
      if (v.healthy) {
        fabric_->return_to_pool(v.device);
        ++stats_.switches_exonerated;
        audit({.kind = AuditKind::kExonerated, .device = v.device});
        if (tracer_ != nullptr &&
            job.incident != obs::RecoveryTracer::kNoIncident) {
          tracer_->add_span(job.incident, "restore", now_, now_);
        }
      } else {
        ++stats_.switches_confirmed_faulty;
        audit({.kind = AuditKind::kConfirmedFaulty, .device = v.device});
        if (job.incident != obs::RecoveryTracer::kNoIncident) {
          incident_of_faulty_[v.device] = job.incident;
        }
      }
    };

    // A queued suspect may have left the out-of-service list before the
    // background pass ran (repaired by a technician, exonerated by an
    // earlier job, or returned to the pool under chaos): only devices
    // still out can be probed offline.
    auto diagnosable = [this](DeviceUid d) {
      return d != sharebackup::kNoDeviceUid &&
             fabric_->device_state(d) == DeviceState::kOut;
    };
    bool a_ok = diagnosable(job.a);
    bool b_ok = diagnosable(job.b);
    if (a_ok && b_ok) {
      DiagnosisResult r = engine_.diagnose_link(job.a, job.b, job.cs);
      handle_verdict(r.first);
      handle_verdict(r.second);
    } else if (a_ok || b_ok) {
      SuspectVerdict v =
          engine_.diagnose_interface(a_ok ? job.a : job.b, job.cs);
      handle_verdict(v);
    }
    // Neither side still out: nothing left to probe.
  }
  if (processed > 0) retry_pending();
  return processed;
}

void Controller::on_device_repaired(DeviceUid dev) {
  SBK_EXPECTS(fabric_->device_state(dev) == DeviceState::kOut);
  fabric_->heal_device(dev);
  fabric_->return_to_pool(dev);
  audit({.kind = AuditKind::kRepair, .device = dev});
  if (auto it = incident_of_faulty_.find(dev);
      it != incident_of_faulty_.end()) {
    if (tracer_ != nullptr) {
      tracer_->add_span(it->second, "restore", now_, now_);
    }
    incident_of_faulty_.erase(it);
  }
  retry_pending();
}

std::size_t Controller::repair_out_of_service() {
  std::size_t repaired = 0;
  for (DeviceUid uid : fabric_->switch_devices()) {
    if (fabric_->device_state(uid) != DeviceState::kOut) continue;
    on_device_repaired(uid);
    ++repaired;
  }
  return repaired;
}

}  // namespace sbk::control
