#include "service/replicated_service.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace sbk::service {

namespace detail {

ReplicaBank::ReplicaBank(sharebackup::Fabric& fabric,
                         const ReplicatedServiceConfig& config) {
  SBK_EXPECTS(config.cluster.members >= 1);
  for (std::size_t i = 0; i < config.cluster.members; ++i) {
    replicas.push_back(
        std::make_unique<control::Controller>(fabric, config.controller));
    replicas.back()->set_audit_limit(config.audit_limit);
  }
}

}  // namespace detail

ReplicatedControllerService::ReplicatedControllerService(
    sharebackup::Fabric& fabric, ReplicatedServiceConfig config)
    : detail::ReplicaBank(fabric, config),
      ControllerService(fabric, *replicas[config.cluster.members - 1],
                        config.service),
      rconfig_(config),
      cluster_(sim_, config.cluster),
      acting_(config.cluster.members - 1),
      reports_seen_(config.cluster.members, 0) {
  cluster_.on_election(
      [this](std::size_t member, std::size_t term, Seconds at) {
        seat_primary(member, term, at);
      });
  // The stream length is unknown up front; the heartbeat chain runs
  // lazily (run_until at batch begins) so an infinite horizon costs
  // only the ticks the batches actually reach.
  cluster_.start(std::numeric_limits<Seconds>::infinity());
}

void ReplicatedControllerService::on_batch_begin(Seconds start) {
  // Elections whose timeline completes strictly before this batch fire
  // here (seat_primary: handoff + buffer replay at the election time).
  sim_.run_until(start);
  // The batch header set the time of whichever controller was acting
  // when the batch opened; a failover during run_until re-targeted it.
  controller_->set_time(start);
  lease_ = capture_lease();
}

void ReplicatedControllerService::handle_message(const ServiceMessage& msg,
                                                 Seconds start) {
  switch (msg.kind) {
    case MessageKind::kControllerCrash:
      ++stats_.cluster_events;
      apply_crash(msg, start);
      return;
    case MessageKind::kControllerRepair:
      ++stats_.cluster_events;
      apply_repair(msg, start);
      return;
    case MessageKind::kProbeResult:
      if (msg.healthy) {
        // Pure telemetry needs no primary: count it even while headless.
        ControllerService::handle_message(msg, start);
        return;
      }
      break;
    default:
      break;
  }
  // Failure reports fan out to every live member (§5.1), so a follower
  // promoted later has already observed the stream up to the failover.
  for (std::size_t i = 0; i < reports_seen_.size(); ++i) {
    if (cluster_.member_alive(i)) ++reports_seen_[i];
  }
  if (!lease_valid()) {
    if (lease_.has_value()) {
      // Term guard: the lease captured at batch start died mid-batch (a
      // crash earlier in this very batch) — the stale primary must not
      // act on this message.
      ++stats_.stale_rejections;
    }
    open_headless_window(start);
    slo_note_availability(false, start);
    buffer_.push_back(msg);
    return;
  }
  dispatch_to_primary(msg, start);
}

void ReplicatedControllerService::apply_crash(const ServiceMessage& msg,
                                              Seconds at) {
  std::optional<std::size_t> victim;
  if (msg.member == kClusterPrimary) {
    // The adversary kills whichever member matters: the seated primary,
    // or — mid-election — the highest live member (the imminent winner).
    victim = cluster_.primary();
    if (!victim.has_value()) victim = highest_live_member();
  } else if (msg.member < cluster_.member_count() &&
             cluster_.member_alive(msg.member)) {
    victim = msg.member;
  }
  if (!victim.has_value()) return;  // already dead: no-op
  const bool was_available = cluster_.available();
  cluster_.fail_member(*victim);
  if (recorder_ != nullptr) {
    recorder_->instant("service", "controller_crash", at,
                       "member#" + std::to_string(*victim));
  }
  if (was_available && !cluster_.available()) open_headless_window(at);
  if (headless_since_.has_value() && !any_member_alive() &&
      !window_total_death_) {
    // The window now contains total cluster death: it is unbounded by
    // design (only an operator repair ends it) and excused from the
    // election-bound assertion.
    window_total_death_ = true;
    ++stats_.total_death_windows;
  }
}

void ReplicatedControllerService::apply_repair(const ServiceMessage& msg,
                                               Seconds at) {
  bool revived = false;
  if (msg.member == kClusterPrimary) {
    for (std::size_t i = 0; i < cluster_.member_count(); ++i) {
      if (!cluster_.member_alive(i)) {
        cluster_.repair_member(i);
        revived = true;
      }
    }
  } else if (msg.member < cluster_.member_count() &&
             !cluster_.member_alive(msg.member)) {
    cluster_.repair_member(msg.member);
    revived = true;
  }
  if (revived && recorder_ != nullptr) {
    recorder_->instant("service", "controller_repair", at);
  }
  if (!cluster_.available()) return;  // follower repair, or election still due
  // The stale primary blipped back before the cluster gave up on it (or
  // the repair revived it after total death with its leadership
  // intact): no failover happened, the window closes, and the buffer
  // replays into the same controller whose in-flight state survived.
  close_headless_window(at);
  lease_ = capture_lease();
  replay_buffer(at);
}

void ReplicatedControllerService::seat_primary(std::size_t member,
                                               std::size_t term, Seconds at) {
  control::Controller* next = replicas[member].get();
  if (next != controller_) {
    next->set_time(at);
    next->adopt_in_flight_from(*controller_);
    controller_ = next;
  }
  acting_ = member;
  ++stats_.failovers;
  if (recorder_ != nullptr) {
    recorder_->instant("service", "failover", at,
                       "member#" + std::to_string(member) + " term#" +
                           std::to_string(term));
  }
  close_headless_window(at);
  lease_ = Lease{member, term};
  replay_buffer(at);
}

void ReplicatedControllerService::dispatch_to_primary(
    const ServiceMessage& msg, Seconds start) {
  if (msg.seq >= acted_.size()) acted_.resize(msg.seq + 1, false);
  SBK_ASSERT_MSG(!acted_[msg.seq],
                 "failure report acted on twice across failovers");
  acted_[msg.seq] = true;
  ControllerService::handle_message(msg, start);
}

void ReplicatedControllerService::replay_buffer(Seconds at) {
  if (buffer_.empty()) return;
  // Replay dispatches only failure-relevant messages, which never come
  // back here, so the two buffers just trade storage.
  SBK_ASSERT(replaying_.empty());
  replaying_.swap(buffer_);
  for (const ServiceMessage& msg : replaying_) {
    ++stats_.replayed_reports;
    dispatch_to_primary(msg, at);
  }
  replaying_.clear();
}

void ReplicatedControllerService::open_headless_window(Seconds at) {
  if (!headless_since_.has_value()) headless_since_ = at;
}

void ReplicatedControllerService::close_headless_window(Seconds at) {
  if (!headless_since_.has_value()) return;
  const Seconds window = at - *headless_since_;
  stats_.headless_seconds += window;
  if (!window_total_death_) {
    stats_.max_headless_window =
        std::max(stats_.max_headless_window, window);
  }
  if (recorder_ != nullptr) {
    recorder_->counter("service", "headless_window_s", at, window);
  }
  headless_since_.reset();
  window_total_death_ = false;
}

bool ReplicatedControllerService::lease_valid() const {
  if (!lease_.has_value()) return false;
  std::optional<std::size_t> p = cluster_.primary();
  return cluster_.available() && p.has_value() && *p == lease_->member &&
         cluster_.term() == lease_->term;
}

std::optional<ReplicatedControllerService::Lease>
ReplicatedControllerService::capture_lease() const {
  if (!cluster_.available()) return std::nullopt;
  return Lease{*cluster_.primary(), cluster_.term()};
}

std::optional<std::size_t>
ReplicatedControllerService::highest_live_member() const {
  for (std::size_t i = cluster_.member_count(); i-- > 0;) {
    if (cluster_.member_alive(i)) return i;
  }
  return std::nullopt;
}

bool ReplicatedControllerService::any_member_alive() const {
  for (std::size_t i = 0; i < cluster_.member_count(); ++i) {
    if (cluster_.member_alive(i)) return true;
  }
  return false;
}

void ReplicatedControllerService::final_sweep() {
  // Let any in-flight detection/election complete: one election bound
  // past the last batch covers the worst-case miss phase of a crash
  // dispatched in that batch. An election firing here seats the final
  // primary and replays the buffer at the election time.
  const Seconds settle =
      std::max(ingress_stats().last_batch_end, sim_.now()) +
      rconfig_.cluster.election_bound() + rconfig_.cluster.heartbeat_interval;
  sim_.run_until(settle);
  if (cluster_.available() && !buffer_.empty()) {
    lease_ = capture_lease();
    replay_buffer(settle);
  }
  ControllerService::final_sweep();
  // The base sweep charged audit_dropped from the final acting replica;
  // the service-level number is the sum across the whole cluster.
  std::uint64_t dropped = 0;
  for (const auto& r : replicas) dropped += r->audit_dropped();
  stats_.audit_dropped = dropped;
  // A cluster that died and was never repaired stays headless to the
  // end: close the (total-death) window at the settle horizon so
  // headless_seconds accounts for it.
  close_headless_window(settle);
}

void ReplicatedControllerService::fill_health(
    obs::slo::HealthSnapshot& snap) const {
  ControllerService::fill_health(snap);
  snap.replicated = true;
  snap.cluster_term = cluster_.term();
  snap.acting_member = static_cast<int>(acting_);
  snap.cluster_available = cluster_.available();
  snap.headless_backlog = buffer_.size();
  snap.headless_seconds = stats_.headless_seconds;
}

void ReplicatedControllerService::publish_metrics() {
  ControllerService::publish_metrics();
  if (metrics_ == nullptr) return;
  metrics_->counter("service.total_death_windows")
      .add(stats_.total_death_windows);
  metrics_->gauge("service.max_headless_window_s")
      .set(stats_.max_headless_window);
  metrics_->gauge("service.headless_backlog")
      .set(static_cast<double>(buffer_.size()));
  metrics_->gauge("service.cluster_term")
      .set(static_cast<double>(cluster_.term()));
}

}  // namespace sbk::service
