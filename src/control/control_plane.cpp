#include "control/control_plane.hpp"

#include "util/assert.hpp"

namespace sbk::control {

ControlPlane::ControlPlane(sharebackup::Fabric& fabric,
                           sim::EventQueue& queue, ControlPlaneConfig config)
    : fabric_(&fabric), queue_(&queue), config_(config),
      controller_(fabric, config.controller),
      detector_(queue, fabric.network(), config.detector) {
  if (config_.cluster_members > 0) {
    ClusterConfig cc = config_.cluster;
    cc.members = config_.cluster_members;
    cluster_.emplace(queue, cc);
    cluster_->on_election([this](std::size_t, std::size_t, Seconds at) {
      // Failure reports that arrived while headless reach the newly
      // elected primary now.
      replay_buffered(at);
    });
  }
  controller_.set_retry_listener(
      [this](const RecoveryOutcome& out, std::optional<net::NodeId> node,
             std::optional<net::LinkId> link) {
        if (out.recovered) {
          if (node.has_value()) detector_.rearm_node(*node);
          if (link.has_value()) detector_.rearm_link(*link);
        }
        // A retried link recovery queues diagnosis exactly like a fresh
        // one; without this the exoneration that would refill the pool
        // never runs.
        schedule_diagnosis_if_pending();
        if (observer_) observer_(out, queue_->now());
      });

  detector_.on_node_failure([this](net::NodeId node, Seconds t) {
    deliver_report(Report{node, std::nullopt}, t);
  });
  detector_.on_link_failure([this](net::LinkId link, Seconds t) {
    deliver_report(Report{std::nullopt, link}, t);
  });
}

bool ControlPlane::controller_available() const {
  return !cluster_.has_value() || cluster_->available();
}

void ControlPlane::deliver_report(Report r, Seconds t) {
  if (report_fault_) {
    std::uint64_t element = r.node.has_value()
                                ? static_cast<std::uint64_t>(r.node->value())
                                : static_cast<std::uint64_t>(r.link->value());
    std::optional<Seconds> delay =
        report_fault_(r.link.has_value(), element, t);
    if (!delay.has_value()) {
      // Lost on the control channel. The detector's
      // report_retry_interval (when configured) re-sends later.
      ++reports_lost_;
      if (recorder_ != nullptr) {
        recorder_->instant("control", "report_lost", t);
      }
      return;
    }
    if (*delay > 0.0) {
      if (recorder_ != nullptr) {
        recorder_->instant("control", "report_delayed", t);
      }
      queue_->schedule_in(*delay, [this, r] {
        handle_report(r, queue_->now());
      });
      return;
    }
  }
  handle_report(r, t);
}

void ControlPlane::handle_report(const Report& r, Seconds t) {
  if (!controller_available()) {
    election_buffer_.push_back(r);
    ++reports_buffered_;
    if (recorder_ != nullptr) {
      recorder_->instant("control", "report_buffered", t);
    }
    return;
  }
  process_report(r, t);
}

void ControlPlane::process_report(const Report& r, Seconds t) {
  controller_.set_time(t);
  if (r.node.has_value()) {
    auto pos = fabric_->position_of_node(*r.node);
    SBK_ASSERT_MSG(pos.has_value(), "hosts are not watched for keep-alives");
    RecoveryOutcome out = controller_.on_switch_failure(*pos);
    if (out.recovered) detector_.rearm_node(*r.node);
    schedule_diagnosis_if_pending();
    if (observer_) observer_(out, t);
  } else {
    RecoveryOutcome out = controller_.on_link_failure(*r.link);
    if (out.recovered) detector_.rearm_link(*r.link);
    schedule_diagnosis_if_pending();
    if (observer_) observer_(out, t);
  }
}

void ControlPlane::schedule_diagnosis_if_pending() {
  if (controller_.pending_diagnosis() == 0) return;
  queue_->schedule_in(config_.diagnosis_delay, [this] {
    // Background work must not carry the stale detection timestamp:
    // audit entries and diagnosis/restore spans are stamped with the
    // controller clock. Running with an empty queue is a no-op, so
    // over-scheduling (one event per report) is harmless.
    controller_.set_time(queue_->now());
    // Only jobs that have aged a full diagnosis_delay run in this pass.
    // Drains are over-scheduled (one per report), so without the cutoff
    // a drain from an earlier report could sweep up a job queued this
    // very instant by a retried recovery, denying it its background
    // delay (and breaking span monotonicity for its incident).
    controller_.run_pending_diagnosis(queue_->now() -
                                      config_.diagnosis_delay + 1e-9);
  });
}

void ControlPlane::replay_buffered(Seconds t) {
  while (!election_buffer_.empty() && controller_available()) {
    Report r = election_buffer_.front();
    election_buffer_.pop_front();
    ++reports_replayed_;
    if (recorder_ != nullptr) {
      recorder_->instant("control", "report_replayed", t);
    }
    process_report(r, t);
  }
}

void ControlPlane::start(Seconds horizon) {
  for (net::NodeId sw : fabric_->fat_tree().all_switches()) {
    detector_.watch_node(sw, horizon);
  }
  for (std::size_t i = 0; i < fabric_->network().link_count(); ++i) {
    detector_.watch_link(
        net::LinkId(static_cast<net::LinkId::value_type>(i)), horizon);
  }
  if (cluster_.has_value()) cluster_->start(horizon);
}

}  // namespace sbk::control
