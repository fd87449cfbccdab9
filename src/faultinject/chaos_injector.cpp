#include "faultinject/chaos_injector.hpp"

#include <algorithm>
#include <sstream>

#include "net/path.hpp"
#include "routing/global_reroute.hpp"
#include "sweep/sweep.hpp"
#include "topo/position.hpp"
#include "util/assert.hpp"

namespace sbk::faultinject {

using sharebackup::DeviceState;
using sharebackup::DeviceUid;

ChaosInjector::ChaosInjector(sharebackup::Fabric& fabric,
                             control::ControlPlane& plane,
                             sim::EventQueue& queue, const FaultPlan& plan)
    : fabric_(&fabric), plane_(&plane), queue_(&queue), plan_(&plan),
      // Hook streams are derived from the plan seed so an entire chaos
      // scenario replays from the seed alone. Distinct stream ids keep
      // the report and command channels decorrelated.
      report_rng_(sweep::derive_seed(plan.seed, 0x5e9)),
      command_rng_(sweep::derive_seed(plan.seed, 0xc0d)) {}

bool ChaosInjector::faults_active() const {
  return queue_->now() < plan_->settle_at;
}

void ChaosInjector::arm() {
  SBK_EXPECTS_MSG(!armed_, "arm() must be called once");
  armed_ = true;
  const FaultPlanConfig& cfg = plan_->config;

  // Dead-on-arrival spares: one broken interface each. The controller
  // discovers this only after failing over onto the corpse.
  for (DeviceUid uid : plan_->doa_spares) {
    if (fabric_->device_state(uid) != DeviceState::kSpare) continue;
    const auto& ports = fabric_->ports_of_device(uid);
    if (ports.empty()) continue;
    fabric_->set_interface_health({uid, ports.front().cs}, false);
    ++stats_.doa_interfaces_broken;
  }

  // Control-channel fault hooks (quiet once the fault window closes).
  plane_->set_report_fault_hook(
      [this, cfg](bool, std::uint64_t, Seconds) -> std::optional<Seconds> {
        if (!faults_active()) return 0.0;
        if (report_rng_.bernoulli(cfg.report_loss_prob)) {
          ++stats_.reports_lost;
          return std::nullopt;
        }
        if (report_rng_.bernoulli(cfg.report_delay_prob)) {
          ++stats_.reports_delayed;
          return report_rng_.uniform_real(1e-5, cfg.report_delay_max);
        }
        return 0.0;
      });
  plane_->controller().set_command_fault_hook(
      [this, cfg](sharebackup::SwitchPosition, int) -> control::CommandStatus {
        if (!faults_active()) return control::CommandStatus::kAck;
        double u = command_rng_.uniform_real(0.0, 1.0);
        if (u < cfg.command_nack_prob) {
          ++stats_.commands_perturbed;
          return control::CommandStatus::kNack;
        }
        if (u < cfg.command_nack_prob + cfg.command_timeout_lost_prob) {
          ++stats_.commands_perturbed;
          return control::CommandStatus::kTimeoutLost;
        }
        if (u < cfg.command_nack_prob + cfg.command_timeout_lost_prob +
                    cfg.command_timeout_applied_prob) {
          ++stats_.commands_perturbed;
          return control::CommandStatus::kTimeoutApplied;
        }
        return control::CommandStatus::kAck;
      });

  for (const SwitchFailureEvent& ev : plan_->switch_failures) {
    queue_->schedule_at(ev.at, [this, ev] { inject_switch_failure(ev); });
  }
  for (const LinkFailureEvent& ev : plan_->link_failures) {
    queue_->schedule_at(ev.at, [this, ev] { inject_link_failure(ev); });
  }
  for (const ControllerCrashEvent& ev : plan_->controller_crashes) {
    queue_->schedule_at(ev.at, [this, ev] { crash_controller(ev); });
  }

  for (Seconds t = cfg.repair_interval; t <= cfg.horizon;
       t += cfg.repair_interval) {
    queue_->schedule_at(t, [this] { repair_tick(); });
  }
  for (Seconds t = cfg.operator_interval; t <= cfg.horizon;
       t += cfg.operator_interval) {
    queue_->schedule_at(t, [this] { operator_tick(); });
  }
  // Settle-tail sweeps: with hooks quiet, parked work should drain.
  const Seconds tail = cfg.horizon - plan_->settle_at;
  for (double f : {0.25, 0.6, 0.95}) {
    queue_->schedule_at(plan_->settle_at + f * tail,
                        [this] { final_sweep(); });
  }
}

void ChaosInjector::inject_switch_failure(const SwitchFailureEvent& ev) {
  if (fabric_->network().node_failed(ev.node)) {
    ++stats_.injections_skipped;  // still down from an earlier event
    return;
  }
  fabric_->network().fail_node(ev.node);
  record_node(ev.node);
  ++stats_.switch_failures_injected;
}

void ChaosInjector::inject_link_failure(const LinkFailureEvent& ev) {
  const net::Link& l = fabric_->network().link(ev.link);
  if (!fabric_->ground_link_failure(ev.link, ev.bad_side == 0 ? l.a : l.b)) {
    ++stats_.injections_skipped;
    return;
  }
  record_link(ev.link);
  ++stats_.link_failures_injected;
}

void ChaosInjector::crash_controller(const ControllerCrashEvent& ev) {
  control::ControllerCluster* cluster = plane_->cluster();
  if (cluster == nullptr || cluster->member_count() == 0) return;
  // Crash the acting primary when there is one (maximally disruptive);
  // otherwise the planned member.
  std::size_t m = cluster->primary().value_or(
      ev.member % cluster->member_count());
  if (!cluster->member_alive(m)) return;
  cluster->fail_member(m);
  ++stats_.controller_crashes;
  queue_->schedule_at(ev.repair_at, [this, m] {
    control::ControllerCluster* c = plane_->cluster();
    if (c != nullptr && !c->member_alive(m)) c->repair_member(m);
  });
}

void ChaosInjector::repair_tick() {
  control::Controller& controller = plane_->controller();
  controller.set_time(queue_->now());
  stats_.devices_repaired += controller.repair_out_of_service();
}

void ChaosInjector::operator_tick() {
  control::Controller& controller = plane_->controller();
  if (!controller.human_intervention_required()) return;
  controller.set_time(queue_->now());
  controller.acknowledge_intervention();
  ++stats_.watchdog_services;
}

void ChaosInjector::final_sweep() {
  control::Controller& controller = plane_->controller();
  controller.set_time(queue_->now());
  if (controller.human_intervention_required()) {
    controller.acknowledge_intervention();
    ++stats_.watchdog_services;
  } else {
    controller.retry_parked();
  }
}

void ChaosInjector::record_node(net::NodeId node) {
  if (std::find(injected_nodes_.begin(), injected_nodes_.end(), node) ==
      injected_nodes_.end()) {
    injected_nodes_.push_back(node);
  }
}

void ChaosInjector::record_link(net::LinkId link) {
  if (std::find(injected_links_.begin(), injected_links_.end(), link) ==
      injected_links_.end()) {
    injected_links_.push_back(link);
  }
}

bool ChaosInjector::node_parked(net::NodeId node) const {
  for (const sharebackup::SwitchPosition& pos :
       plane_->controller().pending_node_recoveries()) {
    if (fabric_->node_at(pos) == node) return true;
  }
  return false;
}

bool ChaosInjector::link_parked(net::LinkId link) const {
  const auto& pending = plane_->controller().pending_link_recoveries();
  return std::find(pending.begin(), pending.end(), link) != pending.end();
}

bool ChaosInjector::group_pool_empty(net::NodeId node) const {
  auto pos = fabric_->position_of_node(node);
  if (!pos.has_value()) return false;
  return fabric_
      ->spares(pos->layer, topo::failure_group_of(fabric_->k(), *pos))
      .empty();
}

bool ChaosInjector::parked_node_excused(net::NodeId node) const {
  return group_pool_empty(node) ||
         plane_->controller().human_intervention_required();
}

bool ChaosInjector::parked_link_excused(net::LinkId link) const {
  const net::Link& l = fabric_->network().link(link);
  return group_pool_empty(l.a) || group_pool_empty(l.b) ||
         plane_->controller().human_intervention_required();
}

std::vector<std::string> ChaosInjector::verify(
    const obs::RecoveryTracer* tracer) const {
  std::vector<std::string> violations;
  const net::Network& net = fabric_->network();
  const control::Controller& controller = plane_->controller();
  auto flag = [&violations](const std::string& msg) {
    violations.push_back(msg);
  };

  // (1) Every injected failure recovered or explicitly parked for cause.
  for (net::NodeId node : injected_nodes_) {
    if (!net.node_failed(node)) continue;
    const std::string name = net.node(node).name;
    if (!node_parked(node)) {
      flag("switch " + name + " still failed but not parked for retry");
    } else if (!parked_node_excused(node)) {
      flag("switch " + name +
           " parked although its backup pool is non-empty and no "
           "watchdog holds recovery");
    }
  }
  for (net::LinkId link : injected_links_) {
    if (!net.link_failed(link)) continue;
    const net::Link& l = net.link(link);
    const std::string name =
        net.node(l.a).name + "-" + net.node(l.b).name;
    if (!link_parked(link)) {
      flag("link " + name + " still failed but not parked for retry");
    } else if (!parked_link_excused(link)) {
      flag("link " + name +
           " parked although both endpoint pools are non-empty and no "
           "watchdog holds recovery");
    }
  }

  // (2) Every report buffered during an election reached a primary.
  if (plane_->reports_buffered() != plane_->reports_replayed()) {
    std::ostringstream os;
    os << plane_->reports_buffered()
       << " report(s) buffered during elections, "
       << plane_->reports_replayed() << " replayed";
    flag(os.str());
  }

  // (3) Background diagnosis drained.
  if (controller.pending_diagnosis() != 0) {
    std::ostringstream os;
    os << controller.pending_diagnosis()
       << " diagnosis job(s) still queued at end of run";
    flag(os.str());
  }

  // (4) Fabric internal invariants.
  try {
    fabric_->check_invariants();
  } catch (const ContractViolation& e) {
    flag(std::string("fabric invariant violated: ") + e.what());
  }

  // (5) Forwarding spot-check on sampled host pairs under the final
  // (possibly degraded) failure state.
  const std::vector<net::NodeId>& hosts = fabric_->fat_tree().hosts();
  if (hosts.size() >= 2) {
    routing::EcmpWithGlobalRerouteRouter router(fabric_->fat_tree());
    const std::size_t pairs = std::min<std::size_t>(8, hosts.size() / 2);
    for (std::size_t i = 0; i < pairs; ++i) {
      net::NodeId src = hosts[i];
      net::NodeId dst = hosts[(i + hosts.size() / 2) % hosts.size()];
      if (src == dst) continue;
      net::Path path = router.route(net, src, dst, i, nullptr);
      const std::string pair =
          net.node(src).name + "->" + net.node(dst).name;
      if (path.empty()) {
        // Legitimate only when part of the fabric is genuinely down
        // (degraded failures leave elements failed by design).
        if (net.failed_node_count() == 0 && net.failed_link_count() == 0) {
          flag("no route " + pair + " in a fully healthy network");
        }
        continue;
      }
      if (!net::is_valid_path(net, path)) {
        flag("invalid path routed for " + pair);
      } else if (!net::is_live_path(net, path)) {
        flag("route for " + pair + " traverses a failed element");
      }
    }
  }

  // (6) Recovery-timeline sanity.
  if (tracer != nullptr && !tracer->all_spans_monotone()) {
    flag("recovery tracer has a non-monotone incident timeline");
  }

  return violations;
}

}  // namespace sbk::faultinject
