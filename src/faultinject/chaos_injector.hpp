// Binds a FaultPlan to one live simulation: schedules the plan's
// failures on the event queue, installs the control-channel fault hooks
// on the ControlPlane and Controller, simulates the background services
// the paper assumes exist (a repair crew returning confirmed-faulty
// hardware, an operator servicing tripped watchdogs), and checks the
// end-of-run robustness invariants.
//
// Invariants checked by verify():
//   1. Every injected failure is either recovered (element healthy) or
//      explicitly parked by the controller for a hardware re-attempt —
//      nothing is silently lost. A parked failure must have a cause: an
//      exhausted backup pool on (one of) its failure group(s), or a
//      currently tripped watchdog holding recovery for humans.
//   2. Every report buffered during an election was replayed to the
//      next primary (nothing is stranded in the buffer).
//   3. Offline diagnosis drained (background work cannot leak).
//   4. The fabric's internal invariants hold (circuit matchings, pool
//      accounting, device states).
//   5. Forwarding is correct under whatever failover state the chaos
//      run produced: sampled host pairs route on valid, live paths.
//   6. Recovery-timeline spans are monotone for every incident (when a
//      tracer is supplied).
#pragma once

#include <string>
#include <vector>

#include "control/control_plane.hpp"
#include "faultinject/fault_plan.hpp"
#include "obs/recovery_tracer.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sbk::faultinject {

class ChaosInjector {
 public:
  /// All four references must outlive the injector and the queue run.
  ChaosInjector(sharebackup::Fabric& fabric, control::ControlPlane& plane,
                sim::EventQueue& queue, const FaultPlan& plan);

  /// Installs hooks and schedules every planned event. Call once, before
  /// running the queue (and after ControlPlane::start so detectors are
  /// armed for the whole horizon).
  void arm();

  /// What the injector actually did (plans can be partially skipped when
  /// a victim is already failed at its scheduled time).
  struct Stats {
    std::size_t switch_failures_injected = 0;
    std::size_t link_failures_injected = 0;
    std::size_t injections_skipped = 0;
    std::size_t doa_interfaces_broken = 0;
    std::size_t reports_lost = 0;
    std::size_t reports_delayed = 0;
    std::size_t commands_perturbed = 0;
    std::size_t controller_crashes = 0;
    std::size_t devices_repaired = 0;
    std::size_t watchdog_services = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }

  /// Runs the end-of-run invariant checks (see file comment) and returns
  /// one human-readable string per violation; empty means clean. Call
  /// after the event queue has drained.
  [[nodiscard]] std::vector<std::string> verify(
      const obs::RecoveryTracer* tracer = nullptr) const;

 private:
  [[nodiscard]] bool faults_active() const;
  void inject_switch_failure(const SwitchFailureEvent& ev);
  void inject_link_failure(const LinkFailureEvent& ev);
  void crash_controller(const ControllerCrashEvent& ev);
  void repair_tick();
  void operator_tick();
  /// Settle-tail sweep: service any tripped watchdog and re-drive parked
  /// recoveries against the now-clean channels.
  void final_sweep();

  void record_node(net::NodeId node);
  void record_link(net::LinkId link);
  [[nodiscard]] bool node_parked(net::NodeId node) const;
  [[nodiscard]] bool link_parked(net::LinkId link) const;
  /// A parked element is excused iff a pool it needs is empty or the
  /// watchdog currently holds recovery.
  [[nodiscard]] bool parked_node_excused(net::NodeId node) const;
  [[nodiscard]] bool parked_link_excused(net::LinkId link) const;
  [[nodiscard]] bool group_pool_empty(net::NodeId node) const;

  sharebackup::Fabric* fabric_;
  control::ControlPlane* plane_;
  sim::EventQueue* queue_;
  const FaultPlan* plan_;
  Rng report_rng_;
  Rng command_rng_;
  Stats stats_;
  bool armed_ = false;
  /// Distinct elements actually failed by this injector (verify targets).
  std::vector<net::NodeId> injected_nodes_;
  std::vector<net::LinkId> injected_links_;
};

}  // namespace sbk::faultinject
