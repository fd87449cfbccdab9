// Live controller-cluster failover inside the always-on service (paper
// §5.1): the service drives a small cluster of Controller replicas
// instead of exactly one. Failure reports fan out
// to every live member; only the elected primary's dispatch touches the
// shared Fabric. When the primary dies mid-stream the service performs
// a deterministic state handoff and keeps going.
//
// Architecture (delta over ControllerService — see its header for the
// watermark/ingress machinery, which is inherited unchanged):
//
//     IngressQueue batch ──► on_batch_begin(start)
//                              │  cluster sim run_until(start):
//                              │  heartbeats, miss counting, elections
//                              │  complete *before* the batch; a
//                              │  finished election seats the new
//                              │  primary, hands off in-flight state,
//                              │  and replays the headless buffer
//                              ▼
//                            per-message dispatch
//                              │  kControllerCrash/Repair: applied to
//                              │  the cluster at dispatch time
//                              │  reports/ops: term guard → primary,
//                              │  or headless buffer
//                              ▼
//                            acting primary's Controller
//
// Determinism: the cluster runs on a private discrete-event queue in
// *virtual* time, advanced only from the service loop (batch begins and
// the final sweep). Crash/repair events are ServiceMessages, so they
// occupy a position in the same total (at, seq) admission order as the
// reports; every election, handoff, buffer replay and headless window
// is therefore a pure function of the message schedule, and
// fingerprints stay bit-identical across inline/1/4/8 producer threads.
//
// Failover protocol:
//   * Term guard — a (member, term) lease is captured at each batch
//     start; every dispatch validates it. A crash earlier in the same
//     batch invalidates the lease, and subsequent messages are rejected
//     (stale_rejections) and buffered rather than applied by a dead
//     primary.
//   * Headless buffer — reports, sick probes and operator commands that
//     arrive with no usable primary are buffered in admission order
//     (this lifts ControlPlane's election buffer into the IngressQueue
//     path). Healthy probe results are pure telemetry and are counted
//     immediately. The buffer replays, in order, the moment a primary
//     is seated (election win or a blip-repair of the stale primary).
//   * Handoff — a newly elected primary adopts the dead primary's
//     in-flight state (Controller::adopt_in_flight_from): parked
//     recoveries, queued diagnoses, watchdog window. Reconfiguration
//     commands are idempotent, so a command the dead primary already
//     applied is acked without a second reconfiguration — nothing is
//     acted on twice (asserted per seq).
//   * Replica durability — Controller objects model replicated state
//     machines: a "crash" removes the member from the cluster (it
//     cannot act; its term is stale), and a repaired member resumes
//     from its surviving state. State *transfer* happens only when
//     leadership moves to a different member.
//
// Invariants (asserted here and in the chaos soak): processed ==
// accepted across failovers; no seq dispatched twice; every bounded
// headless window (total-cluster-death windows excluded — they last
// until an operator repair by design) is <= ClusterConfig::
// election_bound(); kind counters + headless_backlog() == processed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "control/controller.hpp"
#include "control/controller_cluster.hpp"
#include "service/controller_service.hpp"
#include "sim/event_queue.hpp"

namespace sbk::service {

struct ReplicatedServiceConfig {
  ServiceConfig service;
  /// Election machinery: member count, heartbeat cadence, miss
  /// threshold, election duration (all in virtual seconds — scale them
  /// with the stream's time_scale).
  control::ClusterConfig cluster;
  /// Per-replica controller configuration.
  control::ControllerConfig controller;
  /// Bounded audit trail per replica (0 = unbounded).
  std::size_t audit_limit = 0;
};

namespace detail {
/// Base-from-member holder: the replicas must exist before the
/// ControllerService base is constructed (it takes the initial acting
/// controller by reference).
struct ReplicaBank {
  ReplicaBank(sharebackup::Fabric& fabric,
              const ReplicatedServiceConfig& config);
  std::vector<std::unique_ptr<control::Controller>> replicas;
};
}  // namespace detail

class ReplicatedControllerService : private detail::ReplicaBank,
                                    public ControllerService {
 public:
  explicit ReplicatedControllerService(sharebackup::Fabric& fabric,
                                       ReplicatedServiceConfig config = {});

  [[nodiscard]] const control::ControllerCluster& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas.size();
  }
  [[nodiscard]] control::Controller& replica(std::size_t i) {
    return *replicas[i];
  }
  [[nodiscard]] const control::Controller& replica(std::size_t i) const {
    return *replicas[i];
  }
  /// Cluster member currently acting as primary-facing controller (the
  /// last seated leader; survives until the next handoff even if dead).
  [[nodiscard]] std::size_t acting_member() const noexcept {
    return acting_;
  }
  /// Reports/ops still waiting in the headless buffer (nonzero after a
  /// drain only when the whole cluster died and nobody repaired it).
  [[nodiscard]] std::size_t headless_backlog() const noexcept {
    return buffer_.size();
  }
  /// Failure-relevant messages observed by member `i` while it was
  /// alive (the fan-out a fresh primary's state is reconstructed from).
  [[nodiscard]] std::uint64_t reports_seen(std::size_t i) const {
    return reports_seen_[i];
  }
  /// Per-window headless bound the soak asserts against.
  [[nodiscard]] Seconds election_bound() const noexcept {
    return rconfig_.cluster.election_bound();
  }

 protected:
  void on_batch_begin(Seconds start) override;
  void handle_message(const ServiceMessage& msg, Seconds start) override;
  void final_sweep() override;
  void publish_metrics() override;
  void fill_health(obs::slo::HealthSnapshot& snap) const override;

 private:
  struct Lease {
    std::size_t member = 0;
    std::size_t term = 0;
  };

  void seat_primary(std::size_t member, std::size_t term, Seconds at);
  void apply_crash(const ServiceMessage& msg, Seconds at);
  void apply_repair(const ServiceMessage& msg, Seconds at);
  void dispatch_to_primary(const ServiceMessage& msg, Seconds start);
  void replay_buffer(Seconds at);
  void open_headless_window(Seconds at);
  void close_headless_window(Seconds at);
  [[nodiscard]] bool lease_valid() const;
  [[nodiscard]] std::optional<Lease> capture_lease() const;
  [[nodiscard]] std::optional<std::size_t> highest_live_member() const;
  [[nodiscard]] bool any_member_alive() const;

  ReplicatedServiceConfig rconfig_;
  sim::EventQueue sim_;
  control::ControllerCluster cluster_;
  std::size_t acting_;
  std::optional<Lease> lease_;
  std::vector<ServiceMessage> buffer_;
  /// replay_buffer()'s working copy of buffer_ (swapped, so both keep
  /// their capacity).
  std::vector<ServiceMessage> replaying_;
  std::vector<std::uint64_t> reports_seen_;
  /// Exactly-once guard: seq -> already dispatched to a controller.
  std::vector<bool> acted_;
  std::optional<Seconds> headless_since_;
  bool window_total_death_ = false;
};

}  // namespace sbk::service
