// Tests for the fault-injection module: deterministic fault plans,
// control-channel fault hooks (report loss/delay, command NACK /
// timeout / lost-ack), retry + degraded-mode recovery, dead-on-arrival
// backup cascades, and the chaos soak harness (clean at small scale and
// bit-identical across thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "control/control_plane.hpp"
#include "faultinject/chaos_injector.hpp"
#include "faultinject/chaos_soak.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "service/message.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace sbk::faultinject {
namespace {

using control::CommandStatus;
using control::Controller;
using control::ControllerConfig;
using control::RecoveryOutcome;
using sharebackup::Fabric;
using sharebackup::FabricParams;
using topo::Layer;
using topo::SwitchPosition;

FabricParams fp(int k, int n) {
  FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = n;
  return p;
}

// --- fault plans ------------------------------------------------------------

TEST(FaultPlan, DeterministicFromSeed) {
  Fabric fabric(fp(4, 1));
  FaultPlanConfig cfg;
  FaultPlan a = FaultPlan::generate(fabric, cfg, 42);
  FaultPlan b = FaultPlan::generate(fabric, cfg, 42);
  ASSERT_EQ(a.switch_failures.size(), b.switch_failures.size());
  for (std::size_t i = 0; i < a.switch_failures.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.switch_failures[i].at, b.switch_failures[i].at);
    EXPECT_EQ(a.switch_failures[i].node, b.switch_failures[i].node);
  }
  ASSERT_EQ(a.link_failures.size(), b.link_failures.size());
  for (std::size_t i = 0; i < a.link_failures.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.link_failures[i].at, b.link_failures[i].at);
    EXPECT_EQ(a.link_failures[i].link, b.link_failures[i].link);
    EXPECT_EQ(a.link_failures[i].bad_side, b.link_failures[i].bad_side);
  }
  EXPECT_EQ(a.doa_spares, b.doa_spares);
  EXPECT_EQ(a.controller_crashes.size(), b.controller_crashes.size());

  // A different seed must change the schedule somewhere.
  FaultPlan c = FaultPlan::generate(fabric, cfg, 43);
  bool differs = c.switch_failures.size() != a.switch_failures.size();
  for (std::size_t i = 0; !differs && i < a.switch_failures.size(); ++i) {
    differs = a.switch_failures[i].node != c.switch_failures[i].node ||
              a.switch_failures[i].at != c.switch_failures[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, FailuresStayInsideFaultWindow) {
  Fabric fabric(fp(4, 2));
  FaultPlanConfig cfg;
  FaultPlan plan = FaultPlan::generate(fabric, cfg, 7);
  EXPECT_DOUBLE_EQ(plan.settle_at, cfg.injection_window * cfg.horizon);
  for (const auto& ev : plan.switch_failures) {
    EXPECT_GE(ev.at, 0.0);
    EXPECT_LT(ev.at, plan.settle_at);
  }
  for (const auto& ev : plan.link_failures) {
    EXPECT_LT(ev.at, plan.settle_at);
  }
  // Sorted so the injector can schedule them in order.
  EXPECT_TRUE(std::is_sorted(
      plan.link_failures.begin(), plan.link_failures.end(),
      [](const LinkFailureEvent& a, const LinkFailureEvent& b) {
        return a.at < b.at;
      }));
  // Bursts were requested, so some link failures must be correlated.
  EXPECT_TRUE(std::any_of(plan.link_failures.begin(),
                          plan.link_failures.end(),
                          [](const LinkFailureEvent& e) { return e.burst; }));
}

TEST(FaultPlan, ClusterScenariosProduceScriptedCrashSchedules) {
  Fabric fabric(fp(4, 2));
  FaultPlanConfig cfg;
  cfg.cluster_members = 3;

  cfg.cluster_scenario = ClusterScenario::kPrimaryCrash;
  FaultPlan primary = FaultPlan::generate(fabric, cfg, 11);
  ASSERT_EQ(primary.controller_crashes.size(), 1u);
  EXPECT_EQ(primary.controller_crashes[0].member, kPrimaryMember);
  EXPECT_DOUBLE_EQ(primary.controller_crashes[0].repair_at,
                   primary.controller_crashes[0].at +
                       cfg.controller_repair_delay);

  cfg.cluster_scenario = ClusterScenario::kCrashDuringElection;
  FaultPlan during = FaultPlan::generate(fabric, cfg, 11);
  ASSERT_EQ(during.controller_crashes.size(), 2u);
  // The second kill lands strictly inside the first's election bound.
  EXPECT_GT(during.controller_crashes[1].at, during.controller_crashes[0].at);
  EXPECT_LT(during.controller_crashes[1].at,
            during.controller_crashes[0].at + cfg.cluster_election_bound);

  cfg.cluster_scenario = ClusterScenario::kTotalDeath;
  FaultPlan death = FaultPlan::generate(fabric, cfg, 11);
  ASSERT_EQ(death.controller_crashes.size(), cfg.cluster_members);
  for (const ControllerCrashEvent& ev : death.controller_crashes) {
    EXPECT_EQ(ev.member, kPrimaryMember);
    EXPECT_DOUBLE_EQ(ev.repair_at, death.controller_crashes[0].at +
                                       cfg.controller_repair_delay);
  }
}

// --- report-stream edge cases -----------------------------------------------

TEST(ReportStream, ZeroRepeatsViolatesTheContract) {
  Fabric fabric(fp(4, 1));
  FaultPlan plan = FaultPlan::generate(fabric, FaultPlanConfig{}, 3);
  ReportStreamConfig cfg;
  cfg.repeats = 0;
  EXPECT_THROW(build_report_stream(plan, cfg), ContractViolation);
  cfg.repeats = 1;
  cfg.time_scale = 0.0;  // and virtual time cannot stand still
  EXPECT_THROW(build_report_stream(plan, cfg), ContractViolation);
}

TEST(ReportStream, ExtremeTimeScalesKeepTheScheduleWellFormed) {
  Fabric fabric(fp(4, 1));
  FaultPlanConfig pcfg;
  pcfg.controller_crash_prob = 1.0;  // force a crash/repair pair
  FaultPlan plan = FaultPlan::generate(fabric, pcfg, 3);
  for (double scale : {1e-12, 1e12}) {
    ReportStreamConfig cfg;
    cfg.repeats = 2;
    cfg.time_scale = scale;
    const auto stream = build_report_stream(plan, cfg);
    ASSERT_FALSE(stream.empty());
    // Saturated or stretched, the admission order must stay intact:
    // finite nonnegative times, nondecreasing, dense unique seqs.
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_TRUE(std::isfinite(stream[i].at));
      EXPECT_GE(stream[i].at, 0.0);
      EXPECT_EQ(stream[i].seq, i);
      if (i > 0) {
        EXPECT_GE(stream[i].at, stream[i - 1].at);
      }
    }
    const auto b = breakdown(stream);
    EXPECT_EQ(b.total, stream.size());
    EXPECT_GT(b.cluster_events, 0u);
  }
}

TEST(ReportStream, LeadingControllerCrashComesOutFirstAndMapsToPrimary) {
  Fabric fabric(fp(4, 1));
  // Hand-built plan whose very first event is the controller crash —
  // before any failure report exists to warm the service up.
  FaultPlan plan;
  plan.config.horizon = 1.0;
  plan.settle_at = 0.6;
  ControllerCrashEvent ev;
  ev.at = 0.0;
  ev.member = kPrimaryMember;
  ev.repair_at = 0.3;
  plan.controller_crashes.push_back(ev);
  SwitchFailureEvent sw;
  sw.at = 0.1;
  sw.node = fabric.fat_tree().all_switches()[0];
  plan.switch_failures.push_back(sw);

  ReportStreamConfig cfg;
  cfg.background_probes = 0;  // keep the head of the stream bare
  const auto stream = build_report_stream(plan, cfg);
  ASSERT_GE(stream.size(), 4u);  // crash, reports, repair, cadences
  EXPECT_EQ(stream[0].kind, service::MessageKind::kControllerCrash);
  EXPECT_EQ(stream[0].at, 0.0);
  EXPECT_EQ(stream[0].member, service::kClusterPrimary);
  // The paired repair is present and later.
  const auto repair = std::find_if(
      stream.begin(), stream.end(), [](const service::ServiceMessage& m) {
        return m.kind == service::MessageKind::kControllerRepair;
      });
  ASSERT_NE(repair, stream.end());
  EXPECT_GT(repair->at, stream[0].at);
  EXPECT_EQ(repair->member, service::kClusterPrimary);
}

// --- command-channel faults -------------------------------------------------

TEST(Controller, CommandNackRetriesUntilAck) {
  Fabric fabric(fp(6, 1));
  Controller clean(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kAgg, 0, 1};

  // Baseline latency from an identical, fault-free recovery.
  fabric.network().fail_node(fabric.node_at(pos));
  Seconds base = clean.on_switch_failure(pos).control_latency;

  Fabric fabric2(fp(6, 1));
  Controller ctrl(fabric2, ControllerConfig{});
  int calls = 0;
  ctrl.set_command_fault_hook([&](SwitchPosition, int attempt) {
    ++calls;
    return attempt == 0 ? CommandStatus::kNack : CommandStatus::kAck;
  });
  fabric2.network().fail_node(fabric2.node_at(pos));
  RecoveryOutcome out = ctrl.on_switch_failure(pos);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_EQ(ctrl.stats().retries, 1u);
  // The NACK round-trip plus one backoff step is charged to the
  // recovery's control latency.
  EXPECT_GT(out.control_latency, base);
  fabric2.check_invariants();
}

TEST(Controller, LostAckIsIdempotentAndBurnsOneSpare) {
  Fabric fabric(fp(6, 2));
  Controller ctrl(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kEdge, 2, 1};
  std::size_t group = 2;  // edge failure groups are per-pod
  std::size_t spares_before = fabric.spares(Layer::kEdge, group).size();
  ctrl.set_command_fault_hook([](SwitchPosition, int attempt) {
    // Applied but the ack is lost; the re-send is acked without a second
    // reconfiguration (commands are idempotent).
    return attempt == 0 ? CommandStatus::kTimeoutApplied : CommandStatus::kAck;
  });
  fabric.network().fail_node(fabric.node_at(pos));
  RecoveryOutcome out = ctrl.on_switch_failure(pos);
  EXPECT_TRUE(out.recovered);
  ASSERT_EQ(out.failovers.size(), 1u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_EQ(fabric.spares(Layer::kEdge, group).size(), spares_before - 1);
  EXPECT_FALSE(fabric.network().node_failed(fabric.node_at(pos)));
  fabric.check_invariants();
}

TEST(Controller, RetriesExhaustedDegradesParksAndRequeues) {
  Fabric fabric(fp(6, 1));
  Controller ctrl(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kAgg, 3, 0};
  std::size_t spares_before = fabric.spares(Layer::kAgg, 3).size();
  ctrl.set_command_fault_hook(
      [](SwitchPosition, int) { return CommandStatus::kNack; });
  fabric.network().fail_node(fabric.node_at(pos));
  RecoveryOutcome out = ctrl.on_switch_failure(pos);
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.degraded);
  EXPECT_GT(out.degraded_latency, 0.0);
  // NACKed commands never reach the circuit switches: no spare burned.
  EXPECT_EQ(fabric.spares(Layer::kAgg, 3).size(), spares_before);
  EXPECT_TRUE(fabric.network().node_failed(fabric.node_at(pos)));
  EXPECT_EQ(ctrl.stats().retries_exhausted, 1u);
  EXPECT_EQ(ctrl.stats().degraded_reroutes, 1u);
  ASSERT_EQ(ctrl.pending_node_recoveries().size(), 1u);
  EXPECT_EQ(ctrl.pending_node_recoveries().front(), pos);

  // Channel heals; the parked failure is re-attempted and recovers.
  ctrl.set_command_fault_hook(nullptr);
  ctrl.retry_parked();
  EXPECT_EQ(ctrl.pending_recoveries(), 0u);
  EXPECT_FALSE(fabric.network().node_failed(fabric.node_at(pos)));
  EXPECT_GE(ctrl.stats().requeued, 1u);
  fabric.check_invariants();
}

TEST(Controller, DeadOnArrivalBackupCascadesToNextSpare) {
  Fabric fabric(fp(6, 2));
  Controller ctrl(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kAgg, 1, 1};
  auto spares = fabric.spares(Layer::kAgg, 1);
  ASSERT_EQ(spares.size(), 2u);
  // First spare in allocation order is dead on arrival: break one of its
  // real circuit-switch interfaces.
  const auto& ports = fabric.ports_of_device(spares.front());
  ASSERT_FALSE(ports.empty());
  fabric.set_interface_health({spares.front(), ports.front().cs}, false);

  fabric.network().fail_node(fabric.node_at(pos));
  RecoveryOutcome out = ctrl.on_switch_failure(pos);
  EXPECT_TRUE(out.recovered);
  // Two failovers: the DOA swap-in plus the cascade onto the healthy
  // spare; one retry charged for the cascade.
  EXPECT_EQ(out.failovers.size(), 2u);
  EXPECT_GE(out.retries, 1u);
  EXPECT_EQ(ctrl.stats().doa_backups, 1u);
  EXPECT_FALSE(fabric.network().node_failed(fabric.node_at(pos)));
  EXPECT_TRUE(fabric.spares(Layer::kAgg, 1).empty());
  fabric.check_invariants();
}

// --- report-channel faults --------------------------------------------------

TEST(ControlPlane, LostReportsAreResentAndRecover) {
  Fabric fabric(fp(4, 1));
  sim::EventQueue queue;
  control::ControlPlaneConfig cfg;
  cfg.cluster_members = 0;  // single controller, isolate the report path
  cfg.diagnosis_delay = milliseconds(25);
  cfg.detector.report_retry_interval = milliseconds(5);
  control::ControlPlane plane(fabric, queue, cfg);

  int seen = 0;
  plane.set_report_fault_hook(
      [&](bool, std::uint64_t, Seconds) -> std::optional<Seconds> {
        // First two transmissions vanish; the detector's re-send gets
        // through on the third.
        return ++seen <= 2 ? std::nullopt : std::optional<Seconds>(0.0);
      });

  SwitchPosition pos{Layer::kEdge, 1, 0};
  net::NodeId victim = fabric.node_at(pos);
  plane.start(0.5);
  queue.schedule_at(0.01, [&] { fabric.network().fail_node(victim); });
  queue.run();

  EXPECT_EQ(plane.reports_lost(), 2u);
  EXPECT_GE(seen, 3);
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().node_failures_handled, 1u);
  fabric.check_invariants();
}

TEST(ControlPlane, DelayedReportStillRecovers) {
  Fabric fabric(fp(4, 1));
  sim::EventQueue queue;
  control::ControlPlaneConfig cfg;
  cfg.cluster_members = 0;
  cfg.diagnosis_delay = milliseconds(25);
  control::ControlPlane plane(fabric, queue, cfg);

  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered && recovered_at < 0.0) recovered_at = t;
  });
  plane.set_report_fault_hook(
      [&](bool, std::uint64_t, Seconds) -> std::optional<Seconds> {
        return milliseconds(2);  // every report held back 2ms
      });

  SwitchPosition pos{Layer::kEdge, 0, 1};
  net::NodeId victim = fabric.node_at(pos);
  plane.start(0.5);
  queue.schedule_at(0.01, [&] { fabric.network().fail_node(victim); });
  queue.run();

  EXPECT_FALSE(fabric.network().node_failed(victim));
  // Detection needs miss_threshold probes; the injected delay lands on
  // top of that, so recovery happens at detection + 2ms or later.
  EXPECT_GE(recovered_at, 0.01 + milliseconds(2));
}

// --- chaos scenarios --------------------------------------------------------

ChaosSoakConfig small_soak(std::size_t scenarios, std::size_t threads) {
  ChaosSoakConfig cfg;
  cfg.scenarios = scenarios;
  cfg.master_seed = 99;
  cfg.threads = threads;
  cfg.plan.horizon = 1.0;
  cfg.plan.switch_failures = 2;
  cfg.plan.link_failures = 2;
  cfg.plan.bursts = 1;
  return cfg;
}

TEST(ChaosScenario, ReplaysExactlyFromSeed) {
  ChaosSoakConfig cfg = small_soak(1, 1);
  sweep::ScenarioSpec spec{0, sweep::derive_seed(cfg.master_seed, 0)};
  ChaosScenarioResult a = run_chaos_scenario(cfg, spec);
  ChaosScenarioResult b = run_chaos_scenario(cfg, spec);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.degraded_reroutes, b.degraded_reroutes);
  EXPECT_EQ(a.requeued, b.requeued);
  EXPECT_EQ(a.reports_lost, b.reports_lost);
}

TEST(ChaosSoak, SmallSoakRunsCleanAndExercisesFaults) {
  ChaosSoakReport report = run_chaos_soak(small_soak(8, 2));
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_EQ(report.scenarios.size(), 8u);
  std::size_t injected = 0, failovers = 0;
  for (const auto& s : report.scenarios) {
    injected += s.failures_injected;
    failovers += s.failovers;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(failovers, 0u);
}

TEST(ChaosSoak, BitIdenticalAcrossThreadCounts) {
  ChaosSoakReport serial = run_chaos_soak(small_soak(6, 1));
  ChaosSoakReport parallel = run_chaos_soak(small_soak(6, 4));
  ASSERT_EQ(serial.scenarios.size(), parallel.scenarios.size());
  for (std::size_t i = 0; i < serial.scenarios.size(); ++i) {
    const auto& a = serial.scenarios[i];
    const auto& b = parallel.scenarios[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.failures_injected, b.failures_injected);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.degraded_reroutes, b.degraded_reroutes);
    EXPECT_EQ(a.requeued, b.requeued);
    EXPECT_EQ(a.watchdog_trips, b.watchdog_trips);
    EXPECT_EQ(a.reports_lost, b.reports_lost);
    EXPECT_EQ(a.reports_buffered, b.reports_buffered);
    EXPECT_EQ(a.probes_routed, b.probes_routed);
    EXPECT_EQ(a.unreachable_global_reroute, b.unreachable_global_reroute);
    EXPECT_EQ(a.unreachable_spider, b.unreachable_spider);
    EXPECT_EQ(a.unreachable_backup_rules, b.unreachable_backup_rules);
  }
}

TEST(ChaosSoak, OutcomesMatchPinnedDigest) {
  // The determinism tests above compare runs of one build; this one pins
  // the outcome across builds. A change in event order (an event queue
  // that broke same-time ties differently, a detector that probed in
  // another order) moves the counters of some scenario and with them
  // the digest. The constant was recorded with the binary-heap queue
  // that the run-grouped queue replaced, so it checks the replacement
  // against an independent implementation. A deliberate behaviour
  // change re-records it.
  ChaosSoakConfig cfg;
  cfg.scenarios = 25;
  cfg.master_seed = 7;
  cfg.threads = 2;
  cfg.k = 8;
  cfg.backups_per_group = 2;
  cfg.cluster_members = 3;
  const ChaosSoakReport report = run_chaos_soak(cfg);
  ASSERT_EQ(report.scenarios.size(), cfg.scenarios);
  EXPECT_TRUE(report.clean()) << report.summary();
  std::uint64_t digest = 0;
  auto add = [&digest](std::uint64_t v) {
    digest = sweep::splitmix64(digest ^ v);
  };
  for (const ChaosScenarioResult& s : report.scenarios) {
    for (std::uint64_t v :
         {s.seed, static_cast<std::uint64_t>(s.violations.size()),
          static_cast<std::uint64_t>(s.failures_injected),
          static_cast<std::uint64_t>(s.failovers),
          static_cast<std::uint64_t>(s.retries),
          static_cast<std::uint64_t>(s.degraded_reroutes),
          static_cast<std::uint64_t>(s.requeued),
          static_cast<std::uint64_t>(s.watchdog_trips),
          static_cast<std::uint64_t>(s.reports_lost),
          static_cast<std::uint64_t>(s.reports_buffered),
          static_cast<std::uint64_t>(s.probes_routed),
          static_cast<std::uint64_t>(s.unreachable_global_reroute),
          static_cast<std::uint64_t>(s.unreachable_spider),
          static_cast<std::uint64_t>(s.unreachable_backup_rules),
          static_cast<std::uint64_t>(s.slo_breaches),
          static_cast<std::uint64_t>(s.slo_clears)}) {
      add(v);
    }
  }
  EXPECT_EQ(digest, 0xc63f5e8f853b1917ULL) << std::hex << "digest 0x" << digest;
}

TEST(ChaosSoak, ReachabilityRaceProbesEveryStrategy) {
  // The post-recovery race routes the same host pairs with all three
  // non-ShareBackup strategies over the end-state network; any invalid
  // or dead path would surface as a violation. ShareBackup's whole
  // point is that the end-state is fully repaired at small fault rates,
  // so reachability stays perfect for every strategy here.
  ChaosSoakConfig cfg = small_soak(4, 1);
  cfg.reachability_probes = 16;
  ChaosSoakReport report = run_chaos_soak(cfg);
  EXPECT_TRUE(report.clean()) << report.summary();
  for (const auto& s : report.scenarios) {
    EXPECT_EQ(s.probes_routed, 16u);
    EXPECT_EQ(s.unreachable_global_reroute, 0u);
    EXPECT_EQ(s.unreachable_spider, 0u);
    EXPECT_EQ(s.unreachable_backup_rules, 0u);
  }
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("reachability race"), std::string::npos);

  // Disabling the race zeroes the tallies without touching the rest of
  // the scenario (the probe rng stream is separate from the fault
  // plan's).
  cfg.reachability_probes = 0;
  ChaosSoakReport quiet = run_chaos_soak(cfg);
  ASSERT_EQ(quiet.scenarios.size(), report.scenarios.size());
  for (std::size_t i = 0; i < quiet.scenarios.size(); ++i) {
    EXPECT_EQ(quiet.scenarios[i].probes_routed, 0u);
    EXPECT_EQ(quiet.scenarios[i].failures_injected,
              report.scenarios[i].failures_injected);
    EXPECT_EQ(quiet.scenarios[i].failovers, report.scenarios[i].failovers);
  }
}

}  // namespace
}  // namespace sbk::faultinject
