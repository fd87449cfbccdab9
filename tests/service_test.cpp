// Tests for the always-on controller service (ROADMAP item 2): the
// bounded-ingress queueing model (overflow, backpressure hysteresis,
// batch formation, decision latency) and the ControllerService
// determinism contract — drain exactly-once, and bit-identical stats
// across producer-thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "control/controller_cluster.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "service/controller_service.hpp"
#include "service/ingress_queue.hpp"
#include "service/message.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::service {
namespace {

namespace fi = sbk::faultinject;

ServiceMessage report_at(Seconds at, std::uint64_t seq) {
  ServiceMessage m;
  m.kind = MessageKind::kNodeFailureReport;
  m.at = at;
  m.seq = seq;
  return m;
}

ServiceMessage probe_at(Seconds at, std::uint64_t seq, bool healthy = true) {
  ServiceMessage m;
  m.kind = MessageKind::kProbeResult;
  m.at = at;
  m.seq = seq;
  m.healthy = healthy;
  return m;
}

/// A queue whose server is slow enough that same-instant arrivals pile
/// up: batch of 1, one virtual second per batch.
IngressConfig slow_server(std::size_t capacity, std::size_t high,
                          std::size_t low) {
  IngressConfig c;
  c.capacity = capacity;
  c.high_water = high;
  c.low_water = low;
  c.max_batch = 1;
  c.batch_overhead = 0.5;
  c.per_message_cost = 0.5;
  return c;
}

TEST(IngressQueue, OverflowDropsAreExplicitAndDeterministic) {
  std::size_t dispatched = 0;
  std::vector<bool> reject_overflow;
  IngressQueue q(slow_server(/*capacity=*/4, /*high=*/3, /*low=*/1),
                 [&](const std::vector<ServiceMessage>& batch, Seconds,
                     Seconds) { dispatched += batch.size(); });
  q.set_reject_hook([&](const ServiceMessage&, bool overflow) {
    reject_overflow.push_back(overflow);
  });

  // Ten same-instant failure reports against a capacity-4 queue whose
  // server takes 1s per message: the first is dispatched immediately
  // (server idle at t=0), four are queued, five find the queue full.
  for (std::uint64_t s = 1; s <= 10; ++s) q.offer(report_at(0.0, s));
  EXPECT_EQ(q.stats().offered, 10u);
  EXPECT_EQ(q.stats().accepted, 5u);
  EXPECT_EQ(q.stats().dropped_overflow, 5u);
  EXPECT_EQ(q.stats().peak_depth, 4u);
  ASSERT_EQ(reject_overflow.size(), 5u);
  for (bool overflow : reject_overflow) EXPECT_TRUE(overflow);

  q.drain();
  EXPECT_EQ(q.stats().processed, q.stats().accepted);
  EXPECT_EQ(dispatched, 5u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(IngressQueue, BackpressureHysteresisShedsOnlyHealthyProbes) {
  std::vector<std::pair<bool, Seconds>> edges;
  IngressQueue q(slow_server(/*capacity=*/16, /*high=*/4, /*low=*/2),
                 [](const std::vector<ServiceMessage>&, Seconds, Seconds) {});
  q.set_backpressure_hook(
      [&](bool asserted, Seconds at) { edges.emplace_back(asserted, at); });

  // Build the queue to the high-water mark with failure reports (the
  // first arrival is served immediately; occupancy then climbs 1..4).
  for (std::uint64_t s = 1; s <= 5; ++s) q.offer(report_at(0.0, s));
  ASSERT_TRUE(q.backpressure());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].first);
  EXPECT_EQ(edges[0].second, 0.0);

  // Under backpressure: healthy probes are shed, sick probes and
  // failure reports are still admitted.
  q.offer(probe_at(0.0, 6, /*healthy=*/true));
  EXPECT_EQ(q.stats().shed_probes, 1u);
  q.offer(probe_at(0.0, 7, /*healthy=*/false));
  q.offer(report_at(0.0, 8));
  EXPECT_EQ(q.stats().accepted, 7u);
  EXPECT_EQ(q.stats().shed_probes, 1u);

  // Let the server work the queue down: by t=5 it has finished five
  // messages (one per second), occupancy 6 -> 2 <= low_water, so the
  // release edge fires mid-drain — and a healthy probe is admitted
  // again.
  q.offer(probe_at(5.0, 9, /*healthy=*/true));
  ASSERT_FALSE(q.backpressure());
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_FALSE(edges[1].first);
  EXPECT_EQ(q.stats().shed_probes, 1u);
  EXPECT_EQ(q.stats().backpressure_engaged, 1u);
  EXPECT_GT(q.stats().backpressure_time, 0.0);

  q.drain();
  EXPECT_EQ(q.stats().processed, q.stats().accepted);
}

TEST(IngressQueue, BatchesFormFromArrivedPrefixAndRespectCap) {
  std::vector<std::size_t> batch_sizes;
  std::vector<Seconds> batch_starts;
  IngressConfig c;
  c.capacity = 64;
  c.high_water = 63;
  c.low_water = 1;
  c.max_batch = 3;
  c.batch_overhead = 0.0;
  c.per_message_cost = 1.0;
  IngressQueue q(c, [&](const std::vector<ServiceMessage>& batch,
                        Seconds start, Seconds) {
    batch_sizes.push_back(batch.size());
    batch_starts.push_back(start);
  });

  // Seven messages at t=0: the first batch starts at t=0 with only the
  // queued prefix (1 message, offered one at a time); the rest wait for
  // the server and then leave in max_batch groups.
  for (std::uint64_t s = 1; s <= 7; ++s) q.offer(report_at(0.0, s));
  q.drain();
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 1u);  // server idle: dispatched on arrival
  EXPECT_EQ(batch_sizes[1], 3u);  // formed while server busy, capped
  EXPECT_EQ(batch_sizes[2], 3u);
  EXPECT_EQ(batch_starts[0], 0.0);
  EXPECT_EQ(batch_starts[1], 1.0);  // when the server freed up
  EXPECT_EQ(batch_starts[2], 4.0);
  EXPECT_EQ(q.stats().max_batch_seen, 3u);
  EXPECT_EQ(q.stats().batches, 3u);
}

TEST(IngressQueue, RejectsUnsortedArrivals) {
  IngressQueue q(slow_server(8, 7, 1),
                 [](const std::vector<ServiceMessage>&, Seconds, Seconds) {});
  q.offer(report_at(1.0, 5));
  EXPECT_THROW(q.offer(report_at(0.5, 6)), ContractViolation);  // time back
  EXPECT_THROW(q.offer(report_at(1.0, 5)), ContractViolation);  // seq tie
}

/// A small but representative stream: failures, resends, probes, and
/// operator cadences over a k=6 fabric, time-compressed enough that
/// queueing actually happens.
std::vector<ServiceMessage> small_stream(const sharebackup::Fabric& fabric) {
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 6;
  pcfg.link_failures = 9;
  pcfg.bursts = 2;
  pcfg.burst_size = 3;
  const fi::FaultPlan plan = fi::FaultPlan::generate(fabric, pcfg, /*seed=*/7);
  fi::ReportStreamConfig scfg;
  scfg.repeats = 6;
  scfg.resends = 2;
  // Dense telemetry: backpressure windows around report bursts are
  // short, so probes must be frequent enough that some land inside one
  // (that is what the shed counter test pins).
  scfg.background_probes = 512;
  scfg.time_scale = 0.02;
  return fi::build_report_stream(plan, scfg);
}

ServiceConfig burst_sized_service() {
  ServiceConfig c;
  // Watermarks sized below the stream's natural burst peak (~8 queued)
  // so backpressure genuinely engages in a test-sized run.
  c.ingress.high_water = 6;
  c.ingress.low_water = 2;
  return c;
}

struct PassOutput {
  std::string fingerprint;
  ServiceStats stats;
  IngressStats ingress;
};

/// One full lifecycle against a fresh fabric/controller; threads <= 0
/// runs inline.
PassOutput run_pass(const std::vector<ServiceMessage>& stream, int threads) {
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  control::Controller controller(fabric, control::ControllerConfig{});
  controller.set_audit_limit(1000);
  ControllerService service(fabric, controller, burst_sized_service());
  if (threads <= 0) {
    service.run_inline(stream);
  } else {
    std::vector<int> ids;
    for (int p = 0; p < threads; ++p) ids.push_back(service.add_producer());
    service.start();
    std::vector<std::thread> workers;
    for (int p = 0; p < threads; ++p) {
      workers.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p); i < stream.size();
             i += static_cast<std::size_t>(threads)) {
          service.submit(ids[static_cast<std::size_t>(p)], stream[i]);
        }
        service.finish_producer(ids[static_cast<std::size_t>(p)]);
      });
    }
    for (auto& w : workers) w.join();
    service.drain_and_stop();
  }
  return {service.fingerprint(), service.stats(), service.ingress_stats()};
}

TEST(ControllerService, DrainProcessesEveryAcceptedMessageExactlyOnce) {
  Log::set_level(LogLevel::kError);  // watchdog churn is expected here
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream = small_stream(fabric);
  ASSERT_GT(stream.size(), 1000u);

  const PassOutput out = run_pass(stream, /*threads=*/0);
  // Exactly-once: everything admitted was dispatched, nothing remains.
  EXPECT_EQ(out.ingress.processed, out.ingress.accepted);
  EXPECT_EQ(out.ingress.offered, stream.size());
  EXPECT_EQ(out.ingress.accepted + out.ingress.dropped_overflow +
                out.ingress.shed_probes,
            out.ingress.offered);
  // The per-kind dispatch counts partition the processed total.
  EXPECT_EQ(out.stats.node_reports + out.stats.link_reports +
                out.stats.probe_results + out.stats.sick_probes +
                out.stats.operator_commands + out.stats.cluster_events,
            out.ingress.processed);
  EXPECT_EQ(out.stats.submitted, stream.size());
}

TEST(ControllerService, StatsBitIdenticalAcrossThreadCounts) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream = small_stream(fabric);

  const PassOutput inline_pass = run_pass(stream, 0);
  for (int threads : {1, 4, 8}) {
    const PassOutput threaded = run_pass(stream, threads);
    EXPECT_EQ(threaded.fingerprint, inline_pass.fingerprint)
        << "divergence at " << threads << " producer threads";
  }
}

TEST(ControllerService, BackpressureEngagesUnderCompressedBursts) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream = small_stream(fabric);
  const PassOutput out = run_pass(stream, 0);
  // The burst-sized watermarks must actually exercise: backpressure
  // engaged, healthy probes were shed, and failure reports never were
  // (sheds + drops stayed below the probe population).
  EXPECT_GT(out.ingress.backpressure_engaged, 0u)
      << "peak depth " << out.ingress.peak_depth;
  EXPECT_GT(out.ingress.shed_probes, 0u);
  EXPECT_EQ(out.ingress.dropped_overflow, 0u);
  EXPECT_EQ(out.stats.node_reports + out.stats.link_reports,
            [&] {
              const auto b = fi::breakdown(stream);
              return static_cast<std::uint64_t>(b.failure_reports);
            }());
}

TEST(ControllerService, BatchSizeInstrumentRecordsEveryBatchInBoundedMemory) {
  // service.batch_size is recorded as each batch dispatches, so after a
  // long stream it has seen every batch while holding no more than one
  // LogHistogram bucket array: nothing per batch is kept for the life
  // of the service.
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 6;
  pcfg.link_failures = 9;
  const fi::FaultPlan plan = fi::FaultPlan::generate(fabric, pcfg, /*seed=*/7);
  fi::ReportStreamConfig scfg;
  scfg.repeats = 60;
  scfg.background_probes = 512;
  scfg.time_scale = 0.02;
  const auto stream = fi::build_report_stream(plan, scfg);

  control::Controller controller(fabric, control::ControllerConfig{});
  controller.set_audit_limit(1000);
  ControllerService service(fabric, controller, burst_sized_service());
  obs::MetricsRegistry metrics;
  service.attach_metrics(&metrics);
  service.run_inline(stream);

  const obs::LatencyHistogram* sizes =
      metrics.find_latency("service.batch_size");
  ASSERT_NE(sizes, nullptr);
  const IngressStats& in = service.ingress_stats();
  EXPECT_GT(in.batches, 10'000u);
  EXPECT_EQ(sizes->count(), in.batches);
  EXPECT_DOUBLE_EQ(sizes->sum(), static_cast<double>(in.processed));
  EXPECT_EQ(sizes->max(), static_cast<double>(in.max_batch_seen));
  EXPECT_LE(sizes->memory_bytes(),
            obs::slo::LogHistogram::kBucketCount * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// ReplicatedControllerService: live controller-cluster failover.

/// Cluster timings in *scaled* virtual time, matched to the streams'
/// time_scale = 0.02: heartbeat 0.2 ms, 3 misses, 0.1 ms election —
/// election_bound() = 0.9 ms, i.e. 45 ms of plan time (the
/// FaultPlanConfig::cluster_election_bound default).
ReplicatedServiceConfig replicated_config() {
  ReplicatedServiceConfig c;
  c.service = burst_sized_service();
  c.cluster.members = 3;
  c.cluster.heartbeat_interval = 0.0002;
  c.cluster.miss_threshold = 3;
  c.cluster.election_duration = 0.0001;
  c.audit_limit = 1000;
  return c;
}

std::vector<ServiceMessage> scenario_stream(const sharebackup::Fabric& fabric,
                                            fi::ClusterScenario scenario) {
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 6;
  pcfg.link_failures = 9;
  pcfg.bursts = 2;
  pcfg.burst_size = 3;
  pcfg.cluster_scenario = scenario;
  const fi::FaultPlan plan = fi::FaultPlan::generate(fabric, pcfg, /*seed=*/7);
  fi::ReportStreamConfig scfg;
  scfg.repeats = 6;
  scfg.resends = 2;
  scfg.background_probes = 512;
  scfg.time_scale = 0.02;
  return fi::build_report_stream(plan, scfg);
}

struct ReplicatedPassOutput {
  std::string fingerprint;
  ServiceStats stats;
  IngressStats ingress;
  std::size_t backlog = 0;
  std::size_t term = 0;
  Seconds bound = 0.0;
};

ReplicatedPassOutput run_replicated_pass(
    const std::vector<ServiceMessage>& stream, int threads) {
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  ReplicatedControllerService service(fabric, replicated_config());
  if (threads <= 0) {
    service.run_inline(stream);
  } else {
    std::vector<int> ids;
    for (int p = 0; p < threads; ++p) ids.push_back(service.add_producer());
    service.start();
    std::vector<std::thread> workers;
    for (int p = 0; p < threads; ++p) {
      workers.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p); i < stream.size();
             i += static_cast<std::size_t>(threads)) {
          service.submit(ids[static_cast<std::size_t>(p)], stream[i]);
        }
        service.finish_producer(ids[static_cast<std::size_t>(p)]);
      });
    }
    for (auto& w : workers) w.join();
    service.drain_and_stop();
  }
  return {service.fingerprint(),     service.stats(),
          service.ingress_stats(),   service.headless_backlog(),
          service.cluster().term(),  service.election_bound()};
}

/// Zero lost accepted reports, headless bound, and the kind partition —
/// the tentpole's end-of-run invariants — for one scenario stream.
void expect_failover_invariants(const std::vector<ServiceMessage>& stream,
                                const ReplicatedPassOutput& out) {
  EXPECT_EQ(out.ingress.processed, out.ingress.accepted);
  // Every dispatched message is counted exactly once by kind; the
  // headless backlog is empty because every scenario revives the
  // cluster before the stream ends.
  EXPECT_EQ(out.backlog, 0u);
  EXPECT_EQ(out.stats.node_reports + out.stats.link_reports +
                out.stats.probe_results + out.stats.sick_probes +
                out.stats.operator_commands + out.stats.cluster_events,
            out.ingress.processed);
  // Failure reports are never shed or dropped, so none may be lost to a
  // failover either: the dispatch counts equal the stream's population.
  const auto b = fi::breakdown(stream);
  EXPECT_EQ(out.stats.node_reports, b.node_reports);
  EXPECT_EQ(out.stats.link_reports, b.link_reports);
  EXPECT_EQ(out.stats.operator_commands, b.operator_commands);
  EXPECT_EQ(out.stats.cluster_events, b.cluster_events);
  // Bounded headless windows respect the configured election bound.
  EXPECT_LE(out.stats.max_headless_window, out.bound + 1e-12)
      << "headless window exceeded the election bound";
}

TEST(ReplicatedService, PrimaryCrashFailsOverReplaysAndStaysBounded) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream =
      scenario_stream(fabric, fi::ClusterScenario::kPrimaryCrash);
  const ReplicatedPassOutput out = run_replicated_pass(stream, 0);
  expect_failover_invariants(stream, out);
  // One crash per repeat: every repeat fails over and replays what
  // buffered during its headless window.
  EXPECT_GE(out.stats.failovers, 6u);
  EXPECT_GT(out.stats.replayed_reports, 0u);
  EXPECT_GT(out.stats.headless_seconds, 0.0);
  EXPECT_EQ(out.stats.total_death_windows, 0u);
  EXPECT_GE(out.term, 6u);
}

TEST(ReplicatedService, CrashDuringElectionStillSeatsAPrimary) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream =
      scenario_stream(fabric, fi::ClusterScenario::kCrashDuringElection);
  const ReplicatedPassOutput out = run_replicated_pass(stream, 0);
  expect_failover_invariants(stream, out);
  // Two kills per repeat (primary, then the imminent winner): the
  // surviving member is elected anyway and the stream drains.
  EXPECT_GE(out.stats.failovers, 6u);
  EXPECT_GT(out.stats.replayed_reports, 0u);
}

TEST(ReplicatedService, TotalClusterDeathRevivalLosesNothing) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const auto stream =
      scenario_stream(fabric, fi::ClusterScenario::kTotalDeath);
  const ReplicatedPassOutput out = run_replicated_pass(stream, 0);
  expect_failover_invariants(stream, out);
  // Every repeat walks the whole cluster into the ground; the windows
  // are excused from the bound but everything buffered replays after
  // the revival.
  EXPECT_GE(out.stats.total_death_windows, 6u);
  EXPECT_GT(out.stats.replayed_reports, 0u);
  EXPECT_GT(out.stats.headless_seconds, 0.0);
}

TEST(ReplicatedService, FingerprintBitIdenticalAcrossThreadCounts) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  for (fi::ClusterScenario scenario :
       {fi::ClusterScenario::kPrimaryCrash,
        fi::ClusterScenario::kCrashDuringElection,
        fi::ClusterScenario::kTotalDeath}) {
    const auto stream = scenario_stream(fabric, scenario);
    const ReplicatedPassOutput inline_pass = run_replicated_pass(stream, 0);
    for (int threads : {1, 4, 8}) {
      const ReplicatedPassOutput threaded =
          run_replicated_pass(stream, threads);
      EXPECT_EQ(threaded.fingerprint, inline_pass.fingerprint)
          << "divergence at " << threads << " producer threads, scenario "
          << static_cast<int>(scenario);
    }
  }
}

TEST(ReplicatedService, MidBatchCrashTermGuardRejectsThenReplays) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const net::NodeId victim_a =
      fabric.node_at({topo::Layer::kEdge, 0, 0});
  const net::NodeId victim_b =
      fabric.node_at({topo::Layer::kEdge, 1, 0});

  // One warmup report at t=0 occupies the server (batch overhead +
  // message cost = 70 us), so the crash and the two reports behind it
  // all land in the *same* second batch — the mid-batch case.
  std::vector<ServiceMessage> stream;
  ServiceMessage warm;
  warm.kind = MessageKind::kNodeFailureReport;
  warm.node = victim_a;
  warm.inject = true;
  warm.at = 0.0;
  stream.push_back(warm);
  ServiceMessage crash;
  crash.kind = MessageKind::kControllerCrash;
  crash.member = kClusterPrimary;
  crash.at = 10e-6;
  stream.push_back(crash);
  ServiceMessage report;
  report.kind = MessageKind::kNodeFailureReport;
  report.node = victim_b;
  report.inject = true;
  report.at = 20e-6;
  stream.push_back(report);
  ServiceMessage resend = report;
  resend.inject = false;
  resend.at = 30e-6;
  stream.push_back(resend);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].seq = i;

  sharebackup::Fabric pass_fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  ReplicatedControllerService service(pass_fabric, replicated_config());
  service.run_inline(stream);

  const ServiceStats& stats = service.stats();
  // The lease captured at batch start died mid-batch: both reports
  // behind the crash were refused by the term guard, buffered, and
  // replayed once the election seated member 1.
  EXPECT_EQ(stats.cluster_events, 1u);
  EXPECT_EQ(stats.stale_rejections, 2u);
  EXPECT_EQ(stats.replayed_reports, 2u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.node_reports, 3u);
  EXPECT_EQ(service.acting_member(), 1u);
  EXPECT_EQ(service.cluster().term(), 1u);
  EXPECT_EQ(service.headless_backlog(), 0u);
  // The headless window (crash dispatch -> election) obeys the bound.
  EXPECT_GT(stats.headless_seconds, 0.0);
  EXPECT_LE(stats.max_headless_window, service.election_bound() + 1e-12);
  // Both grounded failures were actually recovered by the cluster.
  EXPECT_FALSE(pass_fabric.network().node_failed(victim_a));
  EXPECT_FALSE(pass_fabric.network().node_failed(victim_b));
}

TEST(ReplicatedService, PrimaryBlipRepairReplaysWithoutFailover) {
  Log::set_level(LogLevel::kError);
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  const net::NodeId victim = fabric.node_at({topo::Layer::kEdge, 2, 1});

  // Crash the primary and repair it within the same batch, with one
  // report in between: the stale primary blips back before any misses
  // accrue, so the buffer replays into the *same* controller and no
  // election happens.
  std::vector<ServiceMessage> stream;
  ServiceMessage warm;
  warm.kind = MessageKind::kProbeResult;
  warm.healthy = true;
  warm.link = net::LinkId{0};
  warm.at = 0.0;
  stream.push_back(warm);
  ServiceMessage crash;
  crash.kind = MessageKind::kControllerCrash;
  crash.member = kClusterPrimary;
  crash.at = 10e-6;
  stream.push_back(crash);
  ServiceMessage report;
  report.kind = MessageKind::kNodeFailureReport;
  report.node = victim;
  report.inject = true;
  report.at = 20e-6;
  stream.push_back(report);
  ServiceMessage repair;
  repair.kind = MessageKind::kControllerRepair;
  repair.member = kClusterPrimary;
  repair.at = 30e-6;
  stream.push_back(repair);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].seq = i;

  sharebackup::Fabric pass_fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 6}, .backups_per_group = 2});
  ReplicatedControllerService service(pass_fabric, replicated_config());
  service.run_inline(stream);

  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.cluster_events, 2u);
  EXPECT_EQ(stats.stale_rejections, 1u);
  EXPECT_EQ(stats.replayed_reports, 1u);
  EXPECT_EQ(stats.failovers, 0u);  // same member, leadership intact
  EXPECT_EQ(service.cluster().term(), 0u);
  EXPECT_EQ(service.acting_member(), 2u);
  EXPECT_EQ(service.headless_backlog(), 0u);
  // Crash and repair dispatched at the same batch start: the headless
  // window exists (the report in between was buffered) but has zero
  // width in virtual time.
  EXPECT_EQ(stats.headless_seconds, 0.0);
  EXPECT_FALSE(pass_fabric.network().node_failed(victim));
}

// ---------------------------------------------------------------------------
// Pinned outputs of the observed service path: the trace, every
// replica's audit trail and the service fingerprint of one replicated
// primary-crash run, digested. The constants were recorded before the
// dispatch path stopped allocating (typed audit records formatted on
// read, recorder slots written in place); they must not move.

/// FNV-1a over a string: a digest that is stable across builds.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every trace event except its wall-clock reading (only whether one
/// was taken), as trace_test's deterministic_fingerprint renders it.
std::uint64_t trace_digest(const obs::FlightRecorder& rec) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const obs::TraceEvent& e : rec.events()) {
    os << static_cast<char>(e.phase) << '|' << e.track << '|' << e.category
       << '|' << e.name << '|' << e.ts << '|' << e.dur << '|' << e.value
       << '|' << (e.wall_us >= 0.0) << '|' << e.detail << '\n';
  }
  return fnv1a(os.str());
}

std::uint64_t audit_digest(const ReplicatedControllerService& service) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (std::size_t i = 0; i < service.replica_count(); ++i) {
    const control::Controller& c = service.replica(i);
    os << "replica " << i << " dropped " << c.audit_dropped() << '\n';
    for (const control::AuditEntry& e : c.audit_log()) {
      os << e.at << '|' << e.event << '|' << e.detail << '\n';
    }
  }
  return fnv1a(os.str());
}

/// A reduced service_soak stream (--replicas=3 --scenario=primary-crash
/// at k=8, 2 backups per group).
std::vector<ServiceMessage> observed_soak_stream() {
  const sharebackup::Fabric shape(
      sharebackup::FabricParams{.fat_tree = {.k = 8}, .backups_per_group = 2});
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 60;
  pcfg.link_failures = 90;
  pcfg.bursts = 4;
  pcfg.burst_size = 3;
  pcfg.cluster_scenario = fi::ClusterScenario::kPrimaryCrash;
  pcfg.cluster_members = 3;
  const fi::FaultPlan plan = fi::FaultPlan::generate(shape, pcfg, /*seed=*/11);
  fi::ReportStreamConfig rcfg;
  rcfg.repeats = 12;
  rcfg.resends = 3;
  rcfg.time_scale = 0.02;
  return fi::build_report_stream(plan, rcfg);
}

struct ObservedDigests {
  std::uint64_t trace = 0;
  std::uint64_t audit = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t audit_dropped = 0;
};

/// One service_soak-style pass: metrics and `recorder` attached to the
/// service and to every replica.
ObservedDigests run_observed_pass(const std::vector<ServiceMessage>& stream,
                                  std::size_t audit_limit,
                                  obs::FlightRecorder& recorder) {
  sharebackup::Fabric fabric(
      sharebackup::FabricParams{.fat_tree = {.k = 8}, .backups_per_group = 2});
  ReplicatedServiceConfig cfg;
  cfg.service.ingress.high_water = 160;
  cfg.service.ingress.low_water = 64;
  cfg.service.slo.enabled = true;
  cfg.cluster.members = 3;
  cfg.cluster.heartbeat_interval = 0.01 * 0.02;
  cfg.cluster.miss_threshold = 3;
  cfg.cluster.election_duration = 0.005 * 0.02;
  cfg.audit_limit = audit_limit;
  obs::MetricsRegistry metrics(/*enabled=*/true);
  ReplicatedControllerService service(fabric, cfg);
  for (std::size_t i = 0; i < service.replica_count(); ++i) {
    service.replica(i).attach_metrics(&metrics);
    service.replica(i).attach_recorder(&recorder);
  }
  service.attach_metrics(&metrics);
  service.attach_recorder(&recorder);
  service.run_inline(stream);
  return {trace_digest(recorder), audit_digest(service),
          fnv1a(service.fingerprint()), service.stats().audit_dropped};
}

TEST(ObservedService, OutputsMatchPinnedDigest) {
  Log::set_level(LogLevel::kError);
  const auto stream = observed_soak_stream();
  obs::FlightRecorder recorder(/*enabled=*/true, std::size_t{1} << 20);
  const ObservedDigests d = run_observed_pass(stream, 10000, recorder);
  ASSERT_EQ(recorder.dropped(), 0u) << "the recorder must not wrap here";
  EXPECT_EQ(d.audit_dropped, 0u);
  EXPECT_EQ(d.trace, 0x8a665bd4afb0515eULL);
  EXPECT_EQ(d.audit, 0x224737b135e8f02eULL);
  EXPECT_EQ(d.fingerprint, 0xbe3dcc3b1bc2c5dfULL);
}

TEST(ObservedService, AuditTrimMatchesPinnedDigest) {
  Log::set_level(LogLevel::kError);
  const auto stream = observed_soak_stream();
  obs::FlightRecorder recorder(/*enabled=*/true, std::size_t{1} << 20);
  const ObservedDigests d = run_observed_pass(stream, 7, recorder);
  EXPECT_EQ(d.audit_dropped, 6853u);
  EXPECT_EQ(d.audit, 0xb475efa4b39a46d2ULL);
  EXPECT_EQ(d.fingerprint, 0xdef7d9b902f833ebULL);
}

TEST(ObservedService, ReusedRecorderSlotsResetEveryField) {
  Log::set_level(LogLevel::kError);
  const auto stream = observed_soak_stream();
  // The stream's first 200 messages record 290 events: less than one
  // lap of a 300-slot ring, so each event lands on a slot whose old
  // contents only a complete overwrite hides.
  const std::vector<ServiceMessage> prefix(stream.begin(),
                                           stream.begin() + 200);
  obs::FlightRecorder fresh(/*enabled=*/true, 300);
  const ObservedDigests first = run_observed_pass(prefix, 10000, fresh);
  ASSERT_EQ(fresh.dropped(), 0u);
  ASSERT_GT(fresh.size(), 250u);

  obs::FlightRecorder reused(/*enabled=*/true, 300);
  (void)run_observed_pass(stream, 10000, reused);  // wraps many times
  // Then every slot gets a merged event carrying a track, and either a
  // duration, a wall-clock reading and a detail, or a value, that the
  // next pass must not inherit.
  obs::FlightRecorder marks(/*enabled=*/true, 300);
  for (int i = 0; i < 150; ++i) {
    marks.complete("mark", "span", 1.0, 3.0, /*wall_us=*/5.0, "stale");
    marks.counter("mark", "value", 2.0, 42.0);
  }
  reused.merge(marks, /*track=*/9);
  reused.clear();
  EXPECT_EQ(reused.size(), 0u);
  EXPECT_EQ(reused.recorded(), 0u);
  const ObservedDigests second = run_observed_pass(prefix, 10000, reused);
  EXPECT_EQ(reused.recorded(), fresh.recorded());
  EXPECT_EQ(second.trace, first.trace);
  EXPECT_EQ(second.trace, 0xb6522c937b92bce6ULL);
}

}  // namespace
}  // namespace sbk::service
