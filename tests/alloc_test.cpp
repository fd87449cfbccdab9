// Allocation bound of the controller service's dispatch path: the
// service-torrent configuration of perfbench (service_soak's
// --replicas=3 --scenario=primary-crash --slo stream at k=8) fed through
// run_inline with a metrics registry and a flight recorder attached to
// the service and every replica. Once the recorder's slots are warm, a
// processed message may cost at most kMaxAllocationsPerMessage heap
// allocations on average: the watchdog window, the audit trail, the
// recovery outcome, the recorder and the service queues all reuse their
// storage.
//
// This is its own executable because it replaces the global operator
// new; it is not built under sanitizers, whose runtimes own it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "sweep/sweep.hpp"
#include "util/log.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sbk::service {
namespace {

namespace fi = sbk::faultinject;

constexpr int kK = 8;
constexpr int kBackups = 2;
constexpr std::size_t kReplicas = 3;
constexpr double kTimeScale = 0.02;
constexpr double kMaxAllocationsPerMessage = 0.25;

std::vector<ServiceMessage> torrent_stream(std::uint64_t seed) {
  const sharebackup::Fabric shape(sharebackup::FabricParams{
      .fat_tree = {.k = kK}, .backups_per_group = kBackups});
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = 60;
  pcfg.link_failures = 90;
  pcfg.bursts = 4;
  pcfg.burst_size = 3;
  pcfg.cluster_scenario = fi::ClusterScenario::kPrimaryCrash;
  pcfg.cluster_members = kReplicas;
  const fi::FaultPlan plan = fi::FaultPlan::generate(shape, pcfg, seed);
  fi::ReportStreamConfig rcfg;
  rcfg.repeats = 220;
  rcfg.resends = 3;
  rcfg.time_scale = kTimeScale;
  return fi::build_report_stream(plan, rcfg);
}

ReplicatedServiceConfig torrent_config() {
  ReplicatedServiceConfig c;
  c.service.ingress.high_water = 160;
  c.service.ingress.low_water = 64;
  c.service.slo.enabled = true;
  c.cluster.members = kReplicas;
  c.cluster.heartbeat_interval = 0.01 * kTimeScale;
  c.cluster.miss_threshold = 3;
  c.cluster.election_duration = 0.005 * kTimeScale;
  c.audit_limit = 10000;
  return c;
}

struct CountedPass {
  std::uint64_t allocations = 0;  ///< inside run_inline
  std::uint64_t processed = 0;
};

/// One pass on a fresh fabric and service, observers attached the way
/// perfbench and service_soak attach them.
CountedPass run_pass(const std::vector<ServiceMessage>& stream,
                     obs::FlightRecorder& recorder) {
  sharebackup::Fabric fabric(sharebackup::FabricParams{
      .fat_tree = {.k = kK}, .backups_per_group = kBackups});
  obs::MetricsRegistry metrics(/*enabled=*/true);
  ReplicatedControllerService service(fabric, torrent_config());
  recorder.clear();
  for (std::size_t i = 0; i < service.replica_count(); ++i) {
    service.replica(i).attach_metrics(&metrics);
    service.replica(i).attach_recorder(&recorder);
  }
  service.attach_metrics(&metrics);
  service.attach_recorder(&recorder);
  const std::uint64_t before = g_allocations.load();
  service.run_inline(stream);
  return {g_allocations.load() - before, service.ingress_stats().processed};
}

TEST(AllocationBound, ServiceDispatchIsAllocationFreeInSteadyState) {
  Log::set_level(LogLevel::kError);
  obs::FlightRecorder recorder(/*enabled=*/true);
  for (std::uint64_t p = 0; p < 3; ++p) {
    const std::vector<ServiceMessage> stream =
        torrent_stream(sweep::derive_seed(7, p));
    (void)run_pass(stream, recorder);  // warms the recorder's slots
    const CountedPass counted = run_pass(stream, recorder);
    ASSERT_GT(counted.processed, 100'000u);
    const double per_message = static_cast<double>(counted.allocations) /
                               static_cast<double>(counted.processed);
    std::printf("plan seed derive_seed(7, %llu): %llu allocations for %llu "
                "messages, %.4f per message\n",
                static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(counted.allocations),
                static_cast<unsigned long long>(counted.processed),
                per_message);
    EXPECT_LE(per_message, kMaxAllocationsPerMessage)
        << counted.allocations << " allocations for " << counted.processed
        << " messages (plan seed derive_seed(7, " << p << "))";
  }
}

}  // namespace
}  // namespace sbk::service
