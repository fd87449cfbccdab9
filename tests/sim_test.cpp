// Tests for the flow-level simulator stack: event queue, max-min fair
// allocation (with its optimality properties), the fluid simulator on
// analytically solvable scenarios, and the static failure-impact
// analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "net/algo.hpp"
#include "routing/backup_rules.hpp"
#include "routing/ecmp.hpp"
#include "routing/f10.hpp"
#include "routing/global_reroute.hpp"
#include "routing/spider.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure_analysis.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/max_min.hpp"
#include "sweep/sweep.hpp"
#include "topo/fat_tree.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/coflow_gen.hpp"

namespace sbk::sim {
namespace {

using net::DirectedLink;
using net::Network;
using net::NodeId;
using net::NodeKind;

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(2.0, [&] { fired.push_back(2); });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(1.0, [&] { fired.push_back(11); });  // same time, later insert
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(5.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_THROW(q.schedule_at(1.5, [] {}), ContractViolation);
}

TEST(EventQueue, ManyEqualTimestampsFireInInsertionOrder) {
  // The queue breaks time ties on insertion order; a large batch at one
  // timestamp must drain strictly FIFO (a plain binary heap without a
  // tie-break would interleave them arbitrarily).
  EventQueue q;
  std::vector<int> fired;
  constexpr int kBatch = 500;
  for (int i = 0; i < kBatch; ++i) {
    q.schedule_at(1.0, [&fired, i] { fired.push_back(i); });
    q.schedule_at(2.0, [&fired, i] { fired.push_back(kBatch + i); });
  }
  q.run();
  ASSERT_EQ(fired.size(), 2u * kBatch);
  for (int i = 0; i < 2 * kBatch; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, HandlerSchedulingAtCurrentTimestampRunsAfterPeers) {
  // A handler may push work at the *current* timestamp (e.g. a retried
  // recovery re-queueing diagnosis the instant it succeeds). The new
  // event must run in this same pass — after every event already queued
  // at that time (FIFO seq tie-break), but before anything later.
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(1.0, [&] {
    fired.push_back(0);
    q.schedule_at(q.now(), [&] { fired.push_back(3); });
    q.schedule_at(2.0, [&] { fired.push_back(4); });
  });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(1.0, [&] { fired.push_back(2); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, ZeroDelayChainsTerminateWithTimeUnchanged) {
  // schedule_in(0) from inside a handler keeps the clock still while the
  // chain drains — time never moves backward or forward spuriously.
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
    if (++depth < 50) q.schedule_in(0.0, chain);
  };
  q.schedule_at(5.0, chain);
  q.run();
  EXPECT_EQ(depth, 50);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(1.0, recurse);
  };
  q.schedule_at(0.0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, PropertyFiringOrderIsStableSortByTime) {
  // Seeded random schedules against a reference model. Timestamps mix
  // repeats (the current time, a coarse grid, the newest event's time,
  // which is the queue's open run), distinct random times, and 0.0 /
  // -0.0 ties while the clock is at zero. Handlers schedule more events
  // and sometimes throw; the main loop interleaves step(), run_until()
  // cut-offs and outside schedules. The model checks every firing
  // against the earliest pending (time, insertion index), and
  // pending()/empty()/now() after every step — now() bit for bit, so
  // the sign of a zero timestamp is kept too. At the end the whole
  // firing order must equal a stable sort of all events by time.
  auto same_bits = [](Seconds a, Seconds b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  constexpr std::size_t kMaxEvents = 300;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::vector<Seconds> times;        // by insertion index
    std::vector<std::size_t> pending;  // model: ids not yet fired
    std::vector<std::size_t> fired;
    Seconds expected_now = 0.0;

    auto draw_time = [&](Seconds now) -> Seconds {
      const double r = rng.uniform_real(0.0, 1.0);
      if (now == 0.0 && r < 0.3) return rng.bernoulli(0.5) ? -0.0 : 0.0;
      if (r < 0.45) return now;
      if (r < 0.6 && !times.empty() && times.back() >= now) {
        return times.back();
      }
      if (r < 0.85) {
        return std::ceil(now * 4.0) / 4.0 +
               0.25 * static_cast<double>(rng.uniform_index(4));
      }
      return now + rng.uniform_real(0.0, 1.0);
    };
    std::function<void(Seconds)> schedule;
    auto fire = [&](std::size_t id) {
      auto earliest = std::min_element(
          pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
            if (times[a] != times[b]) return times[a] < times[b];
            return a < b;
          });
      ASSERT_NE(earliest, pending.end());
      EXPECT_EQ(id, *earliest);
      const auto it = std::find(pending.begin(), pending.end(), id);
      ASSERT_NE(it, pending.end()) << "event " << id << " fired twice";
      pending.erase(it);
      fired.push_back(id);
      expected_now = times[id];
      EXPECT_TRUE(same_bits(q.now(), times[id]));
      EXPECT_EQ(q.pending(), pending.size());
      EXPECT_EQ(q.empty(), pending.empty());
      const std::size_t children = rng.uniform_index(3);
      for (std::size_t c = 0; c < children && times.size() < kMaxEvents;
           ++c) {
        schedule(draw_time(q.now()));
      }
      if (rng.bernoulli(0.05)) throw std::runtime_error("handler failed");
    };
    schedule = [&](Seconds at) {
      const std::size_t id = times.size();
      times.push_back(at);
      pending.push_back(id);
      q.schedule_at(at, [&fire, id] { fire(id); });
    };

    const std::size_t initial = 1 + rng.uniform_index(40);
    for (std::size_t i = 0; i < initial; ++i) schedule(draw_time(0.0));
    while (!pending.empty()) {
      const double r = rng.uniform_real(0.0, 1.0);
      try {
        if (r < 0.15) {
          // Cut off at the current time, exactly at a pending event's
          // time, or in between.
          const double c = rng.uniform_real(0.0, 1.0);
          const Seconds until =
              c < 0.3   ? q.now()
              : c < 0.6 ? times[pending[rng.uniform_index(pending.size())]]
                        : q.now() + rng.uniform_real(0.0, 1.5);
          q.run_until(until);
          expected_now = std::max(expected_now, until);
          for (std::size_t id : pending) EXPECT_GT(times[id], until);
        } else if (r < 0.3 && times.size() < kMaxEvents) {
          schedule(draw_time(q.now()));
        } else {
          EXPECT_TRUE(q.step());
        }
      } catch (const std::runtime_error&) {
        // The throwing event is consumed; the clock stays at its time.
      }
      EXPECT_TRUE(same_bits(q.now(), expected_now));
      EXPECT_EQ(q.pending(), pending.size());
      EXPECT_EQ(q.empty(), pending.empty());
    }
    EXPECT_FALSE(q.step());

    std::vector<std::size_t> order(times.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return times[a] < times[b];
                     });
    EXPECT_EQ(fired, order);
  }
}

// --- max-min ----------------------------------------------------------------

Network two_link_line(double c1, double c2) {
  Network net;
  NodeId a = net.add_node(NodeKind::kEdgeSwitch, "a");
  NodeId b = net.add_node(NodeKind::kEdgeSwitch, "b");
  NodeId c = net.add_node(NodeKind::kEdgeSwitch, "c");
  net.add_link(a, b, c1);
  net.add_link(b, c, c2);
  return net;
}

TEST(MaxMin, SingleBottleneckSharedEqually) {
  Network net = two_link_line(9.0, 100.0);
  DirectedLink l0{net::LinkId(0), true};
  std::vector<Demand> demands(3, Demand{{l0}});
  auto rates = max_min_rates(net, demands);
  for (double r : rates) EXPECT_NEAR(r, 3.0, 1e-9);
}

TEST(MaxMin, ClassicTwoBottleneckExample) {
  // Flows: A on link0 only, B on link1 only, C on both.
  // link0 cap 1, link1 cap 2 => C = 0.5 (link0), A = 0.5, B = 1.5.
  Network net = two_link_line(1.0, 2.0);
  DirectedLink l0{net::LinkId(0), true};
  DirectedLink l1{net::LinkId(1), true};
  std::vector<Demand> demands{{{l0}}, {{l1}}, {{l0, l1}}};
  auto rates = max_min_rates(net, demands);
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  EXPECT_NEAR(rates[1], 1.5, 1e-9);
  EXPECT_NEAR(rates[2], 0.5, 1e-9);
}

TEST(MaxMin, ZeroCapacityLinkFreezesItsFlowsAtZero) {
  // Regression: a demand crossing a failed/drained (capacity-0) link
  // used to trip SBK_EXPECTS(residual > 0) and abort the allocation.
  // It must be frozen at rate 0 while other flows share normally — and
  // reclaim the bandwidth the dead flow cannot use.
  Network net = two_link_line(1.0, 2.0);
  net.set_link_capacity(net::LinkId(0), 0.0);  // drain the first hop
  DirectedLink dead{net::LinkId(0), true};
  DirectedLink live{net::LinkId(1), true};
  std::vector<Demand> demands{{{dead, live}}, {{live}}};
  auto rates = max_min_rates(net, demands);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_NEAR(rates[1], 2.0, 1e-9);
}

TEST(MaxMin, OppositeDirectionsDoNotContend) {
  Network net = two_link_line(1.0, 1.0);
  DirectedLink fwd{net::LinkId(0), true};
  DirectedLink rev{net::LinkId(0), false};
  std::vector<Demand> demands{{{fwd}}, {{rev}}};
  auto rates = max_min_rates(net, demands);
  EXPECT_NEAR(rates[0], 1.0, 1e-9);
  EXPECT_NEAR(rates[1], 1.0, 1e-9);
}

TEST(MaxMin, PropertyNoOversubscriptionAndBottleneckJustification) {
  // Random demands over a k=4 fat-tree; verify the two defining max-min
  // properties.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  routing::EcmpRouter router(ft);
  Network& net = ft.network();

  std::vector<Demand> demands;
  std::vector<std::vector<DirectedLink>> paths;
  for (std::uint64_t f = 0; f < 60; ++f) {
    NodeId src = ft.host(static_cast<int>(f * 7 % ft.host_count()));
    NodeId dst = ft.host(static_cast<int>((f * 13 + 5) % ft.host_count()));
    if (src == dst) continue;
    net::Path p = router.route(net, src, dst, f, nullptr);
    ASSERT_FALSE(p.empty());
    demands.push_back(Demand{p.directed_links(net)});
  }
  auto rates = max_min_rates(net, demands);

  // Property 1: no directed link above capacity.
  std::map<std::pair<std::uint32_t, bool>, double> usage;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (DirectedLink dl : demands[i].links) {
      usage[{dl.link.value(), dl.forward}] += rates[i];
    }
  }
  for (const auto& [key, total] : usage) {
    EXPECT_LE(total, net.link(net::LinkId(key.first)).capacity + 1e-6);
  }

  // Property 2 (max-min): every flow has a bottleneck link that is
  // saturated and on which it has a maximal rate.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    bool justified = false;
    for (DirectedLink dl : demands[i].links) {
      double cap = net.link(dl.link).capacity;
      double total = usage[{dl.link.value(), dl.forward}];
      if (total < cap - 1e-6) continue;  // not saturated
      bool maximal = true;
      for (std::size_t j = 0; j < demands.size(); ++j) {
        if (j == i) continue;
        bool shares = false;
        for (DirectedLink o : demands[j].links) {
          if (o == dl) shares = true;
        }
        if (shares && rates[j] > rates[i] + 1e-6) maximal = false;
      }
      if (maximal) {
        justified = true;
        break;
      }
    }
    EXPECT_TRUE(justified) << "flow " << i << " has no bottleneck";
  }
}

// --- fluid simulator ---------------------------------------------------------

struct FixedRouter final : routing::Router {
  net::Path route(const Network& net, NodeId src, NodeId dst,
                  std::uint64_t, const routing::LinkLoads*) override {
    return net::shortest_path(net, src, dst);
  }
  const char* name() const noexcept override { return "fixed"; }
};

TEST(FluidSim, SingleFlowFinishesAtSizeOverRate) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1e6;  // 1 unit = 1 MB/s
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(8), 5e6, 0.0, 0});
  auto results = sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(results[0].finish, 5.0, 1e-6);  // 5 MB at 1 MB/s
}

TEST(FluidSim, TwoFlowsShareThenSpeedUp) {
  // Two equal flows share a host NIC (capacity 1 unit): the first half
  // runs at 0.5 each; when one finishes the other speeds to 1.0.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;  // sizes are in unit-seconds
  FluidSimulator sim(ft.network(), router, cfg);
  // Same src host => both flows traverse the single host-edge link.
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(8), 10.0, 0.0});
  sim.add_flow(FlowSpec{2, ft.host(0), ft.host(12), 5.0, 0.0});
  auto results = sim.run();
  // Flow 2: shares at 0.5 until t=10 (transfers 5) -> done at exactly 10.
  // Flow 1: 5 transferred by t=10, then full rate -> done at 15.
  EXPECT_NEAR(results[1].finish, 10.0, 1e-6);
  EXPECT_NEAR(results[0].finish, 15.0, 1e-6);
}

TEST(FluidSim, LateArrivalPreemptsBandwidthFairly) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(8), 10.0, 0.0});
  sim.add_flow(FlowSpec{2, ft.host(0), ft.host(12), 4.0, 2.0});
  auto results = sim.run();
  // Flow 1 alone until t=2 (8 left), shares 0.5 until flow 2 done at
  // t = 2 + 4/0.5 = 10 (flow 1 has 4 left), finishes at 14.
  EXPECT_NEAR(results[1].finish, 10.0, 1e-6);
  EXPECT_NEAR(results[0].finish, 14.0, 1e-6);
}

TEST(FluidSim, ZeroByteAndLocalFlowsCompleteInstantly) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  FluidSimulator sim(ft.network(), router, SimConfig{});
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(0), 100.0, 3.0});  // local
  sim.add_flow(FlowSpec{2, ft.host(0), ft.host(1), 0.0, 4.0});    // empty
  auto results = sim.run();
  EXPECT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(results[0].finish, 3.0, 1e-9);
  EXPECT_EQ(results[1].outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(results[1].finish, 4.0, 1e-9);
}

TEST(FluidSim, FailureMidFlowTriggersReroute) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  routing::EcmpRouter router(ft);
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{7, ft.host(0, 0, 0), ft.host(1, 0, 0), 10.0, 0.0});

  // Find which core flow 7 uses, then kill it mid-transfer.
  net::Path p = routing::EcmpRouter(ft).route(ft.network(), ft.host(0, 0, 0),
                                              ft.host(1, 0, 0), 7, nullptr);
  NodeId core = p.nodes[3];
  sim.at(4.0, [core](Network& net) { net.fail_node(core); });

  auto results = sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(results[0].reroutes, 1u);
  // Bandwidth unchanged after reroute (other cores idle): finish ~ 10.
  EXPECT_NEAR(results[0].finish, 10.0, 1e-6);
}

TEST(FluidSim, NoRerouteMeansStallUntilRepair) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  cfg.reroute_on_path_failure = false;
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{1, ft.host(0, 0, 0), ft.host(0, 0, 1), 10.0, 0.0});
  net::NodeId edge = ft.edge(0, 0);
  sim.at(2.0, [edge](Network& net) { net.fail_node(edge); });
  sim.at(6.0, [edge](Network& net) { net.restore_node(edge); });
  auto results = sim.run();
  // 2s of transfer, 4s stalled, 8 more seconds: finish at 10+4 = 14.
  // (Host-edge-host path: bottleneck is the edge links at capacity 1.)
  EXPECT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(results[0].finish, 14.0, 1e-6);
}

TEST(FluidSim, PermanentlyUnreachableFlowsReportStalled) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  FluidSimulator sim(ft.network(), router, cfg);
  ft.network().fail_node(ft.edge(0, 0));
  sim.add_flow(FlowSpec{1, ft.host(0, 0, 0), ft.host(1, 0, 0), 10.0, 0.0});
  auto results = sim.run();
  EXPECT_EQ(results[0].outcome, FlowOutcome::kStalledForever);
  EXPECT_GT(results[0].bytes_remaining, 0.0);
}

TEST(FluidSim, HorizonCutsOffUnfinishedFlows) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  cfg.horizon = 3.0;
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(8), 10.0, 0.0});
  auto results = sim.run();
  EXPECT_EQ(results[0].outcome, FlowOutcome::kUnfinished);
  EXPECT_NEAR(results[0].bytes_remaining, 7.0, 1e-6);
}

TEST(FluidSim, CompletionExactlyAtHorizonReportsCompleted) {
  // Regression: a flow whose remaining volume drains at precisely the
  // horizon used to be cut off as kUnfinished because the horizon break
  // ran before the completion pass.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  cfg.horizon = 10.0;  // flow of 10 units at rate 1 drains at t = 10
  FluidSimulator sim(ft.network(), router, cfg);
  sim.add_flow(FlowSpec{1, ft.host(0), ft.host(8), 10.0, 0.0});
  auto results = sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_NEAR(results[0].finish, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(results[0].bytes_remaining, 0.0);
}

TEST(FluidSim, ZeroCapacityLinkDoesNotAbortMaxMinRun) {
  // Regression: routing a flow across a zero-capacity (failed/drained)
  // link used to hard-assert inside max_min_rates and kill the whole
  // simulation; the flow must instead sit frozen at rate 0.
  Network net;
  NodeId a = net.add_node(NodeKind::kEdgeSwitch, "a");
  NodeId b = net.add_node(NodeKind::kEdgeSwitch, "b");
  net::LinkId l = net.add_link(a, b, 1.0);
  net.set_link_capacity(l, 0.0);  // drained link
  FixedRouter router;
  SimConfig cfg;
  cfg.allocation = AllocationModel::kMaxMinFair;
  cfg.unit_bytes_per_second = 1.0;
  cfg.horizon = 5.0;
  FluidSimulator sim(net, router, cfg);
  sim.add_flow(FlowSpec{1, a, b, 4.0, 0.0});
  auto results = sim.run();  // must not throw
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, FlowOutcome::kUnfinished);
  EXPECT_DOUBLE_EQ(results[0].bytes_remaining, 4.0);
}

TEST(Coflow, AggregationComputesCct) {
  std::vector<FlowResult> flows(3);
  flows[0].spec = FlowSpec{1, NodeId(0), NodeId(1), 1, 0.0, 42};
  flows[0].outcome = FlowOutcome::kCompleted;
  flows[0].finish = 5.0;
  flows[1].spec = FlowSpec{2, NodeId(0), NodeId(1), 1, 1.0, 42};
  flows[1].outcome = FlowOutcome::kCompleted;
  flows[1].finish = 9.0;
  flows[2].spec = FlowSpec{3, NodeId(0), NodeId(1), 1, 0.0, kNoCoflow};
  flows[2].outcome = FlowOutcome::kCompleted;
  flows[2].finish = 1.0;

  auto coflows = aggregate_coflows(flows);
  ASSERT_EQ(coflows.size(), 1u);
  EXPECT_EQ(coflows[0].id, 42u);
  EXPECT_EQ(coflows[0].flow_count, 2u);
  EXPECT_TRUE(coflows[0].all_completed);
  EXPECT_DOUBLE_EQ(coflows[0].cct(), 9.0);
}

TEST(Coflow, IncompleteCoflowFlagged) {
  std::vector<FlowResult> flows(2);
  flows[0].spec = FlowSpec{1, NodeId(0), NodeId(1), 1, 0.0, 7};
  flows[0].outcome = FlowOutcome::kCompleted;
  flows[0].finish = 2.0;
  flows[1].spec = FlowSpec{2, NodeId(0), NodeId(1), 1, 0.0, 7};
  flows[1].outcome = FlowOutcome::kStalledForever;
  auto coflows = aggregate_coflows(flows);
  ASSERT_EQ(coflows.size(), 1u);
  EXPECT_FALSE(coflows[0].all_completed);
}

TEST(FluidSim, PerLinkEqualShareDoesNotReclaimResidual) {
  // Flow A crosses links L0 (with B) and L1 (alone); B is bottlenecked at
  // a slow host link. Under max-min, A reclaims B's unused share of L0;
  // under per-link equal share it does not.
  net::Network net;
  auto s0 = net.add_node(net::NodeKind::kEdgeSwitch, "s0");
  auto s1 = net.add_node(net::NodeKind::kEdgeSwitch, "s1");
  auto s2 = net.add_node(net::NodeKind::kEdgeSwitch, "s2");
  auto ha = net.add_node(net::NodeKind::kHost, "ha");
  auto hb = net.add_node(net::NodeKind::kHost, "hb");
  auto hx = net.add_node(net::NodeKind::kHost, "hx");  // A's source
  auto hy = net.add_node(net::NodeKind::kHost, "hy");  // B's source
  net.add_link(hx, s0, 10.0);
  net.add_link(hy, s0, 0.1);  // B's slow source NIC
  net.add_link(s0, s1, 1.0);  // L0: shared
  net.add_link(s1, s2, 1.0);  // L1
  net.add_link(ha, s2, 10.0);
  net.add_link(hb, s1, 10.0);

  struct FixedRouter2 final : routing::Router {
    net::Path route(const net::Network& n, net::NodeId s, net::NodeId d,
                    std::uint64_t, const routing::LinkLoads*) override {
      return net::shortest_path(n, s, d);
    }
    const char* name() const noexcept override { return "fixed"; }
  };

  auto run = [&](AllocationModel model) {
    FixedRouter2 router;
    SimConfig cfg;
    cfg.unit_bytes_per_second = 1.0;
    cfg.completion_epsilon_bytes = 1e-6;
    cfg.allocation = model;
    FluidSimulator sim(net, router, cfg);
    sim.add_flow(FlowSpec{1, hx, ha, 9.0, 0.0});  // A
    sim.add_flow(FlowSpec{2, hy, hb, 1.0, 0.0});  // B (rate-capped at 0.1)
    return sim.run();
  };

  auto maxmin = run(AllocationModel::kMaxMinFair);
  // Max-min: B is capped at 0.1 by its NIC, A reclaims 0.9 of L0 and
  // finishes its 9 bytes at t = 10 (as does B).
  EXPECT_NEAR(maxmin[0].finish, 10.0, 1e-6);
  EXPECT_NEAR(maxmin[1].finish, 10.0, 1e-6);

  auto equal = run(AllocationModel::kPerLinkEqualShare);
  // Equal share: A gets only 0.5 on L0 while B is active (B still runs
  // at 0.1, done at t = 10 with A at 5 transferred), then full rate:
  // 5 + 4 more at rate 1 -> t = 14.
  EXPECT_NEAR(equal[1].finish, 10.0, 1e-6);
  EXPECT_NEAR(equal[0].finish, 14.0, 1e-6);
  EXPECT_GT(equal[0].finish, maxmin[0].finish);
}

TEST(FluidSim, EqualShareNeverExceedsLinkCapacity) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  routing::EcmpRouter router(ft);
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1.0;
  cfg.allocation = AllocationModel::kPerLinkEqualShare;
  FluidSimulator sim(ft.network(), router, cfg);
  for (std::uint64_t f = 0; f < 40; ++f) {
    sim.add_flow(FlowSpec{f, ft.host(static_cast<int>(f % 16)),
                          ft.host(static_cast<int>((f * 5 + 3) % 16)), 4.0,
                          0.0});
  }
  auto results = sim.run();
  for (const auto& r : results) {
    if (r.spec.src == r.spec.dst) continue;
    EXPECT_EQ(r.outcome, FlowOutcome::kCompleted);
    // With unit capacities, no flow can beat 1 unit of rate.
    EXPECT_GE(r.fct(), 4.0 - 1e-9);
  }
}

TEST(FluidSim, OutcomesMatchPinnedDigest) {
  // The tests above check analytically solvable cases within one build;
  // this one pins every flow outcome of fig1c-style runs across builds.
  // A change in which flows get re-rated after an event, in how a
  // router picks its structural path, or in when F10 gives up moves
  // some flow's finish time and with it the digest. A deliberate
  // behaviour change re-records the constant.
  constexpr int kK = 8;
  constexpr Seconds kRepair = 12.0;
  auto fat_tree = [](topo::Wiring wiring) {
    topo::FatTreeParams p{.k = kK, .wiring = wiring};
    p.hosts_per_edge = 1;
    p.host_link_capacity = 10.0 * (kK / 2);  // 10:1 oversubscribed
    return std::make_unique<topo::FatTree>(p);
  };
  std::vector<FlowSpec> flows;
  {
    const auto ft = fat_tree(topo::Wiring::kPlain);
    workload::CoflowWorkloadParams wp;
    wp.racks = ft->host_count();
    wp.coflows = 40;
    wp.duration = 24.0;
    wp.width_lognorm_mu = 1.2;
    wp.reducer_bytes_xm = 2e8;
    wp.reducer_bytes_cap = 1e10;
    Rng rng(20170015);
    flows = workload::expand_to_flows(*ft, workload::generate_coflows(wp, rng));
  }
  ASSERT_GT(flows.size(), 100u);

  enum class Arch { kGlobalReroute, kSpider, kBackupRules, kF10 };
  auto make_router = [](Arch arch, const topo::FatTree& ft)
      -> std::unique_ptr<routing::Router> {
    switch (arch) {
      case Arch::kGlobalReroute:
        return std::make_unique<routing::EcmpWithGlobalRerouteRouter>(ft, 1);
      case Arch::kSpider:
        return std::make_unique<routing::SpiderProtectRouter>(ft, 1);
      case Arch::kBackupRules:
        return std::make_unique<routing::BackupRulesRouter>(ft, 1);
      case Arch::kF10:
        break;
    }
    return std::make_unique<routing::F10Router>(ft, 1);
  };
  using Schedule = std::function<void(const topo::FatTree&, FluidSimulator&)>;
  auto fail_node_until_repair = [](auto victim_of) -> Schedule {
    return [victim_of](const topo::FatTree& ft, FluidSimulator& sim) {
      const NodeId v = victim_of(ft);
      sim.at(0.0, [v](Network& n) { n.fail_node(v); });
      sim.at(kRepair, [v](Network& n) { n.restore_node(v); });
    };
  };
  auto fail_link_until_repair = [](auto victim_of) -> Schedule {
    return [victim_of](const topo::FatTree& ft, FluidSimulator& sim) {
      const net::LinkId v = victim_of(ft);
      sim.at(0.0, [v](Network& n) { n.fail_link(v); });
      sim.at(kRepair, [v](Network& n) { n.restore_link(v); });
    };
  };
  const std::vector<Schedule> failures = {
      fail_node_until_repair(
          [](const topo::FatTree& ft) { return ft.edge(1, 2); }),
      fail_link_until_repair(
          [](const topo::FatTree& ft) { return ft.host_link(ft.host(5)); }),
      fail_link_until_repair([](const topo::FatTree& ft) {
        return *ft.network().find_link(ft.edge(2, 1), ft.agg(2, 0));
      }),
      fail_link_until_repair([](const topo::FatTree& ft) {
        return *ft.network().find_link(ft.core(3), ft.agg_for_core(3, 4));
      }),
  };

  std::uint64_t digest = 0;
  std::size_t runs = 0;
  auto run = [&](Arch arch, const SimConfig& cfg, const Schedule& schedule) {
    const auto ft = fat_tree(arch == Arch::kF10 ? topo::Wiring::kAb
                                                : topo::Wiring::kPlain);
    const auto router = make_router(arch, *ft);
    FluidSimulator sim(ft->network(), *router, cfg);
    sim.add_flows(flows);
    schedule(*ft, sim);
    for (const FlowResult& r : sim.run()) {
      for (std::uint64_t v :
           {static_cast<std::uint64_t>(r.outcome),
            std::bit_cast<std::uint64_t>(r.finish),
            std::bit_cast<std::uint64_t>(r.bytes_remaining),
            static_cast<std::uint64_t>(r.reroutes),
            static_cast<std::uint64_t>(r.path_hops)}) {
        digest = sweep::splitmix64(digest ^ v);
      }
    }
    ++runs;
  };

  SimConfig equal_share;
  equal_share.unit_bytes_per_second = 3.125e8;  // 1 unit = 2.5 Gbps
  equal_share.allocation = AllocationModel::kPerLinkEqualShare;
  for (const Schedule& failure : failures) {
    for (Arch arch : {Arch::kGlobalReroute, Arch::kSpider, Arch::kBackupRules,
                      Arch::kF10}) {
      run(arch, equal_share, failure);
    }
  }
  // A capacity drain and restore: no path dies, every rate on the
  // drained link must still follow the new capacity.
  run(Arch::kGlobalReroute, equal_share,
      [](const topo::FatTree& ft, FluidSimulator& sim) {
        const net::LinkId l =
            *ft.network().find_link(ft.edge(0, 0), ft.agg(0, 0));
        const double cap = ft.network().link(l).capacity;
        sim.at(3.0, [l](Network& n) { n.set_link_capacity(l, 0.25); });
        sim.at(9.0, [l, cap](Network& n) { n.set_link_capacity(l, cap); });
      });
  // ShareBackup's pinned-path model: flows on the dead aggregation
  // switch stall and resume on their original path after the repair.
  SimConfig pinned = equal_share;
  pinned.reroute_on_path_failure = false;
  run(Arch::kGlobalReroute, pinned,
      [](const topo::FatTree& ft, FluidSimulator& sim) {
        const NodeId v = ft.agg(3, 1);
        sim.at(2.0, [v](Network& n) { n.fail_node(v); });
        sim.at(7.0, [v](Network& n) { n.restore_node(v); });
      });
  SimConfig max_min = equal_share;
  max_min.allocation = AllocationModel::kMaxMinFair;
  run(Arch::kGlobalReroute, max_min, failures[3]);

  EXPECT_EQ(runs, 19u);
  EXPECT_EQ(digest, 0x090bf344d49400d2ULL) << std::hex << "digest 0x" << digest;
}

// --- failure impact analysis -------------------------------------------------

TEST(FailureAnalysis, CoflowAmplification) {
  // One coflow of many flows: failing anything on any flow's path affects
  // the whole coflow — the paper's §2.2 amplification effect.
  topo::FatTree ft(topo::FatTreeParams{.k = 8});
  routing::EcmpRouter router(ft);

  std::vector<FlowSpec> flows;
  std::uint64_t id = 0;
  for (int i = 0; i < 32; ++i) {
    // Coflow 0: fan-in to host 0; plus 32 singleton coflows elsewhere.
    flows.push_back(FlowSpec{id++, ft.host(i + 1), ft.host(0), 1e6, 0.0, 0});
    flows.push_back(FlowSpec{id++, ft.host(40 + i), ft.host(90 + i), 1e6,
                             0.0, 1 + static_cast<CoflowId>(i)});
  }
  auto snapshot = route_snapshot(ft.network(), router, flows);

  FailureSet fs;
  fs.nodes.push_back(ft.edge_of_host(ft.host(0)));
  ImpactResult r = measure_impact(snapshot, fs);
  // All 32 fan-in flows die with the edge, so coflow 0 is affected.
  EXPECT_GE(r.affected_flows, 32u);
  EXPECT_GE(r.affected_coflows, 1u);

  // Amplification: fail the host link of ONE fan-in source (host 21 is
  // used only by coflow 0). Exactly one flow is affected, but the whole
  // wide coflow stalls — so the coflow fraction strictly exceeds the
  // flow fraction (the §2.2 effect).
  FailureSet single_link;
  single_link.links.push_back(ft.host_link(ft.host(21)));
  ImpactResult r2 = measure_impact(snapshot, single_link);
  EXPECT_EQ(r2.affected_flows, 1u);
  EXPECT_EQ(r2.affected_coflows, 1u);
  EXPECT_GT(r2.coflow_fraction(), r2.flow_fraction());
}

TEST(FailureAnalysis, RandomFailureSetsRespectBounds) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  Rng rng(5);
  auto nodes = random_switch_failures(ft.network(), 3, rng);
  EXPECT_EQ(nodes.nodes.size(), 3u);
  for (NodeId n : nodes.nodes) {
    EXPECT_NE(ft.network().node(n).kind, NodeKind::kHost);
  }
  auto links = random_fabric_link_failures(ft.network(), 5, rng);
  EXPECT_EQ(links.links.size(), 5u);
  for (net::LinkId l : links.links) {
    const net::Link& link = ft.network().link(l);
    EXPECT_NE(ft.network().node(link.a).kind, NodeKind::kHost);
    EXPECT_NE(ft.network().node(link.b).kind, NodeKind::kHost);
  }
}

TEST(FailureAnalysis, UnaffectedWhenFailureOffPath) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  routing::EcmpRouter router(ft);
  std::vector<FlowSpec> flows{
      FlowSpec{1, ft.host(0, 0, 0), ft.host(0, 0, 1), 1.0, 0.0, 0}};
  auto snapshot = route_snapshot(ft.network(), router, flows);
  FailureSet fs;
  fs.nodes.push_back(ft.core(0));  // same-edge flow never touches cores
  ImpactResult r = measure_impact(snapshot, fs);
  EXPECT_EQ(r.affected_flows, 0u);
  EXPECT_EQ(r.affected_coflows, 0u);
}

}  // namespace
}  // namespace sbk::sim
