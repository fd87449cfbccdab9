// Tests for the flow-level simulator stack: event queue, max-min fair
// allocation (with its optimality properties), the fluid simulator on
// analytically solvable scenarios, and the static failure-impact
// analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

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

TEST(FluidSim, FlowsDrainingWithinEpsilonCompleteAtOneEvent) {
  // Two flows on disjoint paths whose sizes differ by less than
  // completion_epsilon_bytes drain at one event: the later one passes
  // the completion test when the earlier one's finish comes due, even
  // though only the earlier one tops the finish heap. A third flow
  // elsewhere adds events in between.
  for (AllocationModel model :
       {AllocationModel::kPerLinkEqualShare, AllocationModel::kMaxMinFair}) {
    topo::FatTree ft(topo::FatTreeParams{.k = 4});
    FixedRouter router;
    SimConfig cfg;
    cfg.unit_bytes_per_second = 1e6;
    cfg.allocation = model;
    FluidSimulator sim(ft.network(), router, cfg);
    sim.add_flow(FlowSpec{1, ft.host(0), ft.host(1), 3e6, 0.0, 0});
    sim.add_flow(FlowSpec{2, ft.host(8), ft.host(9),
                          3e6 + 0.8 * cfg.completion_epsilon_bytes, 0.0, 0});
    sim.add_flow(FlowSpec{3, ft.host(4), ft.host(5), 1e6, 0.7, 0});
    const auto results = sim.run();
    ASSERT_EQ(results[0].outcome, FlowOutcome::kCompleted);
    ASSERT_EQ(results[1].outcome, FlowOutcome::kCompleted);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[0].finish),
              std::bit_cast<std::uint64_t>(results[1].finish));
    EXPECT_EQ(results[0].finish, 3.0);
  }
}

TEST(FluidSim, UnperturbedFlowFinishesAtStartPlusSizeOverRate) {
  // A flow alone on its path is rated once, when it arrives, and its
  // bytes are never debited again until it finishes: its finish time is
  // exactly start + bytes / unit / rate however many flows arrive and
  // finish elsewhere in the meantime.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  const net::LinkId nic = ft.host_link(ft.host(0));
  ft.network().set_link_capacity(nic, 0.7);
  FixedRouter router;
  SimConfig cfg;
  cfg.unit_bytes_per_second = 1e6;
  cfg.allocation = AllocationModel::kPerLinkEqualShare;
  FluidSimulator sim(ft.network(), router, cfg);
  const FlowSpec lone{1, ft.host(0), ft.host(1), 7.77e6, 0.3, 0};
  sim.add_flow(lone);
  for (std::uint64_t f = 0; f < 12; ++f) {
    // Contending flows in pod 2, arriving and finishing at odd times.
    sim.add_flow(FlowSpec{100 + f, ft.host(8 + static_cast<int>(f % 3)),
                          ft.host(11), 3.1e5 * static_cast<double>(f + 1),
                          0.137 * static_cast<double>(f), 0});
  }
  const auto results = sim.run();
  ASSERT_EQ(results[0].outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(results[0].finish, lone.start + lone.bytes / 1e6 / 0.7);
  EXPECT_GT(sim.allocation_rounds(), 12u);
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

// --- fig1c-style runs across builds -----------------------------------------
//
// The tests above check analytically solvable cases within one build; the
// two below pin every flow outcome of fig1c-style runs across builds: a
// 10:1 oversubscribed k=8 fat-tree with one rack host per edge switch,
// each of the four failure classes under each of the four rerouting
// architectures (repaired at kRepair), a capacity drain, a pinned-path
// outage and one max-min run. A change in which flows get re-rated after
// an event, in how a router picks its structural path, or in when F10
// gives up moves some flow's outcome.
namespace fig1c_runs {

constexpr int kK = 8;
constexpr Seconds kRepair = 12.0;

std::unique_ptr<topo::FatTree> fat_tree(topo::Wiring wiring) {
  topo::FatTreeParams p{.k = kK, .wiring = wiring};
  p.hosts_per_edge = 1;
  p.host_link_capacity = 10.0 * (kK / 2);  // 10:1 oversubscribed
  return std::make_unique<topo::FatTree>(p);
}

/// The 40-coflow trace every run replays.
std::vector<FlowSpec> coflow_flows() {
  const auto ft = fat_tree(topo::Wiring::kPlain);
  workload::CoflowWorkloadParams wp;
  wp.racks = ft->host_count();
  wp.coflows = 40;
  wp.duration = 24.0;
  wp.width_lognorm_mu = 1.2;
  wp.reducer_bytes_xm = 2e8;
  wp.reducer_bytes_cap = 1e10;
  Rng rng(20170015);
  return workload::expand_to_flows(*ft, workload::generate_coflows(wp, rng));
}

enum class Arch { kGlobalReroute, kSpider, kBackupRules, kF10 };

std::unique_ptr<routing::Router> make_router(Arch arch,
                                             const topo::FatTree& ft) {
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
}

using Schedule = std::function<void(const topo::FatTree&, FluidSimulator&)>;

template <typename VictimOf>
Schedule fail_node_until_repair(VictimOf victim_of) {
  return [victim_of](const topo::FatTree& ft, FluidSimulator& sim) {
    const NodeId v = victim_of(ft);
    sim.at(0.0, [v](Network& n) { n.fail_node(v); });
    sim.at(kRepair, [v](Network& n) { n.restore_node(v); });
  };
}

template <typename VictimOf>
Schedule fail_link_until_repair(VictimOf victim_of) {
  return [victim_of](const topo::FatTree& ft, FluidSimulator& sim) {
    const net::LinkId v = victim_of(ft);
    sim.at(0.0, [v](Network& n) { n.fail_link(v); });
    sim.at(kRepair, [v](Network& n) { n.restore_link(v); });
  };
}

struct Run {
  Arch arch;
  SimConfig cfg;
  Schedule schedule;
};

/// The 19 runs in a fixed order: run 4·c + a is failure class c (edge
/// switch, host link, edge–aggregation link, core–aggregation link)
/// under architecture a (global reroute, SPIDER, backup rules, F10);
/// then the capacity drain, the pinned-path outage and the max-min run.
std::vector<Run> all_runs() {
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
  SimConfig equal_share;
  equal_share.unit_bytes_per_second = 3.125e8;  // 1 unit = 2.5 Gbps
  equal_share.allocation = AllocationModel::kPerLinkEqualShare;
  std::vector<Run> runs;
  for (const Schedule& failure : failures) {
    for (Arch arch : {Arch::kGlobalReroute, Arch::kSpider, Arch::kBackupRules,
                      Arch::kF10}) {
      runs.push_back(Run{arch, equal_share, failure});
    }
  }
  // A capacity drain and restore: no path dies, every rate on the
  // drained link must still follow the new capacity.
  runs.push_back(Run{Arch::kGlobalReroute, equal_share,
                     [](const topo::FatTree& ft, FluidSimulator& sim) {
                       const net::LinkId l = *ft.network().find_link(
                           ft.edge(0, 0), ft.agg(0, 0));
                       const double cap = ft.network().link(l).capacity;
                       sim.at(3.0, [l](Network& n) {
                         n.set_link_capacity(l, 0.25);
                       });
                       sim.at(9.0, [l, cap](Network& n) {
                         n.set_link_capacity(l, cap);
                       });
                     }});
  // ShareBackup's pinned-path model: flows on the dead aggregation
  // switch stall and resume on their original path after the repair.
  SimConfig pinned = equal_share;
  pinned.reroute_on_path_failure = false;
  runs.push_back(Run{Arch::kGlobalReroute, pinned,
                     [](const topo::FatTree& ft, FluidSimulator& sim) {
                       const NodeId v = ft.agg(3, 1);
                       sim.at(2.0, [v](Network& n) { n.fail_node(v); });
                       sim.at(7.0, [v](Network& n) { n.restore_node(v); });
                     }});
  SimConfig max_min = equal_share;
  max_min.allocation = AllocationModel::kMaxMinFair;
  runs.push_back(Run{Arch::kGlobalReroute, max_min, failures[3]});
  return runs;
}

std::vector<FlowResult> simulate(const Run& run,
                                 const std::vector<FlowSpec>& flows) {
  const auto ft = fat_tree(run.arch == Arch::kF10 ? topo::Wiring::kAb
                                                  : topo::Wiring::kPlain);
  const auto router = make_router(run.arch, *ft);
  FluidSimulator sim(ft->network(), *router, run.cfg);
  sim.add_flows(flows);
  run.schedule(*ft, sim);
  return sim.run();
}

}  // namespace fig1c_runs

TEST(FluidSim, OutcomesMatchPinnedDigest) {
  // A deliberate behaviour change re-records the constant. The previous
  // constant, 0x090bf344d49400d2, was the digest of the eager event loop
  // (every active flow's bytes debited at every event) over these 19
  // runs' 62,434 outcomes. The lazily settled loop debits a flow's bytes
  // only when its rate changes, which moves 19,061 finish times by at
  // most 1.42e-13 s (5.1e-15 relative) and nothing else: outcomes,
  // reroutes, path lengths, remaining bytes and each run's completion
  // order are unchanged. FluidSim.MatchesEagerReference carries the
  // eager values forward and bounds that difference.
  const std::vector<FlowSpec> flows = fig1c_runs::coflow_flows();
  ASSERT_GT(flows.size(), 100u);
  std::uint64_t digest = 0;
  std::size_t runs = 0;
  for (const fig1c_runs::Run& run : fig1c_runs::all_runs()) {
    for (const FlowResult& r : fig1c_runs::simulate(run, flows)) {
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
  }
  EXPECT_EQ(runs, 19u);
  EXPECT_EQ(digest, 0x6314707fe5fd599fULL) << std::hex << "digest 0x" << digest;
}

TEST(FluidSim, MatchesEagerReference) {
  // data/fluid_eager_reference.txt holds the per-flow outcomes of seven
  // of the runs above (the diagonal of the failure-class × architecture
  // grid, the drain, the pinned-path outage and the max-min run) over
  // every eighth flow of the trace, as the eager event loop produced
  // them: it debited every active flow's bytes at every event, where the
  // current loop settles a flow only when its rate changes. The two
  // differ only in rounding, so outcome, reroutes, path length,
  // remaining bytes and completion order must match exactly, and finish
  // times to 1e-12 relative (the measured difference is below 6e-15).
  // The file was recorded once from the eager loop and carries its
  // values forward: never regenerate it. On a mismatch the test writes
  // what it saw to fluid_eager_reference.actual.txt in its working
  // directory.
  struct Row {
    std::size_t run = 0;
    FlowId id = 0;
    unsigned outcome = 0;
    std::size_t reroutes = 0;
    std::size_t hops = 0;
    double finish = 0.0;
    double bytes_remaining = 0.0;
  };
  const std::vector<FlowSpec> trace = fig1c_runs::coflow_flows();
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < trace.size(); i += 8) flows.push_back(trace[i]);
  const std::vector<fig1c_runs::Run> runs = fig1c_runs::all_runs();
  std::vector<Row> actual;
  for (std::size_t run : {0, 5, 10, 15, 16, 17, 18}) {
    for (const FlowResult& r : fig1c_runs::simulate(runs[run], flows)) {
      actual.push_back(Row{run, r.spec.id, static_cast<unsigned>(r.outcome),
                           r.reroutes, r.path_hops, r.finish,
                           r.bytes_remaining});
    }
  }

  std::vector<Row> expected;
  {
    std::ifstream in(SBK_TEST_DATA_DIR "/fluid_eager_reference.txt");
    EXPECT_TRUE(in.good()) << "cannot read the eager reference";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      Row row;
      std::string finish, bytes_remaining;
      fields >> row.run >> row.id >> row.outcome >> row.reroutes >>
          row.hops >> finish >> bytes_remaining;
      EXPECT_FALSE(fields.fail()) << "malformed reference line: " << line;
      row.finish = std::strtod(finish.c_str(), nullptr);
      row.bytes_remaining = std::strtod(bytes_remaining.c_str(), nullptr);
      expected.push_back(row);
    }
  }
  EXPECT_EQ(expected.size(), actual.size());

  // Field by field, reporting the first few mismatches.
  std::size_t mismatches = 0;
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    const Row& e = expected[i];
    const Row& a = actual[i];
    const double rel =
        std::abs(a.finish - e.finish) / std::max(1.0, std::abs(e.finish));
    worst_rel = std::max(worst_rel, rel);
    if (a.run == e.run && a.id == e.id && a.outcome == e.outcome &&
        a.reroutes == e.reroutes && a.hops == e.hops &&
        std::bit_cast<std::uint64_t>(a.bytes_remaining) ==
            std::bit_cast<std::uint64_t>(e.bytes_remaining) &&
        rel <= 1e-12) {
      continue;
    }
    if (++mismatches <= 10) {
      ADD_FAILURE() << "run " << e.run << " flow " << e.id
                    << ": reference (outcome " << e.outcome << ", reroutes "
                    << e.reroutes << ", hops " << e.hops << ", finish "
                    << std::hexfloat << e.finish << ", remaining "
                    << e.bytes_remaining << ") vs (" << std::defaultfloat
                    << a.outcome << ", " << a.reroutes << ", " << a.hops
                    << ", " << std::hexfloat << a.finish << ", "
                    << a.bytes_remaining << ")";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "worst relative finish difference "
                            << worst_rel;

  // Completion order within each run: by finish, then id.
  auto completion_order = [](const std::vector<Row>& rows) {
    std::vector<const Row*> done;
    for (const Row& r : rows) {
      if (r.outcome == static_cast<unsigned>(FlowOutcome::kCompleted)) {
        done.push_back(&r);
      }
    }
    std::stable_sort(done.begin(), done.end(), [](const Row* a, const Row* b) {
      if (a->run != b->run) return a->run < b->run;
      if (a->finish != b->finish) return a->finish < b->finish;
      return a->id < b->id;
    });
    std::vector<std::pair<std::size_t, FlowId>> order;
    for (const Row* r : done) order.emplace_back(r->run, r->id);
    return order;
  };
  EXPECT_TRUE(completion_order(expected) == completion_order(actual))
      << "completion order differs from the eager reference";

  if (HasFailure()) {
    std::ofstream out("fluid_eager_reference.actual.txt");
    out << "# run flow outcome reroutes path_hops finish bytes_remaining\n";
    char buf[160];
    for (const Row& r : actual) {
      std::snprintf(buf, sizeof buf, "%zu %llu %u %zu %zu %a %a\n", r.run,
                    static_cast<unsigned long long>(r.id), r.outcome,
                    r.reroutes, r.hops, r.finish, r.bytes_remaining);
      out << buf;
    }
  }
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
