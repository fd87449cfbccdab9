// Event-driven flow-level ("fluid") network simulator with max-min fair
// bandwidth sharing — the evaluation vehicle for the paper's Figure 1
// experiments. Flows are fluid streams pinned to a path; on every
// arrival, completion, or topology change the max-min allocation is
// recomputed and the next event horizon derived.
//
// Under per-link equal share a flow's rate is min over its directed
// links of capacity / flow count, so it can move only when the count
// on one of its links moves or a capacity changes. The simulator keeps
// the active flows of every directed-link slot, each slot's equal share
// (capacity / max(1, count)), and marks a slot whenever its count moves
// (arrival, completion, path death, reroute, path-pinned resume). A
// recompute refreshes the marked slots' shares and re-rates only the
// flows on them; after a topology action that bumps
// Network::topology_version() it refreshes every share and re-rates
// every active flow, because capacities may have changed. Every other
// flow's rate is the value the same expression would give again.
//
// The event loop costs O(touched · log n) per event, not O(active):
//   * Settled state. A flow's remaining bytes are exact at a stored time
//     since_, and its rate has not changed since. They are settled
//     (remaining -= rate · bytes/unit · (now − since)) only when the rate
//     changes, when the flow leaves the active set (stall, reroute,
//     finish), and once for every active flow when run() ends.
//   * Finish heap. Each flow with a positive rate has its projected
//     finish time, since + remaining / rate, in an indexed min-heap,
//     re-keyed only when its rate moves bitwise. Its top is the next
//     completion event.
//   * Completion window. At an event time T a flow completes when its
//     settled remaining is at most completion_epsilon_bytes plus what it
//     moves in 1 ps, the test a per-event pass over every flow would
//     make. That test passes from T* = finish − (epsilon / rate + 1 ps)
//     on, so a second indexed heap holds T* less a 1e-6 relative margin
//     for rounding; every flow it yields at T gets the exact test (a
//     rejected one is looked at again at the next event). Flows that
//     drain within about half a byte of each other so complete at one
//     event, and the flows due at T finish in active-set order.
// Rates, the sequence of events and the completion order are those of
// settling every flow at every event; event and finish times can differ
// from that in the last bits only, because the same bytes are debited
// in fewer steps (tests/sim_test.cpp, FluidSim.MatchesEagerReference,
// bounds it).
//
// Failure recovery policies plug in two ways:
//   * the Router decides paths (rerouting baselines);
//   * scheduled actions mutate the Network mid-run (failure injection and
//     ShareBackup's hardware replacement, which restores links so that
//     rerouted == original paths).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "routing/router.hpp"
#include "sim/flow.hpp"
#include "sim/incremental_max_min.hpp"
#include "sim/max_min.hpp"
#include "util/time.hpp"

namespace sbk::sim {

/// How link bandwidth is shared among competing flows.
enum class AllocationModel {
  /// Global max-min fairness by progressive filling: flows reclaim any
  /// bandwidth left over by flows bottlenecked elsewhere. Models ideal
  /// congestion control.
  kMaxMinFair,
  /// Per-link equal share: a flow's rate is min over its links of
  /// capacity / flow-count. Flows do NOT reclaim residual bandwidth —
  /// the standard pessimistic approximation of TCP under static ECMP
  /// hashing, where collisions with bursts cut rates that are never
  /// recovered within a flow's lifetime. This is the model that exposes
  /// the paper's heavy CCT-slowdown tail (§2.2).
  kPerLinkEqualShare,
};

struct SimConfig {
  /// Bytes per second carried by one capacity unit (default: 1 unit =
  /// 1 Gbps = 125 MB/s).
  double unit_bytes_per_second = 125e6;
  AllocationModel allocation = AllocationModel::kMaxMinFair;
  /// When a flow's path dies, ask the router for a new one (rerouting
  /// architectures). If false, flows stall until a topology action brings
  /// their path back (used to model blackholes).
  bool reroute_on_path_failure = true;
  /// Stop simulating at this time; unfinished flows are reported as such.
  Seconds horizon = 1e18;
  /// A flow is complete when its remaining volume drops below this many
  /// bytes (absorbs floating-point drift).
  double completion_epsilon_bytes = 0.5;
  /// Under kMaxMinFair, maintain per-link flow membership between events
  /// and re-solve only the connected component an event dirtied
  /// (IncrementalMaxMin) instead of the whole fabric. Bit-identical to
  /// the full re-solve (property-tested); disable only to benchmark the
  /// monolithic path or to bisect a suspected divergence.
  bool incremental_max_min = true;
};

class FluidSimulator {
 public:
  /// The simulator mutates `net` only through scheduled actions supplied
  /// by the caller; it never fails/repairs elements on its own.
  FluidSimulator(net::Network& net, routing::Router& router, SimConfig cfg);

  /// Registers flows before run(). Flow ids must be unique.
  void add_flows(std::span<const FlowSpec> flows);
  void add_flow(const FlowSpec& flow);

  /// Schedules a topology mutation (failure injection, repair,
  /// ShareBackup failover, ...) at absolute time `when`. After it runs,
  /// active flows with dead paths are rerouted (per config) and stalled
  /// flows retried.
  void at(Seconds when, std::function<void(net::Network&)> action);

  /// Runs to completion (all flows done/stalled and no actions pending,
  /// or the horizon). Returns per-flow results ordered by flow id.
  [[nodiscard]] std::vector<FlowResult> run();

  /// Number of allocation recomputations performed by the last run()
  /// (exposed for the micro-benchmarks). Events that leave the active
  /// demand set, link capacities, and failure state untouched reuse the
  /// previous allocation instead of recomputing (see DESIGN.md).
  [[nodiscard]] std::size_t allocation_rounds() const noexcept {
    return allocation_rounds_;
  }
  /// Events whose allocation was reused because rates_dirty_ stayed
  /// clear (the recompute-skip fast path).
  [[nodiscard]] std::size_t recompute_skips() const noexcept {
    return recompute_skips_;
  }

  /// Counters fluidsim.{events,allocation_rounds,recompute_skips,
  /// reroutes,flows_completed,flows_stalled}, flushed once when run()
  /// finishes. The hot loop keeps plain size_t tallies either way, so an
  /// unattached simulator is byte-for-byte the same code path. Pass
  /// nullptr to detach. The registry must outlive the simulator.
  void attach_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Structured trace events: wall-clock-timed spans around max-min
  /// solves and route computations, instants for topology actions and
  /// reroutes. nullptr (the default) keeps the hot loop to a single
  /// pointer test per event. The recorder must outlive the simulator.
  void attach_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Fixed-cadence time-series sampling, driven from simulation time (the
  /// sampler's cadence boundaries are visited as the run loop crosses
  /// them, so sampling is deterministic). Each sample lands in the
  /// sampler's recorder as "telemetry" counters. Register probes — e.g.
  /// the active_flow_count/link_utilization accessors below — before
  /// run(). nullptr (the default) keeps the hot loop to one pointer
  /// test per event; a sampler over a disabled recorder returns at its
  /// first branch.
  void attach_telemetry(obs::TelemetrySampler* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  // --- telemetry probe accessors (valid mid-run, cheap to call) ---------
  [[nodiscard]] std::size_t active_flow_count() const noexcept {
    return live_count_;
  }
  /// Max utilization (allocated rate / capacity, per direction) over the
  /// directed links currently carrying at least one active flow; 0 when
  /// nothing is flowing.
  [[nodiscard]] double link_utilization_max() const;

 private:
  struct FlowState {
    FlowSpec spec;
    net::Path path;
    std::vector<net::DirectedLink> dlinks;
    /// Under equal share, this flow's index in slot_flows_ of each of
    /// its dlinks (parallel to dlinks) while it holds them.
    std::vector<std::uint32_t> slot_pos;
    Seconds finish = 0.0;
    bool active = false;
    bool stalled = false;
    bool done = false;
    std::size_t reroutes = 0;
    /// Registration in the incremental allocator while active.
    IncrementalMaxMin::FlowSlot alloc_slot = IncrementalMaxMin::kNoSlot;
  };
  /// One active flow on a directed-link slot: the flow and the hop of
  /// its path that crosses the slot.
  struct SlotMember {
    std::uint32_t flow = 0;
    std::uint32_t hop = 0;
  };
  struct Action {
    Seconds when;
    std::function<void(net::Network&)> fn;
  };
  /// Binary min-heap of flows keyed by a time, with every flow's heap
  /// position kept so that a key moves or leaves in O(log n).
  class FlowHeap {
   public:
    void reset(std::size_t flows);
    /// Inserts `flow` or moves its key.
    void set(std::uint32_t flow, Seconds key);
    /// Removes `flow` if present.
    void erase(std::uint32_t flow);
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::uint32_t top() const { return heap_.front().flow; }
    [[nodiscard]] Seconds top_key() const { return heap_.front().key; }

   private:
    struct Entry {
      Seconds key;
      std::uint32_t flow;
    };
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    void place(std::size_t at, Entry e);
    void sift_up(std::size_t at);
    void sift_down(std::size_t at);
    std::vector<Entry> heap_;
    std::vector<std::uint32_t> pos_;  // per flow: index in heap_ or kAbsent
  };
  /// Marks a removed entry of active_ until the next compaction.
  static constexpr std::uint32_t kTombstone = ~std::uint32_t{0};

  void admit(std::size_t idx, Seconds now);
  void try_route(std::size_t idx, Seconds now, bool is_reroute);
  void finish_flow(std::size_t idx, Seconds now);
  /// activate appends flow idx to the active set with since_ = now;
  /// deactivate takes it out (tombstone, both heaps, rate 0).
  void activate(std::size_t idx, Seconds now);
  void deactivate(std::size_t idx);
  /// Drops the tombstones from active_ once they outnumber the live
  /// entries, keeping the live order.
  void compact_active();
  /// Puts flow idx on its dlinks (loads, allocator, slot lists) and
  /// releases them; every change of a link's flow count goes through
  /// these two.
  void attach_links(std::size_t idx);
  void detach_links(std::size_t idx);
  void mark_slot(std::size_t slot);
  void refresh_share(std::size_t slot);
  [[nodiscard]] double equal_share_rate(std::size_t idx) const;
  /// Flow idx's remaining bytes at `now` under its current rate;
  /// settle stores that value with since_ = now.
  [[nodiscard]] double remaining_at(std::size_t idx, Seconds now) const;
  void settle(std::size_t idx, Seconds now);
  /// Settles and re-keys flow idx when `rate` differs bitwise from its
  /// current rate.
  void set_rate(std::size_t idx, double rate, Seconds now);
  /// Keys flow idx in both heaps from its settled state, or takes it
  /// out of them when its rate is not positive.
  void schedule_finish(std::size_t idx);
  void recompute_rates(Seconds now);
  /// Completes every flow whose remaining bytes pass the completion
  /// test at `now`.
  void complete_drained(Seconds now);
  void handle_topology_change(Seconds now);
  void fill_directed_utilization(std::vector<double>& used) const;

  net::Network* net_;
  routing::Router* router_;
  SimConfig cfg_;
  double eps_units_;  // completion_epsilon_bytes in capacity-unit seconds
  std::vector<FlowState> flows_;
  /// Hot per-flow state, indexed like flows_ and kept out of FlowState:
  /// remaining_ holds the bytes left at time since_, and rate_ has held
  /// since then (see the file comment).
  std::vector<double> remaining_;  // bytes
  std::vector<double> rate_;       // capacity units / second
  std::vector<Seconds> since_;
  std::vector<Action> actions_;
  routing::LinkLoads loads_;
  /// Active flows in activation order, with kTombstone where a flow
  /// left; active_pos_ is each active flow's index in it.
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> active_pos_;
  std::size_t live_count_ = 0;
  /// Projected finish times, and the earliest times the completion
  /// test can pass, of the active flows with a positive rate.
  FlowHeap finish_heap_;
  FlowHeap drain_heap_;
  std::vector<std::uint32_t> due_;  // scratch for complete_drained
  /// Equal share only: active flows per directed-link slot, each slot's
  /// equal share, the slots whose count moved since the last recompute,
  /// and whether the next recompute must refresh every slot and re-rate
  /// every active flow instead.
  std::vector<std::vector<SlotMember>> slot_flows_;
  std::vector<double> slot_share_;
  std::vector<std::uint8_t> slot_marked_;
  std::vector<std::uint32_t> marked_slots_;
  std::vector<std::size_t> rated_round_;  // per flow: last re-rate round
  bool rerate_all_ = true;
  std::size_t allocation_rounds_ = 0;
  std::size_t recompute_skips_ = 0;
  std::size_t events_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::TelemetrySampler* telemetry_ = nullptr;
  bool ran_ = false;
  /// Set by every event that can change the allocation (arrival,
  /// completion, topology action); cleared after recompute_rates().
  /// While false, the previous rates are provably still valid and
  /// recomputation is skipped.
  bool rates_dirty_ = true;
  [[nodiscard]] bool use_incremental() const noexcept {
    return cfg_.allocation == AllocationModel::kMaxMinFair &&
           cfg_.incremental_max_min;
  }
  [[nodiscard]] bool equal_share() const noexcept {
    return cfg_.allocation == AllocationModel::kPerLinkEqualShare;
  }
  MaxMinSolver solver_;        // scratch reused across allocation events
  std::vector<double> rates_;  // scratch: per-active-flow solver output
  IncrementalMaxMin inc_;      // cross-event state (incremental mode)
};

}  // namespace sbk::sim
