#include "sim/fluid_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "net/path.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::sim {

namespace {
constexpr Seconds kTimeEps = 1e-12;
/// Relative margin that keeps a drain_heap_ key at or below the first
/// time the completion test passes despite rounding (the rounding is
/// about 1e-16 relative; a key inside the margin costs one extra test).
constexpr double kDrainKeyMargin = 1e-6;

/// Directed-link slot, laid out as routing::LinkLoads lays it out.
std::size_t slot_of(net::DirectedLink dl) {
  return dl.link.index() * 2 + (dl.forward ? 0 : 1);
}
}  // namespace

void FluidSimulator::FlowHeap::reset(std::size_t flows) {
  heap_.clear();
  pos_.assign(flows, kAbsent);
}

void FluidSimulator::FlowHeap::place(std::size_t at, Entry e) {
  heap_[at] = e;
  pos_[e.flow] = static_cast<std::uint32_t>(at);
}

void FluidSimulator::FlowHeap::sift_up(std::size_t at) {
  const Entry e = heap_[at];
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!(e.key < heap_[parent].key)) break;
    place(at, heap_[parent]);
    at = parent;
  }
  place(at, e);
}

void FluidSimulator::FlowHeap::sift_down(std::size_t at) {
  const Entry e = heap_[at];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
    if (!(heap_[child].key < e.key)) break;
    place(at, heap_[child]);
    at = child;
  }
  place(at, e);
}

void FluidSimulator::FlowHeap::set(std::uint32_t flow, Seconds key) {
  const std::uint32_t at = pos_[flow];
  if (at == kAbsent) {
    heap_.push_back(Entry{key, flow});
    sift_up(heap_.size() - 1);
    return;
  }
  const Seconds old = heap_[at].key;
  heap_[at].key = key;
  if (key < old) {
    sift_up(at);
  } else {
    sift_down(at);
  }
}

void FluidSimulator::FlowHeap::erase(std::uint32_t flow) {
  const std::uint32_t at = pos_[flow];
  if (at == kAbsent) return;
  pos_[flow] = kAbsent;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (at == heap_.size()) return;
  place(at, last);
  sift_up(at);
  sift_down(pos_[last.flow]);
}

FluidSimulator::FluidSimulator(net::Network& net, routing::Router& router,
                               SimConfig cfg)
    : net_(&net), router_(&router), cfg_(cfg),
      eps_units_(cfg.completion_epsilon_bytes / cfg.unit_bytes_per_second),
      loads_(net.link_count()) {
  SBK_EXPECTS(cfg_.unit_bytes_per_second > 0.0);
  SBK_EXPECTS(cfg_.horizon > 0.0);
  if (equal_share()) {
    slot_flows_.resize(net.link_count() * 2);
    slot_share_.assign(net.link_count() * 2, 0.0);
    slot_marked_.assign(net.link_count() * 2, 0);
  }
}

void FluidSimulator::add_flow(const FlowSpec& flow) {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  SBK_EXPECTS(flow.bytes >= 0.0);
  SBK_EXPECTS(flow.start >= 0.0);
  FlowState st;
  st.spec = flow;
  flows_.push_back(std::move(st));
  remaining_.push_back(flow.bytes);
  rate_.push_back(0.0);
  rated_round_.push_back(0);
}

void FluidSimulator::add_flows(std::span<const FlowSpec> flows) {
  for (const FlowSpec& f : flows) add_flow(f);
}

void FluidSimulator::at(Seconds when,
                        std::function<void(net::Network&)> action) {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  SBK_EXPECTS(when >= 0.0);
  SBK_EXPECTS(action != nullptr);
  actions_.push_back(Action{when, std::move(action)});
}

void FluidSimulator::try_route(std::size_t idx, Seconds now,
                               bool is_reroute) {
  FlowState& f = flows_[idx];
  net::Path path;
  {
    obs::ScopedSpan span(recorder_, "fluidsim", "route", now);
    path = router_->route(*net_, f.spec.src, f.spec.dst, f.spec.id, &loads_);
  }
  if (path.empty()) {
    f.stalled = true;
    f.path = {};
    f.dlinks.clear();
    return;
  }
  f.path = std::move(path);
  f.dlinks = f.path.directed_links(*net_);
  attach_links(idx);
  f.stalled = false;
  f.active = true;
  if (is_reroute) {
    ++f.reroutes;
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->instant("fluidsim", "reroute", now,
                         "flow#" + std::to_string(f.spec.id));
    }
  }
}

void FluidSimulator::admit(std::size_t idx, Seconds now) {
  FlowState& f = flows_[idx];
  if (f.spec.src == f.spec.dst ||
      remaining_[idx] <= cfg_.completion_epsilon_bytes) {
    // Local or empty transfer: completes immediately at fluid granularity.
    f.path = net::Path{{f.spec.src}, {}};
    f.stalled = false;
    finish_flow(idx, now);
    return;
  }
  try_route(idx, now, /*is_reroute=*/false);
  if (f.active) activate(idx, now);
}

void FluidSimulator::finish_flow(std::size_t idx, Seconds now) {
  FlowState& f = flows_[idx];
  // Instantly-completing flows (local / zero-byte) never held links or a
  // slot in the active set, so they leave the allocation untouched.
  if (f.active || !f.dlinks.empty()) rates_dirty_ = true;
  if (f.active) deactivate(idx);
  f.done = true;
  f.active = false;
  f.stalled = false;
  remaining_[idx] = 0.0;
  detach_links(idx);
  f.finish = now;
}

void FluidSimulator::activate(std::size_t idx, Seconds now) {
  active_pos_[idx] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(static_cast<std::uint32_t>(idx));
  ++live_count_;
  since_[idx] = now;
}

void FluidSimulator::deactivate(std::size_t idx) {
  active_[active_pos_[idx]] = kTombstone;
  --live_count_;
  finish_heap_.erase(static_cast<std::uint32_t>(idx));
  drain_heap_.erase(static_cast<std::uint32_t>(idx));
  rate_[idx] = 0.0;
}

void FluidSimulator::compact_active() {
  if (active_.size() - live_count_ <= live_count_) return;
  std::size_t out = 0;
  for (std::uint32_t idx : active_) {
    if (idx == kTombstone) continue;
    active_pos_[idx] = static_cast<std::uint32_t>(out);
    active_[out++] = idx;
  }
  active_.resize(out);
}

void FluidSimulator::attach_links(std::size_t idx) {
  FlowState& f = flows_[idx];
  for (net::DirectedLink dl : f.dlinks) loads_.add(dl, 1.0);
  rates_dirty_ = true;
  if (use_incremental()) f.alloc_slot = inc_.add_flow(f.dlinks);
  if (!equal_share()) return;
  // A link-less flow sits on no slot, so no mark would ever rate it.
  if (f.dlinks.empty()) rerate_all_ = true;
  f.slot_pos.resize(f.dlinks.size());
  for (std::size_t hop = 0; hop < f.dlinks.size(); ++hop) {
    const std::size_t s = slot_of(f.dlinks[hop]);
    std::vector<SlotMember>& members = slot_flows_[s];
    f.slot_pos[hop] = static_cast<std::uint32_t>(members.size());
    members.push_back(SlotMember{static_cast<std::uint32_t>(idx),
                                 static_cast<std::uint32_t>(hop)});
    mark_slot(s);
  }
}

void FluidSimulator::detach_links(std::size_t idx) {
  FlowState& f = flows_[idx];
  for (net::DirectedLink dl : f.dlinks) loads_.add(dl, -1.0);
  if (f.alloc_slot != IncrementalMaxMin::kNoSlot) {
    inc_.remove_flow(f.alloc_slot);
    f.alloc_slot = IncrementalMaxMin::kNoSlot;
  }
  if (equal_share()) {
    // Swap-erase this flow's entry from each slot list, re-pointing the
    // entry moved into its place.
    for (std::size_t hop = 0; hop < f.dlinks.size(); ++hop) {
      const std::size_t s = slot_of(f.dlinks[hop]);
      std::vector<SlotMember>& members = slot_flows_[s];
      const std::uint32_t pos = f.slot_pos[hop];
      const SlotMember moved = members.back();
      members[pos] = moved;
      flows_[moved.flow].slot_pos[moved.hop] = pos;
      members.pop_back();
      mark_slot(s);
    }
  }
  f.dlinks.clear();
}

void FluidSimulator::mark_slot(std::size_t slot) {
  if (slot_marked_[slot] != 0) return;
  slot_marked_[slot] = 1;
  marked_slots_.push_back(static_cast<std::uint32_t>(slot));
}

void FluidSimulator::refresh_share(std::size_t slot) {
  // capacity / flow-count; loads_ holds the per-directed-link counts.
  const net::DirectedLink dl{net::LinkId(static_cast<std::uint32_t>(slot / 2)),
                             slot % 2 == 0};
  slot_share_[slot] =
      net_->link(dl.link).capacity / std::max(1.0, loads_.get(dl));
}

double FluidSimulator::equal_share_rate(std::size_t idx) const {
  // min over the path of the slots' equal shares.
  double rate = std::numeric_limits<double>::infinity();
  for (net::DirectedLink dl : flows_[idx].dlinks) {
    rate = std::min(rate, slot_share_[slot_of(dl)]);
  }
  return rate;
}

double FluidSimulator::remaining_at(std::size_t idx, Seconds now) const {
  // dt > 0 guard: a link-less flow's rate is +inf, and inf * 0 is NaN.
  const Seconds dt = now - since_[idx];
  if (!(dt > 0.0)) return remaining_[idx];
  return remaining_[idx] - rate_[idx] * cfg_.unit_bytes_per_second * dt;
}

void FluidSimulator::settle(std::size_t idx, Seconds now) {
  remaining_[idx] = remaining_at(idx, now);
  since_[idx] = now;
}

void FluidSimulator::set_rate(std::size_t idx, double rate, Seconds now) {
  if (std::bit_cast<std::uint64_t>(rate) ==
      std::bit_cast<std::uint64_t>(rate_[idx])) {
    return;
  }
  settle(idx, now);
  rate_[idx] = rate;
  schedule_finish(idx);
}

void FluidSimulator::schedule_finish(std::size_t idx) {
  const auto flow = static_cast<std::uint32_t>(idx);
  const double rate = rate_[idx];
  if (!(rate > 0.0)) {
    finish_heap_.erase(flow);
    drain_heap_.erase(flow);
    return;
  }
  const Seconds t_done =
      since_[idx] + (remaining_[idx] / cfg_.unit_bytes_per_second) / rate;
  // From t_drained on, remaining / unit <= eps_units_ + rate * kTimeEps.
  const Seconds t_drained = t_done - (eps_units_ / rate + kTimeEps);
  finish_heap_.set(flow, t_done);
  drain_heap_.set(flow, t_drained - kDrainKeyMargin *
                                        std::max(1.0, std::abs(t_drained)));
}

void FluidSimulator::recompute_rates(Seconds now) {
  obs::ScopedSpan span(recorder_, "fluidsim", "max_min_solve", now);
  ++allocation_rounds_;
  rates_dirty_ = false;
  if (equal_share()) {
    if (rerate_all_) {
      rerate_all_ = false;
      for (std::size_t slot = 0; slot < slot_share_.size(); ++slot) {
        refresh_share(slot);
      }
      for (std::uint32_t idx : active_) {
        if (idx != kTombstone) set_rate(idx, equal_share_rate(idx), now);
      }
    } else {
      // Only flows on a slot whose count moved can have a new rate.
      for (std::uint32_t s : marked_slots_) refresh_share(s);
      for (std::uint32_t s : marked_slots_) {
        for (const SlotMember& m : slot_flows_[s]) {
          if (rated_round_[m.flow] == allocation_rounds_) continue;
          rated_round_[m.flow] = allocation_rounds_;
          set_rate(m.flow, equal_share_rate(m.flow), now);
        }
      }
    }
    for (std::uint32_t s : marked_slots_) slot_marked_[s] = 0;
    marked_slots_.clear();
    return;
  }
  if (use_incremental()) {
    // Re-solve only the components dirtied since the last event; every
    // other active flow keeps its previous (still-valid) rate.
    inc_.solve();
    for (std::uint32_t idx : active_) {
      if (idx != kTombstone) {
        set_rate(idx, inc_.rate(flows_[idx].alloc_slot), now);
      }
    }
    return;
  }
  // Feed the active flows' pinned links straight into the solver as
  // spans — no per-event Demand materialization — and reuse its scratch
  // arrays (and rates_) across events.
  solver_.begin(*net_, live_count_);
  for (std::uint32_t idx : active_) {
    if (idx != kTombstone) solver_.add_demand(flows_[idx].dlinks);
  }
  solver_.solve_into(rates_);
  std::size_t i = 0;
  for (std::uint32_t idx : active_) {
    if (idx != kTombstone) set_rate(idx, rates_[i++], now);
  }
}

void FluidSimulator::complete_drained(Seconds now) {
  due_.clear();
  while (!drain_heap_.empty() && drain_heap_.top_key() <= now) {
    const std::uint32_t idx = drain_heap_.top();
    const double remaining = remaining_at(idx, now);
    if (remaining <= cfg_.completion_epsilon_bytes ||
        remaining / cfg_.unit_bytes_per_second <=
            eps_units_ + rate_[idx] * kTimeEps) {
      drain_heap_.erase(idx);
      due_.push_back(idx);
    } else {
      // Keyed inside the rounding margin: look again at the next event.
      drain_heap_.set(idx, std::nextafter(
                               now, std::numeric_limits<double>::infinity()));
    }
  }
  // In active-set order, as one pass over the active set would finish
  // them: the order of the slot-list and allocator updates follows it.
  std::sort(due_.begin(), due_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return active_pos_[a] < active_pos_[b];
            });
  for (std::uint32_t idx : due_) finish_flow(idx, now);
  compact_active();
}

void FluidSimulator::fill_directed_utilization(std::vector<double>& used) const {
  used.assign(net_->link_count() * 2, 0.0);
  for (std::uint32_t idx : active_) {
    if (idx == kTombstone) continue;
    for (net::DirectedLink dl : flows_[idx].dlinks) {
      used[slot_of(dl)] += rate_[idx];
    }
  }
}

double FluidSimulator::link_utilization_max() const {
  std::vector<double> used;
  fill_directed_utilization(used);
  double best = 0.0;
  for (std::size_t slot = 0; slot < used.size(); ++slot) {
    if (used[slot] <= 0.0) continue;
    const double cap = net_->link(net::LinkId(static_cast<std::uint32_t>(slot / 2))).capacity;
    if (cap > 0.0) best = std::max(best, used[slot] / cap);
  }
  return best;
}

void FluidSimulator::handle_topology_change(Seconds now) {
  // Handle active flows whose pinned path died: re-route them (rerouting
  // architectures) or stall them on their pinned path (blackhole model —
  // they resume when the path comes back, e.g. after a ShareBackup
  // repair). A rerouted flow keeps its place in the active set.
  for (std::size_t pos = 0; pos < active_.size(); ++pos) {
    const std::uint32_t idx = active_[pos];
    if (idx == kTombstone) continue;
    FlowState& f = flows_[idx];
    if (net::is_live_path(*net_, f.path)) continue;
    settle(idx, now);
    detach_links(idx);
    f.active = false;
    rates_dirty_ = true;
    if (cfg_.reroute_on_path_failure) {
      try_route(idx, now, /*is_reroute=*/true);
    } else {
      f.stalled = true;  // keeps f.path pinned
    }
    if (!f.active) deactivate(idx);
  }
  // Give stalled flows (including freshly stalled ones) a chance: paths
  // may have come back.
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    FlowState& f = flows_[idx];
    if (!f.stalled || f.done) continue;
    if (f.spec.start > now + kTimeEps) continue;  // not yet arrived
    if (!cfg_.reroute_on_path_failure && !f.path.empty()) {
      // Path-pinned recovery: resume on the original path when live.
      if (net::is_live_path(*net_, f.path)) {
        f.dlinks = f.path.directed_links(*net_);
        attach_links(idx);
        f.stalled = false;
        f.active = true;
        activate(idx, now);
      }
      continue;
    }
    try_route(idx, now, /*is_reroute=*/true);
    if (f.active) activate(idx, now);
  }
  compact_active();
}

std::vector<FlowResult> FluidSimulator::run() {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  ran_ = true;
  // Bind here, not in the constructor: the capacity snapshot must
  // baseline whatever direct mutations the caller made before run();
  // every later mutation arrives through an action, which re-diffs.
  if (use_incremental()) inc_.bind(*net_);
  // The per-flow arrays are sized once. The heaps and active_ hold only
  // active flows and grow to their peak; reserving them for every flow
  // raised fig1c's peak RSS.
  const std::size_t n = flows_.size();
  since_.assign(n, 0.0);
  active_pos_.assign(n, 0);
  finish_heap_.reset(n);
  drain_heap_.reset(n);

  // Arrival order by start time (stable on ties by id for determinism).
  std::vector<std::size_t> arrivals(flows_.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (flows_[a].spec.start != flows_[b].spec.start)
                       return flows_[a].spec.start < flows_[b].spec.start;
                     return flows_[a].spec.id < flows_[b].spec.id;
                   });
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const Action& a, const Action& b) {
                     return a.when < b.when;
                   });

  std::size_t next_arrival = 0;
  std::size_t next_action = 0;
  Seconds now = 0.0;
  if (telemetry_ != nullptr) telemetry_->start(0.0);

  while (true) {
    bool have_work = live_count_ > 0 || next_arrival < arrivals.size() ||
                     next_action < actions_.size();
    if (!have_work || now >= cfg_.horizon) break;

    // Next event horizon.
    Seconds t_next = cfg_.horizon;
    if (next_arrival < arrivals.size()) {
      t_next = std::min(t_next, flows_[arrivals[next_arrival]].spec.start);
    }
    if (next_action < actions_.size()) {
      t_next = std::min(t_next, actions_[next_action].when);
    }
    ++events_processed_;
    if (live_count_ > 0) {
      if (rates_dirty_) {
        recompute_rates(now);
      } else {
        ++recompute_skips_;
      }
      if (!finish_heap_.empty()) {
        t_next = std::min(t_next, finish_heap_.top_key());
      }
    }
    SBK_ASSERT_MSG(t_next >= now - kTimeEps, "time must move forward");
    t_next = std::max(t_next, now);

    // Sample cadence boundaries falling inside (now, t_next] while the
    // rates that governed that interval are still in place.
    if (telemetry_ != nullptr) telemetry_->advance_to(t_next);

    // 1) Complete the flows drained by t_next. This runs before the
    // horizon check: a flow whose remaining volume drains exactly at the
    // horizon has completed at that instant and must not be reported
    // unfinished.
    now = t_next;
    complete_drained(now);
    if (now >= cfg_.horizon) break;

    // 2) arrivals due now
    while (next_arrival < arrivals.size() &&
           flows_[arrivals[next_arrival]].spec.start <= now + kTimeEps) {
      admit(arrivals[next_arrival], now);
      ++next_arrival;
    }

    // 3) topology actions due now
    bool topo_changed = false;
    const std::uint64_t topo_before = net_->topology_version();
    while (next_action < actions_.size() &&
           actions_[next_action].when <= now + kTimeEps) {
      actions_[next_action].fn(*net_);
      ++next_action;
      topo_changed = true;
      if (recorder_ != nullptr) {
        recorder_->instant("fluidsim", "topology_action", now);
      }
    }
    if (topo_changed) {
      // Capacity edits and failure flips change allocations even when no
      // flow's path membership moves; the epoch counter catches exactly
      // the actions that mutated something (no-op actions stay clean).
      if (net_->topology_version() != topo_before) {
        rates_dirty_ = true;
        rerate_all_ = true;  // capacities may have moved under any flow
        if (use_incremental()) inc_.note_topology_change();
      }
      handle_topology_change(now);
    }
  }

  // Unfinished flows report their bytes left at the horizon.
  for (std::uint32_t idx : active_) {
    if (idx != kTombstone) settle(idx, now);
  }

  // Collect results.
  std::vector<FlowResult> results;
  results.reserve(flows_.size());
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    const FlowState& f = flows_[idx];
    FlowResult r;
    r.spec = f.spec;
    r.path_hops = f.path.hops();
    r.reroutes = f.reroutes;
    if (f.done) {
      r.outcome = FlowOutcome::kCompleted;
      r.finish = f.finish;
      r.bytes_remaining = 0.0;
    } else if (f.stalled) {
      r.outcome = FlowOutcome::kStalledForever;
      r.bytes_remaining = remaining_[idx];
    } else {
      r.outcome = FlowOutcome::kUnfinished;
      r.bytes_remaining = remaining_[idx];
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const FlowResult& a, const FlowResult& b) {
              return a.spec.id < b.spec.id;
            });

  if (metrics_ != nullptr) {
    // One flush per run keeps the event loop identical whether or not a
    // registry is attached (the perf-regression gate on the coflow
    // benchmark depends on this).
    std::size_t reroutes = 0, completed = 0, stalled = 0;
    for (const FlowResult& r : results) {
      reroutes += r.reroutes;
      if (r.outcome == FlowOutcome::kCompleted) ++completed;
      if (r.outcome == FlowOutcome::kStalledForever) ++stalled;
    }
    metrics_->counter("fluidsim.events").add(events_processed_);
    metrics_->counter("fluidsim.allocation_rounds").add(allocation_rounds_);
    metrics_->counter("fluidsim.recompute_skips").add(recompute_skips_);
    metrics_->counter("fluidsim.reroutes").add(reroutes);
    metrics_->counter("fluidsim.flows_completed").add(completed);
    metrics_->counter("fluidsim.flows_stalled").add(stalled);
  }
  return results;
}

}  // namespace sbk::sim
