// Generic discrete-event queue used by the control-plane simulation.
// (The fluid flow simulator keeps its own specialized loop; see
// fluid_sim.hpp.) Events at equal timestamps fire in insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace sbk::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at` (must not precede now()).
  void schedule_at(Seconds at, Callback fn);
  /// Schedules `fn` `delay` seconds from now.
  void schedule_in(Seconds delay, Callback fn);

  [[nodiscard]] Seconds now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Runs the earliest event; returns false if the queue is empty.
  bool step();
  /// Runs events until the queue drains or `until` is passed (events with
  /// time > until stay queued; now() advances to at most `until`).
  void run_until(Seconds until);
  /// Drains the queue completely (caller must guarantee termination).
  void run();

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Arena slot: a pending callback, linked to the next event of its run
  /// (or, while free, to the next free slot).
  struct Slot {
    Callback fn;
    std::uint32_t next = kNil;
  };

  /// A FIFO run of events sharing one timestamp. Run invariant: events
  /// get increasing sequence numbers, and a run accepts appends only
  /// while it is the newest run, so every run is a contiguous slice of
  /// the insertion order. Tie order: two runs at equal times hold
  /// disjoint slices, so every event of one precedes every event of the
  /// other in seq exactly when its first_seq is smaller. Firing the runs
  /// in (time, first_seq) order, each front to back, is therefore
  /// exactly the per-event (time, seq) order.
  struct Run {
    Seconds time = 0.0;
    std::uint64_t first_seq = 0;
    std::uint32_t head = kNil;  ///< next event to fire; kNil = drained
    std::uint32_t tail = kNil;  ///< last event, where appends link in
  };
  struct Later {
    bool operator()(const Run& a, const Run& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.first_seq > b.first_seq;
    }
  };

  /// The run holding the earliest pending event; requires !empty().
  Run& next_run() noexcept;

  // A schedule_at at the open run's exact timestamp (bit for bit, so a
  // -0.0 never joins a 0.0 run and now() reports each event's own time)
  // appends to it; any other timestamp seals the open run into `sealed_`
  // and opens a new one. The open run's first_seq exceeds every sealed
  // run's, so on a time tie the sealed run fires first. For periodic
  // probing — hundreds of events per timestamp, each scheduling its
  // successor one interval later — a step costs O(1) amortized, where a
  // heap of single events would sift through all of them.
  Run open_;
  std::vector<Run> sealed_;  ///< min-heap under Later; no drained runs
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNil;  ///< head of the free-slot list
  std::size_t pending_ = 0;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sbk::sim
