#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace sbk::sim {

namespace {
bool same_time(Seconds a, Seconds b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

void EventQueue::schedule_at(Seconds at, Callback fn) {
  SBK_EXPECTS_MSG(at >= now_, "cannot schedule into the past");
  SBK_EXPECTS(fn != nullptr);
  const bool append = open_.head != kNil && same_time(open_.time, at);
  if (!append && open_.head != kNil) {
    sealed_.push_back(open_);
    std::push_heap(sealed_.begin(), sealed_.end(), Later{});
    open_.head = kNil;
  }
  std::uint32_t slot = free_;
  if (slot == kNil) {
    SBK_EXPECTS_MSG(slots_.size() < kNil, "event arena full");
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  } else {
    free_ = slots_[slot].next;
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.next = kNil;
  if (append) {
    slots_[open_.tail].next = slot;
    open_.tail = slot;
  } else {
    open_ = Run{at, next_seq_, slot, slot};
  }
  ++next_seq_;
  ++pending_;
}

void EventQueue::schedule_in(Seconds delay, Callback fn) {
  SBK_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

EventQueue::Run& EventQueue::next_run() noexcept {
  if (open_.head == kNil) return sealed_.front();
  if (sealed_.empty() || open_.time < sealed_.front().time) return open_;
  return sealed_.front();
}

bool EventQueue::step() {
  if (pending_ == 0) return false;
  Run& run = next_run();
  const std::uint32_t slot = run.head;
  Slot& s = slots_[slot];
  Callback fn = std::move(s.fn);
  run.head = s.next;
  s.next = free_;
  free_ = slot;
  --pending_;
  now_ = run.time;
  if (run.head == kNil && &run != &open_) {
    std::pop_heap(sealed_.begin(), sealed_.end(), Later{});
    sealed_.pop_back();
  }
  fn();
  return true;
}

void EventQueue::run_until(Seconds until) {
  while (pending_ != 0 && next_run().time <= until) step();
  now_ = std::max(now_, until);
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace sbk::sim
