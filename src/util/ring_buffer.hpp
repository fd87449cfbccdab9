// FIFO queue over one contiguous circular buffer. It doubles when full
// (never beyond `max_slots`) and never shrinks, so once a queue has
// grown to its workload's peak, pushes and pops allocate nothing.
// std::deque, by contrast, allocates and frees one block every few
// hundred bytes of throughput.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace sbk::util {

/// T must be default-constructible and movable; slots outside
/// [front, back] hold moved-from or default values.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(
      std::size_t max_slots = std::numeric_limits<std::size_t>::max())
      : max_slots_(max_slots) {
    SBK_EXPECTS(max_slots >= 1);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The i-th element from the front.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return slots_[wrap(head_ + i)];
  }
  [[nodiscard]] T& front() noexcept { return slots_[head_]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = value;
    ++size_;
  }
  void pop_front() noexcept {
    head_ = wrap(head_ + 1);
    --size_;
  }
  /// Empties the queue and keeps its slots.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  void grow() {
    SBK_EXPECTS_MSG(size_ < max_slots_, "RingBuffer is at its slot bound");
    const std::size_t cap =
        std::min(std::max<std::size_t>(2 * slots_.size(), 8), max_slots_);
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t max_slots_;
};

}  // namespace sbk::util
