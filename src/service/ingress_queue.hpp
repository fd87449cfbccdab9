// Bounded ingress queue of the controller service, modeled in virtual
// time. This is the deterministic heart of src/service: every admission,
// overflow drop, backpressure transition, batch boundary, and
// decision-latency sample is a pure function of the message schedule
// (the (at, seq)-sorted arrival sequence) and the IngressConfig — never
// of wall-clock scheduling. The threaded ControllerService feeds this
// model a sorted arrival prefix at a wall-clock pace of its choosing;
// the model's outputs are bit-identical no matter how that prefix was
// produced (1 producer thread or 8, paced or flat out).
//
// Queueing semantics (all times virtual):
//   * The queue holds at most `capacity` messages; an arrival that finds
//     it full is dropped and counted (overflow is explicit, never
//     silent).
//   * One logical server drains the queue in FIFO batches of up to
//     `max_batch` messages. A batch can only contain messages that had
//     arrived by its start instant, starts as soon as the server is free
//     and work is waiting, and occupies the server for
//     batch_overhead + n * per_message_cost.
//   * Backpressure asserts when occupancy reaches `high_water` and
//     releases when it falls back to `low_water` (hysteresis). While
//     asserted, healthy probe results — pure telemetry — are shed at
//     admission; failure reports and operator commands are never shed,
//     only overflow-dropped at the hard bound.
//   * A message's decision latency is batch-completion minus arrival:
//     queue wait plus (batched) service time.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "service/message.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"
#include "util/time.hpp"

namespace sbk::service {

struct IngressConfig {
  /// Hard bound on queued messages; arrivals beyond it are dropped.
  std::size_t capacity = 4096;
  /// Backpressure asserts at >= high_water, releases at <= low_water.
  std::size_t high_water = 3072;
  std::size_t low_water = 1536;
  /// Messages dispatched per batch at most.
  std::size_t max_batch = 64;
  /// Virtual cost of dispatching one batch (scheduling, one table sync).
  Seconds batch_overhead = microseconds(20);
  /// Virtual cost per message inside a batch (the controller decision).
  Seconds per_message_cost = microseconds(50);
};

/// Everything the model counted. All fields are deterministic.
struct IngressStats {
  std::uint64_t offered = 0;           ///< arrivals presented
  std::uint64_t accepted = 0;          ///< admitted into the queue
  std::uint64_t dropped_overflow = 0;  ///< arrivals that found it full
  std::uint64_t shed_probes = 0;       ///< healthy probes shed under backpressure
  std::uint64_t processed = 0;         ///< dispatched inside a batch
  std::uint64_t batches = 0;
  std::size_t peak_depth = 0;          ///< max occupancy ever seen
  std::size_t max_batch_seen = 0;
  std::uint64_t backpressure_engaged = 0;  ///< assert edges
  /// Virtual seconds spent with backpressure asserted.
  Seconds backpressure_time = 0.0;
  /// Server-busy virtual end of the last dispatched batch.
  Seconds last_batch_end = 0.0;
};

class IngressQueue {
 public:
  /// Called once per dispatched batch with the messages in admission
  /// order and the batch's virtual service interval [start, end].
  using BatchFn = std::function<void(const std::vector<ServiceMessage>&,
                                     Seconds start, Seconds end)>;
  /// Called per admission decision that did NOT accept (overflow/shed),
  /// with the rejected message; optional.
  using RejectFn = std::function<void(const ServiceMessage&, bool overflow)>;
  /// Called on every backpressure edge with the virtual transition time;
  /// optional.
  using BackpressureFn = std::function<void(bool asserted, Seconds at)>;

  explicit IngressQueue(IngressConfig config, BatchFn dispatch)
      : config_(config), dispatch_(std::move(dispatch)),
        queue_(config.capacity) {
    SBK_EXPECTS(config_.capacity >= 1);
    SBK_EXPECTS(config_.high_water >= 1 &&
                config_.high_water <= config_.capacity);
    SBK_EXPECTS(config_.low_water < config_.high_water);
    SBK_EXPECTS(config_.max_batch >= 1);
    SBK_EXPECTS(config_.batch_overhead >= 0.0);
    SBK_EXPECTS(config_.per_message_cost >= 0.0);
    SBK_EXPECTS(dispatch_ != nullptr);
  }

  void set_reject_hook(RejectFn hook) { reject_ = std::move(hook); }
  void set_backpressure_hook(BackpressureFn hook) {
    on_backpressure_ = std::move(hook);
  }

  /// Presents one arrival. Arrival keys must be nondecreasing in
  /// (at, seq) across calls — the caller owns the sort. Batches whose
  /// start instant precedes this arrival are dispatched first.
  void offer(const ServiceMessage& msg) {
    SBK_EXPECTS_MSG(
        last_at_ < msg.at || (last_at_ == msg.at && last_seq_ < msg.seq) ||
            stats_.offered == 0,
        "IngressQueue::offer: arrivals must be sorted by (at, seq)");
    last_at_ = msg.at;
    last_seq_ = msg.seq;
    ++stats_.offered;
    advance_to(msg.at);
    if (backpressure_ && msg.kind == MessageKind::kProbeResult &&
        msg.healthy) {
      ++stats_.shed_probes;
      if (reject_) reject_(msg, /*overflow=*/false);
      return;
    }
    if (queue_.size() >= config_.capacity) {
      ++stats_.dropped_overflow;
      if (reject_) reject_(msg, /*overflow=*/true);
      return;
    }
    queue_.push_back(msg);
    ++stats_.accepted;
    stats_.peak_depth = std::max(stats_.peak_depth, queue_.size());
    update_backpressure(msg.at);
  }

  /// Dispatches every remaining queued message (shutdown drain). After
  /// drain() returns, processed == accepted.
  void drain() { advance_to(std::numeric_limits<Seconds>::infinity()); }

  [[nodiscard]] const IngressStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t depth() const noexcept { return queue_.size(); }
  [[nodiscard]] bool backpressure() const noexcept { return backpressure_; }

 private:
  /// Dispatches every batch whose start instant is <= t. The queue is
  /// FIFO in admission order, and arrivals are offered in sorted order,
  /// so a batch formed at start s contains exactly the longest prefix of
  /// messages with at <= s, capped at max_batch.
  void advance_to(Seconds t) {
    while (!queue_.empty()) {
      const Seconds start = std::max(busy_until_, queue_.front().at);
      if (start > t) break;
      batch_.clear();
      while (!queue_.empty() && batch_.size() < config_.max_batch &&
             queue_.front().at <= start) {
        batch_.push_back(queue_.front());
        queue_.pop_front();
      }
      SBK_ASSERT(!batch_.empty());
      const Seconds end =
          start + config_.batch_overhead +
          static_cast<double>(batch_.size()) * config_.per_message_cost;
      busy_until_ = end;
      ++stats_.batches;
      stats_.processed += batch_.size();
      stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch_.size());
      stats_.last_batch_end = end;
      dispatch_(batch_, start, end);
      update_backpressure(end);
    }
  }

  void update_backpressure(Seconds now) {
    if (!backpressure_ && queue_.size() >= config_.high_water) {
      backpressure_ = true;
      backpressure_since_ = now;
      ++stats_.backpressure_engaged;
      if (on_backpressure_) on_backpressure_(true, now);
    } else if (backpressure_ && queue_.size() <= config_.low_water) {
      backpressure_ = false;
      stats_.backpressure_time += now - backpressure_since_;
      if (on_backpressure_) on_backpressure_(false, now);
    }
  }

  IngressConfig config_;
  BatchFn dispatch_;
  RejectFn reject_;
  BackpressureFn on_backpressure_;
  /// Doubles as occupancy peaks grow, never beyond config_.capacity.
  util::RingBuffer<ServiceMessage> queue_;
  std::vector<ServiceMessage> batch_;  ///< reused dispatch scratch
  Seconds busy_until_ = 0.0;
  bool backpressure_ = false;
  Seconds backpressure_since_ = 0.0;
  Seconds last_at_ = -std::numeric_limits<Seconds>::infinity();
  std::uint64_t last_seq_ = 0;
  IngressStats stats_;
};

}  // namespace sbk::service
