// Packet-level network simulator — the class of simulator the paper's
// §2.2 failure study actually runs ("we run the coflow trace ... on
// packet-level simulators of the fat-tree and F10 networks").
//
// Model:
//   * store-and-forward output-queued switches over the same
//     net::Network; each directed link has a serialization rate
//     (capacity x unit bytes/s), a fixed propagation delay, and a
//     drop-tail FIFO whose occupancy is implied by the link's
//     work-conserving busy horizon;
//   * source routing: each flow is pinned to a path obtained from a
//     routing::Router, re-queried after timeouts (modeling rerouting
//     convergence);
//   * a TCP-Reno-like transport per flow: slow start, AIMD congestion
//     avoidance, triple-duplicate-ACK fast retransmit, and RTO with
//     exponential backoff and a configurable floor. The RTO floor is
//     what turns transient congestion and blackholes into the
//     orders-of-magnitude CCT inflation the paper reports — an effect
//     fluid rate-sharing models structurally cannot reproduce (see
//     sim::AllocationModel and the E3 ablation).
//
// The simulator reuses sim::FlowSpec / sim::FlowResult so coflow
// aggregation and the benchmark harnesses work across both engines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "routing/router.hpp"
#include "sim/event_queue.hpp"
#include "sim/flow.hpp"
#include "util/time.hpp"

namespace sbk::pktsim {

struct PktSimConfig {
  /// Bytes per second carried by one capacity unit (1 unit = 1 Gbps).
  double unit_bytes_per_second = 125e6;
  /// Per-hop propagation delay.
  Seconds propagation_delay = microseconds(1);
  /// Drop-tail queue capacity per directed link, in bytes (~100 MTU).
  std::size_t queue_capacity_bytes = 150000;
  /// TCP segment payload / header sizes.
  int mss_bytes = 1460;
  int header_bytes = 40;
  /// Initial window and RTO floor (the classic 200 ms minimum RTO is the
  /// tail-latency villain of data center transport; set lower to model
  /// DC-tuned stacks).
  double initial_cwnd = 10.0;
  Seconds min_rto = milliseconds(200);
  Seconds max_rto = 10.0;
  /// DCTCP-style ECN: packets are marked when their link's backlog
  /// exceeds `ecn_threshold_bytes` at enqueue; receivers echo marks in
  /// ACKs; senders keep an EWMA of the marked fraction (gain `dctcp_g`)
  /// and scale cwnd by (1 - alpha/2) once per window of marked feedback.
  /// Keeps queues shallow and largely avoids drops/timeouts under
  /// congestion (but cannot help with blackholes — see the tests).
  bool ecn_enabled = false;
  std::size_t ecn_threshold_bytes = 30000;  ///< ~20 MTU
  double dctcp_g = 1.0 / 16.0;
  /// Stop simulating at this time; unfinished flows reported as such.
  Seconds horizon = 1e18;
};

/// Aggregate transport/network counters.
struct PktSimStats {
  std::size_t data_packets_sent = 0;
  std::size_t acks_sent = 0;
  std::size_t drops_queue_overflow = 0;
  std::size_t drops_dead_element = 0;
  std::size_t fast_retransmits = 0;
  std::size_t timeouts = 0;
  std::size_t reroutes = 0;
  std::size_t ecn_marks = 0;
  std::size_t ecn_window_cuts = 0;
};

class PacketSimulator {
 public:
  PacketSimulator(net::Network& net, routing::Router& router,
                  PktSimConfig cfg);
  ~PacketSimulator();

  PacketSimulator(const PacketSimulator&) = delete;
  PacketSimulator& operator=(const PacketSimulator&) = delete;

  void add_flow(const sim::FlowSpec& flow);
  void add_flows(std::span<const sim::FlowSpec> flows);

  /// Schedules a topology mutation (failure/repair) at `when`. Packets
  /// crossing a dead element are dropped; transports recover via
  /// retransmission and re-routing.
  void at(Seconds when, std::function<void(net::Network&)> action);

  /// Runs to completion (or the horizon); results ordered by flow id.
  [[nodiscard]] std::vector<sim::FlowResult> run();

  [[nodiscard]] const PktSimStats& stats() const noexcept { return stats_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  PktSimStats stats_;
};

}  // namespace sbk::pktsim
