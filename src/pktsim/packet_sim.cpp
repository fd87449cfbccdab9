#include "pktsim/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "net/path.hpp"
#include "util/assert.hpp"

namespace sbk::pktsim {

namespace {

using net::DirectedLink;
using net::Network;
using sim::FlowOutcome;
using sim::FlowResult;
using sim::FlowSpec;

using PathVec = std::vector<DirectedLink>;
using PathRef = std::shared_ptr<const PathVec>;

/// Dense slot for a directed link.
std::size_t slot_of(DirectedLink dl) {
  return dl.link.index() * 2 + (dl.forward ? 0 : 1);
}

struct Packet {
  std::size_t flow = 0;
  std::int64_t seq = 0;     ///< data: segment index; ack: cumulative seq
  bool is_ack = false;
  int size_bytes = 0;
  std::size_t hop = 0;      ///< index into `path`
  PathRef path;             ///< forward (data) or reverse (ack) links
  Seconds sent_at = 0.0;    ///< data only: for RTT sampling (first tx)
  bool retransmitted = false;
  bool ecn_marked = false;  ///< congestion-experienced (data) / echo (ack)
};

}  // namespace

struct PacketSimulator::Impl {
  Impl(Network& n, routing::Router& r, PktSimConfig c, PktSimStats& s)
      : net(&n), router(&r), cfg(c), stats(&s),
        busy_until(n.link_count() * 2, 0.0) {}

  Network* net;
  routing::Router* router;
  PktSimConfig cfg;
  PktSimStats* stats;
  sim::EventQueue queue;
  std::vector<double> busy_until;  ///< per directed link slot

  struct Flow {
    FlowSpec spec;
    PathRef fwd;
    PathRef rev;
    std::int64_t total_segments = 0;
    // Sender state.
    std::int64_t next_seq = 0;
    std::int64_t highest_acked = -1;
    double cwnd = 1.0;
    double ssthresh = 1e9;
    int dup_acks = 0;
    /// NewReno-style recovery: while highest_acked < recover_until, each
    /// partial ACK immediately retransmits the next hole (without this,
    /// every loss in a multi-loss window costs a full RTO).
    std::int64_t recover_until = -1;
    std::uint64_t rto_generation = 0;
    bool rto_armed = false;
    Seconds rto = 0.0;
    Seconds srtt = -1.0;
    /// RTT sampling (Karn): time one un-retransmitted segment at a time.
    std::int64_t timed_seq = -1;
    Seconds timed_sent = 0.0;
    /// DCTCP: EWMA of marked-ACK fraction and once-per-window cut gate.
    double dctcp_alpha = 0.0;
    std::int64_t ecn_cut_until = -1;  ///< no cut until acks pass this seq
    /// Receiver side: was the last delivered data packet CE-marked?
    bool echo_ce = false;
    std::size_t timeouts = 0;
    std::size_t reroutes = 0;
    // Receiver state.
    std::int64_t expected = 0;  ///< next in-order segment awaited
    std::set<std::int64_t> out_of_order;
    // Lifecycle.
    bool started = false;
    bool done = false;
    Seconds finish = 0.0;
  };
  std::vector<Flow> flows;
  std::vector<std::pair<Seconds, std::function<void(Network&)>>> actions;
  /// Latest scheduled topology change; after it has passed, a flow that
  /// still cannot resolve a path is permanently stalled (stops retrying,
  /// so the run terminates).
  Seconds last_action_time = -1.0;

  [[nodiscard]] double link_rate(DirectedLink dl) const {
    return net->link(dl.link).capacity * cfg.unit_bytes_per_second;
  }

  // --- routing ------------------------------------------------------------

  /// (Re)resolves a flow's path; returns false if unreachable now.
  bool resolve_path(Flow& f) {
    net::Path p = router->route(*net, f.spec.src, f.spec.dst, f.spec.id,
                                nullptr);
    if (p.empty()) return false;
    auto fwd = std::make_shared<PathVec>(p.directed_links(*net));
    auto rev = std::make_shared<PathVec>();
    rev->reserve(fwd->size());
    for (auto it = fwd->rbegin(); it != fwd->rend(); ++it) {
      rev->push_back(DirectedLink{it->link, !it->forward});
    }
    f.fwd = std::move(fwd);
    f.rev = std::move(rev);
    return true;
  }

  // --- link layer -----------------------------------------------------------

  /// Enqueues `pkt` on its current hop's link; drops on overflow or dead
  /// elements. FIFO occupancy is implied by the busy horizon.
  void transmit(Packet pkt) {
    DirectedLink dl = (*pkt.path)[pkt.hop];
    if (net->link_failed(dl.link) || net->node_failed(net->tail(dl))) {
      ++stats->drops_dead_element;
      return;
    }
    double rate = link_rate(dl);
    Seconds now = queue.now();
    std::size_t s = slot_of(dl);
    double backlog_bytes = std::max(0.0, (busy_until[s] - now) * rate);
    if (backlog_bytes + pkt.size_bytes >
        static_cast<double>(cfg.queue_capacity_bytes)) {
      ++stats->drops_queue_overflow;
      return;
    }
    if (cfg.ecn_enabled && !pkt.is_ack &&
        backlog_bytes > static_cast<double>(cfg.ecn_threshold_bytes)) {
      if (!pkt.ecn_marked) ++stats->ecn_marks;
      pkt.ecn_marked = true;
    }
    Seconds depart = std::max(busy_until[s], now) + pkt.size_bytes / rate;
    busy_until[s] = depart;
    Seconds arrive = depart + cfg.propagation_delay;
    queue.schedule_at(arrive, [this, pkt = std::move(pkt)]() mutable {
      receive(std::move(pkt));
    });
  }

  /// Packet arrives at the head node of its current hop.
  void receive(Packet pkt) {
    DirectedLink dl = (*pkt.path)[pkt.hop];
    net::NodeId node = net->head(dl);
    if (net->node_failed(node) || net->link_failed(dl.link)) {
      ++stats->drops_dead_element;
      return;
    }
    if (pkt.hop + 1 < pkt.path->size()) {
      ++pkt.hop;
      transmit(std::move(pkt));
      return;
    }
    // Delivered to the end host.
    Flow& f = flows[pkt.flow];
    if (pkt.is_ack) {
      on_ack(f, pkt.seq, pkt.ecn_marked);
    } else {
      on_data(f, pkt);
    }
  }

  // --- receiver -------------------------------------------------------------

  void on_data(Flow& f, const Packet& pkt) {
    f.echo_ce = pkt.ecn_marked;
    if (pkt.seq == f.expected) {
      ++f.expected;
      while (!f.out_of_order.empty() &&
             *f.out_of_order.begin() == f.expected) {
        f.out_of_order.erase(f.out_of_order.begin());
        ++f.expected;
      }
    } else if (pkt.seq > f.expected) {
      f.out_of_order.insert(pkt.seq);
    }  // else: duplicate of already-delivered data
    send_ack(f);
  }

  void send_ack(Flow& f) {
    if (f.done || !f.rev) return;
    Packet ack;
    ack.flow = static_cast<std::size_t>(&f - flows.data());
    ack.seq = f.expected - 1;  // cumulative: highest in-order segment
    ack.is_ack = true;
    ack.size_bytes = cfg.header_bytes;
    ack.ecn_marked = f.echo_ce;
    ack.hop = 0;
    ack.path = f.rev;
    ++stats->acks_sent;
    transmit(std::move(ack));
  }

  // --- sender ---------------------------------------------------------------

  void send_segment(Flow& f, std::int64_t seq, bool retx) {
    Packet pkt;
    pkt.flow = static_cast<std::size_t>(&f - flows.data());
    pkt.seq = seq;
    pkt.size_bytes = cfg.mss_bytes + cfg.header_bytes;
    pkt.hop = 0;
    pkt.path = f.fwd;
    pkt.sent_at = queue.now();
    pkt.retransmitted = retx;
    ++stats->data_packets_sent;
    if (retx) {
      // Karn's rule: retransmission poisons any in-flight RTT sample.
      f.timed_seq = -1;
    } else if (f.timed_seq < 0) {
      f.timed_seq = seq;
      f.timed_sent = queue.now();
    }
    arm_rto(f);
    transmit(std::move(pkt));
  }

  void send_window(Flow& f) {
    while (!f.done && f.next_seq < f.total_segments &&
           static_cast<double>(f.next_seq - f.highest_acked - 1) < f.cwnd) {
      send_segment(f, f.next_seq, /*retx=*/false);
      ++f.next_seq;
    }
  }

  void on_ack(Flow& f, std::int64_t ack_seq, bool ce_echo = false) {
    if (f.done) return;
    if (cfg.ecn_enabled) {
      // DCTCP: EWMA of the marked fraction; cut at most once per window.
      f.dctcp_alpha = (1.0 - cfg.dctcp_g) * f.dctcp_alpha +
                      cfg.dctcp_g * (ce_echo ? 1.0 : 0.0);
      if (ce_echo && ack_seq > f.ecn_cut_until) {
        f.cwnd = std::max(2.0, f.cwnd * (1.0 - f.dctcp_alpha / 2.0));
        f.ssthresh = f.cwnd;
        f.ecn_cut_until = f.next_seq - 1;
        ++stats->ecn_window_cuts;
      }
    }
    if (ack_seq > f.highest_acked) {
      // Fresh cumulative ACK.
      std::int64_t newly = ack_seq - f.highest_acked;
      f.highest_acked = ack_seq;
      f.dup_acks = 0;
      if (f.timed_seq >= 0 && ack_seq >= f.timed_seq) {
        Seconds sample = queue.now() - f.timed_sent;
        f.srtt = f.srtt < 0.0 ? sample : 0.875 * f.srtt + 0.125 * sample;
        f.timed_seq = -1;
      }
      if (f.highest_acked >= f.total_segments - 1) {
        f.done = true;
        f.finish = queue.now();
        disarm_rto(f);
        return;
      }
      // Restart the retransmission timer for the next unacked segment.
      disarm_rto(f);
      if (f.highest_acked < f.recover_until) {
        // Partial ACK during recovery: retransmit the next hole now and
        // hold the window steady.
        send_segment(f, f.highest_acked + 1, /*retx=*/true);
        return;
      }
      f.recover_until = -1;
      // Congestion window growth.
      for (std::int64_t i = 0; i < newly; ++i) {
        if (f.cwnd < f.ssthresh) {
          f.cwnd += 1.0;  // slow start
        } else {
          f.cwnd += 1.0 / f.cwnd;  // congestion avoidance
        }
      }
      arm_rto(f);
      send_window(f);
      return;
    }
    // Duplicate ACK.
    ++f.dup_acks;
    if (f.dup_acks == 3) {
      ++stats->fast_retransmits;
      f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
      f.cwnd = f.ssthresh;
      f.recover_until = f.next_seq - 1;
      send_segment(f, f.highest_acked + 1, /*retx=*/true);
    }
  }

  // --- retransmission timer ---------------------------------------------------

  Seconds current_rto(const Flow& f) const {
    if (f.rto > 0.0) return f.rto;
    Seconds base = f.srtt > 0.0 ? 2.0 * f.srtt : cfg.min_rto;
    return std::max(base, cfg.min_rto);
  }

  void arm_rto(Flow& f) {
    if (f.rto_armed || f.done) return;
    f.rto_armed = true;
    std::uint64_t gen = ++f.rto_generation;
    std::size_t idx = static_cast<std::size_t>(&f - flows.data());
    queue.schedule_in(current_rto(f), [this, idx, gen] {
      Flow& flow = flows[idx];
      if (flow.done || flow.rto_generation != gen) return;
      flow.rto_armed = false;
      on_timeout(flow);
    });
  }

  void disarm_rto(Flow& f) {
    ++f.rto_generation;  // invalidates the pending timer
    f.rto_armed = false;
    f.rto = 0.0;  // next arm uses the fresh base RTO
  }

  void on_timeout(Flow& f) {
    ++stats->timeouts;
    ++f.timeouts;
    f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
    f.cwnd = 1.0;
    f.dup_acks = 0;
    f.recover_until = f.next_seq - 1;
    // Exponential backoff, capped.
    f.rto = std::min(current_rto(f) * 2.0, cfg.max_rto);
    // The path may be dead: ask the control plane for a fresh one. (This
    // models rerouting convergence: until routing offers a live path the
    // flow keeps backing off.)
    PathRef old = f.fwd;
    if (resolve_path(f)) {
      if (!old || *f.fwd != *old) {
        ++f.reroutes;
        ++stats->reroutes;
      }
      send_segment(f, f.highest_acked + 1, /*retx=*/true);
    } else if (queue.now() <= last_action_time) {
      arm_rto(f);  // keep backing off: the network may still heal
    } else {
      f.fwd = nullptr;  // permanently unreachable: give up
      f.rev = nullptr;
    }
  }

  // --- lifecycle ----------------------------------------------------------------

  void start_flow(std::size_t idx) {
    Flow& f = flows[idx];
    f.started = true;
    if (f.spec.src == f.spec.dst || f.total_segments == 0) {
      f.done = true;
      f.finish = queue.now();
      return;
    }
    f.cwnd = cfg.initial_cwnd;
    if (!resolve_path(f)) {
      // Unreachable at start: behave like a connect-retry loop while the
      // network may still change.
      if (queue.now() <= last_action_time) arm_rto(f);
      return;
    }
    send_window(f);
  }
};

PacketSimulator::PacketSimulator(Network& net, routing::Router& router,
                                 PktSimConfig cfg)
    : impl_(std::make_unique<Impl>(net, router, cfg, stats_)) {
  SBK_EXPECTS(cfg.unit_bytes_per_second > 0.0);
  SBK_EXPECTS(cfg.mss_bytes > 0 && cfg.header_bytes >= 0);
  SBK_EXPECTS(cfg.initial_cwnd >= 1.0);
  SBK_EXPECTS(cfg.min_rto > 0.0 && cfg.max_rto >= cfg.min_rto);
}

PacketSimulator::~PacketSimulator() = default;

void PacketSimulator::add_flow(const sim::FlowSpec& flow) {
  SBK_EXPECTS(flow.bytes >= 0.0);
  SBK_EXPECTS(flow.start >= 0.0);
  Impl::Flow f;
  f.spec = flow;
  f.total_segments = static_cast<std::int64_t>(
      std::ceil(flow.bytes / impl_->cfg.mss_bytes));
  impl_->flows.push_back(std::move(f));
}

void PacketSimulator::add_flows(std::span<const sim::FlowSpec> flows) {
  for (const auto& f : flows) add_flow(f);
}

void PacketSimulator::at(Seconds when,
                         std::function<void(net::Network&)> action) {
  SBK_EXPECTS(when >= 0.0);
  impl_->actions.emplace_back(when, std::move(action));
}

std::vector<sim::FlowResult> PacketSimulator::run() {
  Impl& im = *impl_;
  for (const auto& [when, fn] : im.actions) {
    im.last_action_time = std::max(im.last_action_time, when);
  }
  for (std::size_t i = 0; i < im.flows.size(); ++i) {
    im.queue.schedule_at(im.flows[i].spec.start,
                         [&im, i] { im.start_flow(i); });
  }
  for (auto& [when, fn] : im.actions) {
    im.queue.schedule_at(when, [&im, action = std::move(fn)] {
      action(*im.net);
    });
  }
  im.queue.run_until(im.cfg.horizon);

  std::vector<sim::FlowResult> results;
  results.reserve(im.flows.size());
  for (const Impl::Flow& f : im.flows) {
    sim::FlowResult r;
    r.spec = f.spec;
    r.path_hops = f.fwd ? f.fwd->size() : 0;
    r.reroutes = f.reroutes;
    if (f.done) {
      r.outcome = FlowOutcome::kCompleted;
      r.finish = f.finish;
    } else {
      r.outcome = f.fwd == nullptr ? FlowOutcome::kStalledForever
                                   : FlowOutcome::kUnfinished;
      r.bytes_remaining =
          std::max(0.0, f.spec.bytes -
                            static_cast<double>(f.highest_acked + 1) *
                                im.cfg.mss_bytes);
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const sim::FlowResult& a, const sim::FlowResult& b) {
              return a.spec.id < b.spec.id;
            });
  return results;
}

}  // namespace sbk::pktsim
