#include "obs/timeseries.hpp"

#include "util/assert.hpp"

namespace sbk::obs {

namespace {
// Tolerance for cadence-boundary comparisons (fluid-sim event times carry
// ~1e-12 of float drift; a boundary that lands "exactly" on an event must
// still be taken).
constexpr Seconds kTickEps = 1e-9;
}  // namespace

TelemetrySampler::TelemetrySampler(FlightRecorder& recorder, Seconds interval)
    : recorder_(&recorder), interval_(interval) {
  SBK_EXPECTS(interval > 0.0);
}

void TelemetrySampler::add_probe(std::string name, Probe probe) {
  SBK_EXPECTS(probe != nullptr);
  SBK_EXPECTS_MSG(!started_, "register probes before sampling starts");
  names_.push_back(std::move(name));
  probes_.push_back(std::move(probe));
}

void TelemetrySampler::take_sample(Seconds at) {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    recorder_->counter("telemetry", names_[i], at, probes_[i]());
  }
}

void TelemetrySampler::start(Seconds at) {
  if (!recorder_->enabled() || started_) return;
  started_ = true;
  origin_ = at;
  next_tick_ = 1;
  take_sample(at);
}

void TelemetrySampler::sample_now(Seconds at) {
  if (!recorder_->enabled()) return;
  if (!started_) {
    start(at);
    return;
  }
  take_sample(at);
  // Re-anchor the cadence past this ad-hoc sample so advance_to does not
  // immediately duplicate it.
  while (origin_ + static_cast<double>(next_tick_) * interval_ <=
         at + kTickEps) {
    ++next_tick_;
  }
}

void TelemetrySampler::advance_to(Seconds now) {
  if (!recorder_->enabled()) return;
  if (!started_) {
    start(0.0);
  }
  for (;;) {
    // Exact multiples of the cadence (origin + tick * interval): no
    // accumulated floating-point drift, so sample times are bit-stable
    // across runs and thread counts.
    const Seconds boundary =
        origin_ + static_cast<double>(next_tick_) * interval_;
    if (boundary > now + kTickEps) break;
    take_sample(boundary);
    ++next_tick_;
  }
}

}  // namespace sbk::obs
