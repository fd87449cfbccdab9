#include "faultinject/report_stream.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::faultinject {

using service::MessageKind;
using service::OperatorOp;
using service::ServiceMessage;

std::vector<ServiceMessage> build_report_stream(
    const FaultPlan& plan, const ReportStreamConfig& config) {
  SBK_EXPECTS(config.repeats >= 1);
  SBK_EXPECTS(config.resends >= 1);
  SBK_EXPECTS(config.resend_gap >= 0.0);
  SBK_EXPECTS(config.background_probes >= 0);
  SBK_EXPECTS(config.time_scale > 0.0);

  const Seconds horizon = plan.config.horizon;
  const Seconds spacing =
      config.repeat_spacing > 0.0 ? config.repeat_spacing : horizon;
  SBK_EXPECTS_MSG(spacing > 0.0, "repeat spacing must be positive");

  std::vector<ServiceMessage> out;
  auto emit = [&out, &config](ServiceMessage msg, Seconds at) {
    msg.at = at * config.time_scale;
    out.push_back(msg);
  };

  for (int r = 0; r < config.repeats; ++r) {
    const Seconds base = static_cast<Seconds>(r) * spacing;

    for (const SwitchFailureEvent& ev : plan.switch_failures) {
      for (int i = 0; i < config.resends; ++i) {
        ServiceMessage msg;
        msg.kind = MessageKind::kNodeFailureReport;
        msg.node = ev.node;
        msg.inject = i == 0;
        emit(msg, base + ev.at + static_cast<Seconds>(i) * config.resend_gap);
      }
    }

    for (const LinkFailureEvent& ev : plan.link_failures) {
      for (int i = 0; i < config.resends; ++i) {
        ServiceMessage msg;
        msg.kind = MessageKind::kLinkFailureReport;
        msg.link = ev.link;
        msg.bad_side = ev.bad_side;
        msg.inject = i == 0;
        emit(msg, base + ev.at + static_cast<Seconds>(i) * config.resend_gap);
      }
      // One sick-probe re-report follows the resends.
      ServiceMessage msg;
      msg.kind = MessageKind::kProbeResult;
      msg.link = ev.link;
      msg.healthy = false;
      emit(msg, base + ev.at +
                    static_cast<Seconds>(config.resends) *
                        config.resend_gap +
                    config.resend_gap);
    }

    // Healthy background probes: telemetry spread evenly over the
    // window, probing the plan's own links round-robin.
    if (config.background_probes > 0 && !plan.link_failures.empty()) {
      const Seconds step =
          horizon / static_cast<Seconds>(config.background_probes);
      for (int i = 0; i < config.background_probes; ++i) {
        ServiceMessage msg;
        msg.kind = MessageKind::kProbeResult;
        msg.link =
            plan.link_failures[static_cast<std::size_t>(i) %
                               plan.link_failures.size()]
                .link;
        msg.healthy = true;
        emit(msg, base + (static_cast<Seconds>(i) + 0.5) * step);
      }
    }

    // Operator / repair-crew cadences.
    auto cadence = [&](Seconds interval, OperatorOp op) {
      if (interval <= 0.0) return;
      for (Seconds t = interval; t <= horizon; t += interval) {
        ServiceMessage msg;
        msg.kind = MessageKind::kOperatorCommand;
        msg.op = op;
        emit(msg, base + t);
      }
    };
    cadence(config.repair_interval, OperatorOp::kRepairAll);
    cadence(config.watchdog_interval, OperatorOp::kAckWatchdog);
    cadence(config.diagnosis_interval, OperatorOp::kRunDiagnosis);
    cadence(config.retry_interval, OperatorOp::kRetryParked);

    // Controller-cluster chaos: each planned crash becomes a crash
    // message at its event time and a repair message at its repair
    // time, every repeat — so failovers recur throughout the soak. The
    // single-controller service counts and ignores them; the replicated
    // service crashes for real.
    const std::size_t members =
        std::max<std::size_t>(plan.config.cluster_members, 1);
    for (const ControllerCrashEvent& ev : plan.controller_crashes) {
      const std::uint32_t target =
          ev.member == kPrimaryMember
              ? service::kClusterPrimary
              : static_cast<std::uint32_t>(ev.member % members);
      ServiceMessage crash;
      crash.kind = MessageKind::kControllerCrash;
      crash.member = target;
      emit(crash, base + ev.at);
      ServiceMessage repair;
      repair.kind = MessageKind::kControllerRepair;
      repair.member = target;
      emit(repair, base + ev.repair_at);
    }
  }

  // Total admission order: arrival time, ties broken by generation
  // order (stable sort), then densely numbered seqs.
  std::stable_sort(out.begin(), out.end(),
                   [](const ServiceMessage& a, const ServiceMessage& b) {
                     return a.at < b.at;
                   });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].seq = static_cast<std::uint64_t>(i);
  }
  return out;
}

ReportStreamBreakdown breakdown(const std::vector<ServiceMessage>& stream) {
  ReportStreamBreakdown b;
  b.total = stream.size();
  for (const ServiceMessage& msg : stream) {
    switch (msg.kind) {
      case MessageKind::kNodeFailureReport:
        ++b.node_reports;
        break;
      case MessageKind::kLinkFailureReport:
        ++b.link_reports;
        break;
      case MessageKind::kProbeResult:
        ++b.probe_results;
        break;
      case MessageKind::kOperatorCommand:
        ++b.operator_commands;
        break;
      case MessageKind::kControllerCrash:
      case MessageKind::kControllerRepair:
        ++b.cluster_events;
        break;
    }
  }
  b.failure_reports = b.node_reports + b.link_reports;
  if (!stream.empty()) b.span = stream.back().at;
  return b;
}

}  // namespace sbk::faultinject
