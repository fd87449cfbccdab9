// Failure drill: a narrated end-to-end operational scenario against the
// full control plane — keep-alive detection, link probing, dual
// replacement, offline diagnosis over the circuit-switch side rings,
// exoneration, host troubleshooting, watchdog, and controller failover.
// Every incident's recovery timeline is traced and exported as CSV, then
// validated against the §5.3 component latency model.
//
//   $ ./build/examples/failure_drill [timeline.csv] [trace.json]
//
// The optional second argument records the whole drill into a flight
// recorder and writes a Chrome/Perfetto trace_event JSON (inspect with
// chrome://tracing, ui.perfetto.dev, or the sbk_trace CLI).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "control/controller.hpp"
#include "control/controller_cluster.hpp"
#include "control/failure_detector.hpp"
#include "control/recovery_latency.hpp"
#include "net/algo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recovery_tracer.hpp"
#include "sharebackup/fabric.hpp"

using namespace sbk;

namespace {
void say(const char* msg) { std::printf("%s\n", msg); }
}  // namespace

int main(int argc, char** argv) {
  const std::string csv_path = argc > 1 ? argv[1] : "recovery_timeline.csv";
  const std::string trace_path = argc > 2 ? argv[2] : "";
  sharebackup::FabricParams params;
  params.fat_tree.k = 6;
  params.backups_per_group = 2;
  sharebackup::Fabric fabric(params);
  control::Controller controller(fabric, control::ControllerConfig{});
  sim::EventQueue queue;
  control::FailureDetector detector(queue, fabric.network(),
                                    control::DetectorConfig{});
  control::ControllerCluster cluster(queue, control::ClusterConfig{});

  obs::RecoveryTracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(/*enabled=*/!trace_path.empty());
  detector.attach_tracer(&tracer);
  detector.attach_metrics(&metrics);
  controller.attach_tracer(&tracer);
  controller.attach_metrics(&metrics);
  fabric.attach_metrics(&metrics);
  if (recorder.enabled()) {
    controller.attach_recorder(&recorder);
    fabric.attach_recorder(&recorder);
  }

  std::printf("=== ShareBackup failure drill (k=6, n=2) ===\n\n");

  // Wire detection into the controller, gated on cluster availability.
  detector.on_node_failure([&](net::NodeId node, Seconds t) {
    if (!cluster.available()) return;
    auto pos = fabric.position_of_node(node);
    controller.set_time(t);
    auto out = controller.on_switch_failure(*pos);
    std::printf("[%7.4fs] node failure at %s -> %s\n", t,
                fabric.network().node(node).name.c_str(), out.detail);
  });
  detector.on_link_failure([&](net::LinkId link, Seconds t) {
    if (!cluster.available()) return;
    controller.set_time(t);
    auto out = controller.on_link_failure(link);
    std::printf("[%7.4fs] link failure report -> %s\n", t, out.detail);
  });

  const Seconds horizon = 1.0;
  for (net::NodeId sw : fabric.fat_tree().all_switches()) {
    detector.watch_node(sw, horizon);
  }
  for (std::size_t i = 0; i < fabric.network().link_count(); ++i) {
    detector.watch_link(net::LinkId(static_cast<net::LinkId::value_type>(i)),
                        horizon);
  }
  cluster.start(horizon);

  say("Act 1 — a core switch dies (keep-alive detection).");
  net::NodeId core = fabric.fat_tree().core(4);
  queue.schedule_at(0.010, [&] {
    tracer.note_injection(control::element_name(fabric.network(), core),
                          queue.now());
    fabric.network().fail_node(core);
  });

  say("Act 2 — an edge-agg link fails; the faulty side is the edge "
      "switch's\n         interface. Both sides are replaced instantly; "
      "diagnosis runs offline.");
  net::NodeId edge = fabric.fat_tree().edge(1, 0);
  net::NodeId agg = fabric.fat_tree().agg(1, 2);
  net::LinkId link = *fabric.network().find_link(edge, agg);
  queue.schedule_at(0.100, [&] {
    tracer.note_injection(control::element_name(fabric.network(), link),
                          queue.now());
    fabric.ground_link_failure(link, edge);
  });

  say("Act 3 — a host NIC dies; per policy the edge switch is replaced "
      "first,\n         then redressed when the failure persists.");
  net::NodeId host = fabric.fat_tree().host(3, 1, 2);
  net::LinkId host_link = fabric.fat_tree().host_link(host);
  queue.schedule_at(0.200, [&] {
    tracer.note_injection(control::element_name(fabric.network(), host_link),
                          queue.now());
    fabric.ground_link_failure(host_link, host);
  });

  say("Act 4 — the primary controller crashes; a replica takes over.\n");
  queue.schedule_at(0.300, [&] { cluster.fail_member(*cluster.primary()); });
  cluster.on_election([](std::size_t id, std::size_t term, Seconds t) {
    std::printf("[%7.4fs] controller %zu elected primary (term %zu)\n", t,
                id, term);
  });

  queue.run();

  std::printf("\n--- background diagnosis ---\n");
  controller.set_time(queue.now());  // diagnosis is stamped post-drill
  std::size_t jobs = controller.run_pending_diagnosis();
  std::printf("ran %zu diagnosis job(s): %zu switch(es) exonerated, %zu "
              "confirmed faulty\n",
              jobs, controller.stats().switches_exonerated,
              controller.stats().switches_confirmed_faulty);
  for (net::NodeId h : controller.flagged_hosts()) {
    std::printf("host flagged for troubleshooting: %s\n",
                fabric.network().node(h).name.c_str());
  }

  std::printf("\n--- end state ---\n");
  std::printf("failovers: %zu | node failures handled: %zu | link: %zu | "
              "host-link: %zu\n",
              controller.stats().failovers,
              controller.stats().node_failures_handled,
              controller.stats().link_failures_handled,
              controller.stats().host_link_failures_handled);
  std::printf("network connected: %s (failed links remaining: %zu — the "
              "broken host NIC)\n",
              net::live_component_count(fabric.network()) == 1 ? "yes" : "no",
              fabric.network().failed_link_count());
  fabric.check_invariants();
  std::printf("fabric invariants: OK\n");

  // Technicians repair the pulled hardware; it rejoins as backups.
  std::printf("\n--- repair crew ---\n");
  for (sharebackup::DeviceUid dev = 0;
       dev < fabric.switch_device_count(); ++dev) {
    if (fabric.device_state(dev) == sharebackup::DeviceState::kOut) {
      controller.on_device_repaired(dev);
      std::printf("repaired %s -> returned to its group's backup pool\n",
                  fabric.device(dev).name.c_str());
    }
  }
  fabric.check_invariants();
  std::printf("all groups back to full backup strength.\n");

  std::printf("\n--- controller audit trail ---\n");
  for (const auto& entry : controller.audit_log()) {
    std::printf("[%7.4fs] %-13s %s\n", entry.at, entry.event.c_str(),
                entry.detail.c_str());
  }

  // --- recovery timelines ----------------------------------------------------
  std::printf("\n--- recovery timelines ---\n");
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("VALIDATION FAILED: %s\n", what);
      ++failures;
    }
  };

  {
    std::ofstream out(csv_path);
    tracer.write_csv(out);
    expect(out.good(), "timeline CSV written");
  }
  std::printf("wrote %zu incident(s) to %s\n", tracer.incidents().size(),
              csv_path.c_str());

  expect(tracer.incidents().size() == 3, "one incident per injected failure");
  for (const auto& inc : tracer.incidents()) {
    expect(obs::RecoveryTracer::spans_monotone(inc),
           "incident spans are monotone");
    expect(!inc.spans.empty() && inc.spans.front().stage == "injection" &&
               inc.span("detection") != nullptr,
           "incident starts with injection and has a detection span");
    for (const auto& s : inc.spans) {
      expect(s.start >= inc.injected_at - 1e-9,
             "no span starts before the injection");
    }
    if (inc.closed) {
      std::printf("incident %zu %-28s injected %.4fs  recovered in %.4f ms\n",
                  inc.id, inc.element.c_str(), inc.injected_at,
                  (inc.recovered_at - inc.injected_at) * 1e3);
    } else {
      std::printf("incident %zu %-28s injected %.4fs  still open\n", inc.id,
                  inc.element.c_str(), inc.injected_at);
    }
  }

  // Cross-check the traced core-switch timeline against the §5.3
  // component model: the measured control path must equal the modeled
  // notification + decision, the circuit reset must match the
  // technology's latency, and detection must not exceed the worst case.
  control::LatencyModelParams model_params;
  control::LatencyBreakdown model =
      control::sharebackup_latency(model_params, fabric.technology());
  const obs::RecoveryIncident* core_inc = nullptr;
  const std::string core_elem =
      control::element_name(fabric.network(), core);
  for (const auto& inc : tracer.incidents()) {
    if (inc.element == core_elem) core_inc = &inc;
  }
  expect(core_inc != nullptr, "core-switch incident traced");
  if (core_inc != nullptr) {
    auto duration = [&](const char* stage) {
      const obs::RecoverySpan* s = core_inc->span(stage);
      return s != nullptr ? s->duration() : -1.0;
    };
    const double detection = duration("detection");
    const double control_path =
        duration("notification") + duration("decision") + duration("command");
    const double reconf = duration("reconfiguration");
    std::printf("core-switch timeline vs §5.3 model (ms):\n");
    std::printf("  detection       %.4f (model worst case %.4f)\n",
                detection * 1e3, model.detection * 1e3);
    std::printf("  control path    %.4f (model %.4f)\n", control_path * 1e3,
                (model.notification + model.decision) * 1e3);
    std::printf("  reconfiguration %.6f (model %.6f)\n", reconf * 1e3,
                model.reconfiguration * 1e3);
    expect(detection >= 0.0 && detection <= model.detection + 1e-9,
           "measured detection within the model's worst case");
    expect(std::abs(control_path - (model.notification + model.decision)) <
               1e-9,
           "control path matches the model");
    expect(std::abs(reconf - model.reconfiguration) < 1e-12,
           "circuit reset matches the technology latency");
    expect(core_inc->closed &&
               std::abs((core_inc->recovered_at - core_inc->injected_at) -
                        (detection + control_path + reconf)) < 1e-9,
           "end-to-end recovery is the sum of its stages");
  }

  std::printf("\n--- metrics ---\n");
  auto show = [&](const char* name) {
    const obs::Counter* c = metrics.find_counter(name);
    if (c != nullptr) std::printf("%-36s %llu\n", name,
                                  static_cast<unsigned long long>(c->value()));
  };
  show("detector.node_probes");
  show("detector.link_probes");
  show("detector.misses");
  show("detector.node_failures_reported");
  show("detector.link_failures_reported");
  show("controller.failovers");
  show("controller.diagnoses");
  show("fabric.circuit_reconfigurations");
  if (const obs::Gauge* g = metrics.find_gauge("fabric.spare_pool")) {
    std::printf("%-36s %.0f\n", "fabric.spare_pool", g->value());
  }

  if (recorder.enabled()) {
    export_recovery_spans(tracer, recorder);
    std::ofstream out(trace_path);
    recorder.write_trace_json(out);
    expect(out.good(), "trace JSON written");
    std::printf("\nwrote %zu trace event(s) to %s\n",
                recorder.events().size(), trace_path.c_str());
  }

  if (failures == 0) std::printf("\ntimeline validation: OK\n");
  return failures == 0 ? 0 : 1;
}
