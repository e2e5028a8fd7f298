// Conformance scenarios: the paper's fig4/5/6 experiments rendered as
// one deterministic text transcript each.
//
// The monitor pipeline (poll -> counter math -> path bandwidth ->
// violation/predictive detection -> reports) is only allowed to change
// shape — e.g. the CoMo-style module refactor — when a harness proves the
// result is *observationally equivalent*: same stdout summary, same CSV
// rows, same report structs, bit for bit. These runners produce that
// observable surface as a single string; tests/monitor/
// test_module_conformance.cpp diffs it against goldens committed from the
// seed pipeline.
//
// Everything here is deterministic: simulated time, seeded background
// chatter, seeded agent-cache jitter. Doubles are rendered with %.17g so
// any change in arithmetic — not just in formatting — breaks the diff.
#pragma once

#include <string>
#include <vector>

namespace netqos::exp {

/// Scenario names the harness covers, in run order.
std::vector<std::string> conformance_scenarios();

/// Runs one scenario ("fig4", "fig5", "fig6") end to end and returns the
/// full transcript: scenario header, per-sample CSV rows (the CsvSink
/// surface), QoS violation / recovery / early-warning events, window
/// report structs (analyze_window), final PathUsage and MonitorStats
/// dumps. Throws std::invalid_argument on an unknown name.
///
/// `enable_observer_modules` additionally registers every shipped
/// observer module (EWMA anomaly, top talkers) before the run; observers
/// must not perturb the paper pipeline, so the transcript is required to
/// be identical either way.
std::string run_conformance_scenario(const std::string& name,
                                     bool enable_observer_modules = false);

}  // namespace netqos::exp
