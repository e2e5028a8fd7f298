// The benchmark's workloads: seeded scenarios on the simulated network,
// each running the monitor as deployed (SNMP polling, query service, an
// active probe) with the mix tilted towards one layer.
//
//   fabric_poll          sharded batched polling of a generated
//                        spine/leaf fabric, set up as bench/scale_monitor
//                        sets it up, with one load on its watched path;
//                        one operator query client, one probe.
//   testbed_query        the paper's LIRTSS testbed under steady fig5-style
//                        hub loads, with 32 closed-loop query clients.
//   hidden_cross_probe   the hidden-cross testbed (agentless hosts
//                        bursting on the hub): all three estimators probe
//                        S1 -> N1 at once, one feeding the hybrid module.
//
// A Scenario is one repetition. Set-up is constructing it and simulating
// its warm-up (ifIndex resolution walks, first poll rounds, query windows
// and probe estimates filling up); the measured window follows, in which
// every poll interval carries the same steady mix of work. check()
// compares the monitor's outputs with simulator ground truth, and
// check_run() judges what only a whole run's repetitions can show.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace wallbench {

/// Operations a repetition has performed so far, and how many failed.
struct Work {
  std::uint64_t polls = 0;
  std::uint64_t poll_failures = 0;
  std::uint64_t queries = 0;
  std::uint64_t query_failures = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t events = 0;         ///< simulator events dispatched
  std::uint64_t pool_acquires = 0;  ///< payload buffers handed out
  std::uint64_t pool_reuses = 0;    ///< ... of which recycled
  /// Repetitions whose probe accuracy check() scored, and the sums of
  /// their mean |estimate - truth| / C: the best estimator's and the
  /// monitor's own passive figure. Zero on workloads without probes to
  /// score.
  std::uint64_t scored = 0;
  double probe_error = 0.0;
  double passive_error = 0.0;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Simulated time at which the warm-up ends and measuring begins.
  virtual netqos::SimTime warmup() const = 0;
  /// Simulated length of one repetition, warm-up included.
  virtual netqos::SimTime length() const = 0;
  /// Advances the simulation to absolute time `until`.
  virtual void run_until(netqos::SimTime until) = 0;
  /// Empty when every checked output is correct, else the first problem.
  virtual std::string check() = 0;
  virtual Work work() = 0;
};

/// Checks what only the whole run can show, from the work and scores
/// summed over all its repetitions: empty when correct.
std::string check_run(const std::string& workload, const Work& total);

/// Sets up one repetition of `workload` with inputs drawn from `seed`.
/// Throws std::invalid_argument for an unknown workload.
std::unique_ptr<Scenario> make_scenario(const std::string& workload,
                                        std::uint64_t seed);

}  // namespace wallbench
