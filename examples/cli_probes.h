// Active-probe wiring shared by the two CLIs (netqosmon --probe and
// netqosctl probes): the named estimators on every host pair, one
// ProbeSink per destination host, and the status rows the query
// engine's health snapshot carries.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/module.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "probe/estimator.h"
#include "probe/sink.h"
#include "query/proto.h"
#include "topology/model.h"

namespace netqos::cli {

struct ProbeSet {
  std::vector<std::unique_ptr<probe::ProbeSink>> sinks;
  /// Pair by pair in the order given, one estimator per name.
  std::vector<std::unique_ptr<probe::Estimator>> estimators;

  /// One row per estimator, in start order: what the query engine's
  /// probe status provider serves.
  std::vector<query::ProbeStatusRow> status_rows() const;
};

/// Starts every estimator `list` names (probe::estimator_names) on each
/// pair, probing from its first host to its second at the speed of the
/// path's slowest connection. Estimators export through `metrics` when
/// it is non-null; `on_first` sees each pair's first estimator once it
/// runs. Throws std::invalid_argument for a pair with an unknown host or
/// no path, or for an unknown estimator name.
ProbeSet start_probes(
    const topo::NetworkTopology& topology, sim::Network& network,
    const std::vector<mon::PathKey>& pairs, const std::string& list,
    obs::MetricsRegistry* metrics,
    const std::function<void(probe::Estimator&)>& on_first = {});

}  // namespace netqos::cli
