#include "cli_probes.h"

#include <algorithm>
#include <stdexcept>

#include "probe/registry.h"
#include "topology/path.h"

namespace netqos::cli {

std::vector<query::ProbeStatusRow> ProbeSet::status_rows() const {
  std::vector<query::ProbeStatusRow> rows;
  for (const auto& estimator : estimators) {
    query::ProbeStatusRow row;
    row.estimator = estimator->name();
    row.from = estimator->path().from;
    row.to = estimator->path().to;
    row.convergence = static_cast<std::uint8_t>(estimator->convergence());
    row.running = estimator->running();
    const auto latest = estimator->latest();
    row.has_estimate = latest.has_value();
    row.available = latest.value_or(0.0);
    row.estimates = estimator->estimates().size();
    row.wire_bytes = estimator->stats().probe_wire_bytes +
                     estimator->stats().report_wire_bytes;
    rows.push_back(std::move(row));
  }
  return rows;
}

ProbeSet start_probes(
    const topo::NetworkTopology& topology, sim::Network& network,
    const std::vector<mon::PathKey>& pairs, const std::string& list,
    obs::MetricsRegistry* metrics,
    const std::function<void(probe::Estimator&)>& on_first) {
  const std::vector<std::string> names = probe::estimator_names(list);
  ProbeSet probes;
  std::vector<std::string> sink_hosts;
  for (const auto& [from, to] : pairs) {
    sim::Host* src = network.find_host(from);
    sim::Host* dst = network.find_host(to);
    const auto path = topo::traverse_recursive(topology, from, to);
    if (src == nullptr || dst == nullptr || !path.has_value()) {
      throw std::invalid_argument("cannot probe " + from + " -> " + to);
    }
    BitsPerSecond capacity = 0;
    for (const std::size_t index : *path) {
      const BitsPerSecond speed =
          topo::connection_speed(topology, topology.connections()[index]);
      capacity = capacity == 0 ? speed : std::min(capacity, speed);
    }
    if (std::find(sink_hosts.begin(), sink_hosts.end(), to) ==
        sink_hosts.end()) {
      probes.sinks.push_back(std::make_unique<probe::ProbeSink>(*dst));
      sink_hosts.push_back(to);
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto estimator = probe::make_estimator(names[i], *src, dst->ip(),
                                             {from, to, capacity});
      if (metrics != nullptr) estimator->attach_metrics(*metrics);
      estimator->start();
      if (i == 0 && on_first) on_first(*estimator);
      probes.estimators.push_back(std::move(estimator));
    }
  }
  return probes;
}

}  // namespace netqos::cli
