#include "monitor/bandwidth.h"

#include <algorithm>
#include <limits>

namespace netqos::mon {

const char* freshness_name(Freshness freshness) {
  switch (freshness) {
    case Freshness::kUnknown: return "unknown";
    case Freshness::kFresh: return "fresh";
    case Freshness::kStale: return "stale";
  }
  return "?";
}

BandwidthCalculator::BandwidthCalculator(const topo::NetworkTopology& topo,
                                         const PollPlan& plan)
    : topo_(topo), plan_(plan) {}

std::optional<BytesPerSecond> BandwidthCalculator::connection_traffic(
    std::size_t conn, const StatsDb& db) const {
  const auto& point = plan_.measurement_for(conn);
  if (!point.has_value()) return std::nullopt;
  const auto rate = db.latest_rate(point->id);
  if (!rate.has_value()) return std::nullopt;
  return rate->total_rate();
}

std::optional<BytesPerSecond> BandwidthCalculator::domain_usage(
    std::size_t domain, const StatsDb& db) const {
  const topo::CollisionDomain& dom = plan_.domains()[domain];
  BytesPerSecond sum = 0.0;
  bool any = false;
  for (std::size_t ci : dom.member_connections) {
    // Paper §3.3 sums the traffic of the hosts on the hub. The uplink to
    // the switch already carries the same frames the hosts report, so
    // counting it too would double the load; only host members sum.
    const topo::Connection& conn = topo_.connections()[ci];
    const topo::NodeSpec* a = topo_.find_node(conn.a.node);
    const topo::NodeSpec* b = topo_.find_node(conn.b.node);
    const bool host_member = (a->kind == topo::NodeKind::kHost) ||
                             (b->kind == topo::NodeKind::kHost);
    if (!host_member) continue;
    const auto traffic = connection_traffic(ci, db);
    if (traffic.has_value()) {
      sum += *traffic;
      any = true;
    }
  }
  if (!any) return std::nullopt;
  // "Notice that u_i cannot exceed the maximum speed of the hub."
  const BytesPerSecond cap = to_bytes_per_second(dom.speed);
  return std::min(sum, cap);
}

ConnectionUsage BandwidthCalculator::connection_usage(
    std::size_t conn, const StatsDb& db) const {
  ConnectionUsage usage;
  usage.connection = conn;
  const topo::Connection& c = topo_.connections()[conn];
  const auto& domain = plan_.domain_of()[conn];

  if (const auto& point = plan_.measurement_for(conn)) {
    usage.via_switch = point->via_switch;
    if (const auto rate = db.latest_rate(point->id)) {
      usage.discard_rate = rate->discard_rate;
    }
  }

  if (domain.has_value()) {
    usage.hub_rule = true;
    usage.capacity = to_bytes_per_second(plan_.domains()[*domain].speed);
    const auto used = domain_usage(*domain, db);
    usage.measured = used.has_value();
    usage.used = used.value_or(0.0);
  } else {
    usage.capacity = to_bytes_per_second(topo::connection_speed(topo_, c));
    const auto used = connection_traffic(conn, db);
    usage.measured = used.has_value();
    usage.used = used.value_or(0.0);
  }
  usage.available = std::max(0.0, usage.capacity - usage.used);
  return usage;
}

PathUsage BandwidthCalculator::path_usage(const topo::Path& path,
                                          const StatsDb& db) const {
  PathUsage result;
  result.complete = !path.empty();
  result.available = std::numeric_limits<double>::infinity();

  for (std::size_t ci : path) {
    ConnectionUsage usage = connection_usage(ci, db);
    result.complete = result.complete && usage.measured;
    if (usage.available < result.available) {
      result.available = usage.available;
      result.used_at_bottleneck = usage.used;
      result.bottleneck = ci;
    }
    result.connections.push_back(std::move(usage));
  }
  if (path.empty()) {
    result.available = 0.0;
    result.complete = false;
  }
  return result;
}

PathUsage BandwidthCalculator::path_usage(const topo::Path& path,
                                          const StatsDb& db, SimTime now,
                                          SimDuration stale_after) const {
  PathUsage result = path_usage(path, db);
  apply_staleness(result, db, now, stale_after);
  return result;
}

void BandwidthCalculator::apply_staleness(PathUsage& usage,
                                          const StatsDb& db, SimTime now,
                                          SimDuration stale_after) const {
  usage.max_sample_age = 0;
  for (ConnectionUsage& connection : usage.connections) {
    const auto& point = plan_.measurement_for(connection.connection);
    if (!point.has_value()) continue;
    connection.sample_age = db.sample_age(point->id, now);
    if (connection.sample_age.has_value() &&
        *connection.sample_age > usage.max_sample_age) {
      usage.max_sample_age = *connection.sample_age;
    }
  }
  // kFresh requires a complete measurement inside the bound; anything
  // less is reported kStale so consumers never trust silently-old data.
  const bool all_young =
      usage.complete && usage.max_sample_age <= stale_after;
  usage.freshness = all_young ? Freshness::kFresh : Freshness::kStale;
}

}  // namespace netqos::mon
