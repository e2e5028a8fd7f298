// Poll planning: which SNMP agent measures each connection.
//
// Paper §4.1: "even though there is no SNMP demon on either S4 or S5, the
// bandwidth between S4 and S5 can still be monitored by polling the
// interfaces on the switch that are connected to S4 and S5". The plan
// encodes that fallback: a connection is measured at its own host's agent
// when one runs there, otherwise at the SNMP-capable switch port facing
// it. Hubs never run agents; hub-attached connections are measured at
// the attached host (for the domain sum) or the switch uplink port.
//
// The same §4.1 rule also powers runtime degradation: when a host agent
// is quarantined (stops answering polls), its connections fall back to
// the switch-port measure point until the agent heals. The plan keeps
// both candidates per connection and exposes the currently effective
// choice through measurement_for().
//
// Every primary and fallback measure point gets a dense id when the plan
// is built. The sample path (StatsDb entries, poll targets, the
// bandwidth calculator) works on ids; names appear only where a point
// meets the outside: the SNMP resolution walk, history store keys, and
// measurement modules.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "netsim/address.h"
#include "topology/domains.h"
#include "topology/model.h"

namespace netqos::mon {

/// (node name, ifDescr) key.
using InterfaceKey = std::pair<std::string, std::string>;

/// Dense index of a measure point. Ids are assigned in connection order,
/// primary before fallback, so every plan built from one topology numbers
/// its points alike: monitors sharing a StatsDb agree on every id.
using PointId = std::uint32_t;

/// Where one connection's traffic counters live.
struct MeasurePoint {
  std::string node;        ///< agent's node name
  std::string interface;   ///< ifDescr on that agent
  bool via_switch = false; ///< true when using the §4.1 switch-port fallback
  PointId id = 0;          ///< index in the plan's point table
};

/// One agent the poller must query each round.
struct AgentTask {
  std::string node;
  sim::Ipv4Address address;  ///< host primary IP or switch management IP
  std::string community;
  std::vector<PointId> points;  ///< measure points (interfaces) to poll
};

class PollPlan {
 public:
  /// Builds the plan for a validated topology. Throws
  /// std::invalid_argument if the topology fails validation.
  static PollPlan build(const topo::NetworkTopology& topo);

  /// Currently effective measurement point for a connection index, or
  /// nullopt when neither side is SNMP-capable (unmonitorable). Reflects
  /// active quarantine fallbacks.
  const std::optional<MeasurePoint>& measurement_for(std::size_t conn) const {
    return effective_.at(conn);
  }

  /// The build-time (pre-quarantine) choice for a connection.
  const std::optional<MeasurePoint>& primary_measurement_for(
      std::size_t conn) const {
    return primary_.at(conn);
  }

  /// The §4.1 switch-port alternative for a connection whose primary is a
  /// host agent; nullopt when none exists (e.g. hub-attached hosts).
  const std::optional<MeasurePoint>& switch_fallback_for(
      std::size_t conn) const {
    return fallback_.at(conn);
  }

  /// Number of measure points; ids run from 0 to point_count() - 1.
  std::size_t point_count() const { return points_.size(); }
  const MeasurePoint& point(PointId id) const { return points_.at(id); }
  /// The point's (node, ifDescr), as measurement modules receive it.
  const InterfaceKey& point_key(PointId id) const {
    return point_keys_.at(id);
  }
  /// The id of the point at (node, ifDescr); nullopt when the plan
  /// measures nothing there. A linear scan, for callers holding names.
  std::optional<PointId> find_point(const std::string& node,
                                    const std::string& interface) const;

  /// Marks an agent node (un)quarantined and recomputes the effective
  /// measure points. Returns the indices of connections whose effective
  /// point changed — the caller re-targets polling for those.
  std::vector<std::size_t> set_agent_quarantined(const std::string& node,
                                                 bool quarantined);

  /// Bumped by every set_agent_quarantined call. A figure derived from
  /// the effective measure points is current while this is unchanged.
  std::uint64_t version() const { return version_; }

  bool agent_quarantined(const std::string& node) const {
    return quarantined_.contains(node);
  }

  const std::vector<AgentTask>& agents() const { return agents_; }

  /// Connection indices that no agent can observe.
  const std::vector<std::size_t>& unmonitorable() const {
    return unmonitorable_;
  }

  /// Collision domains computed for the topology (hub rule input).
  const std::vector<topo::CollisionDomain>& domains() const {
    return domains_;
  }
  /// Per-connection domain membership.
  const std::vector<std::optional<std::size_t>>& domain_of() const {
    return domain_of_;
  }

 private:
  const std::optional<MeasurePoint>& choose_effective(std::size_t conn) const;

  std::vector<std::optional<MeasurePoint>> primary_;
  std::vector<std::optional<MeasurePoint>> fallback_;
  std::vector<std::optional<MeasurePoint>> effective_;
  std::vector<MeasurePoint> points_;      ///< by id
  std::vector<InterfaceKey> point_keys_;  ///< by id
  std::uint64_t version_ = 0;
  std::set<std::string> quarantined_;
  std::vector<AgentTask> agents_;
  std::vector<std::size_t> unmonitorable_;
  std::vector<topo::CollisionDomain> domains_;
  std::vector<std::optional<std::size_t>> domain_of_;
};

}  // namespace netqos::mon
