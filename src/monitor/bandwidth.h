// Bandwidth calculation (paper §3.3).
//
// Per connection i: used bandwidth u_i, maximum bandwidth m_i (from
// ifSpeed / connection speed), available a_i = m_i - u_i. Switch rule:
// u_i = t_i, the traffic of the connection's own interface. Hub rule:
// u_i = sum of the traffic of every *host* attached to the collision
// domain, capped at the domain speed ("u_i cannot exceed the maximum
// speed of the hub"). Path availability: A = min(a_1 ... a_n).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "monitor/plan.h"
#include "monitor/stats_db.h"
#include "topology/path.h"

namespace netqos::mon {

/// How trustworthy a figure computed from StatsDb samples is.
enum class Freshness {
  kUnknown,  ///< freshness was not evaluated (no reference time given)
  kFresh,    ///< every sample involved is younger than the staleness bound
  kStale,    ///< at least one sample has outlived the bound
};

const char* freshness_name(Freshness freshness);

struct ConnectionUsage {
  std::size_t connection = 0;
  BytesPerSecond used = 0.0;       ///< u_i, bytes/sec
  BytesPerSecond capacity = 0.0;   ///< m_i, bytes/sec
  BytesPerSecond available = 0.0;  ///< a_i = m_i - u_i (floored at 0)
  /// Packets/sec being dropped at the measuring interface: the direct
  /// congestion signal a saturated segment shows before rates flatten.
  double discard_rate = 0.0;
  bool hub_rule = false;           ///< computed with the domain sum
  bool measured = false;           ///< false when no data was available
  /// Measured via the §4.1 switch-port fallback (quarantined host agent).
  bool via_switch = false;
  /// Age of the measure point's latest sample when evaluated; unset for
  /// the 2-arg path_usage() or when no sample exists yet.
  std::optional<SimDuration> sample_age;
};

struct PathUsage {
  bool complete = false;  ///< every connection on the path was measured
  /// True when a connection on the path is administratively/physically
  /// down (reported via linkDown trap): available is then zero.
  bool link_down = false;
  BytesPerSecond available = 0.0;  ///< A = min a_i
  /// u at the bottleneck (the connection attaining the minimum): this is
  /// what the paper's figures plot as "measured bandwidth usage" of the
  /// path.
  BytesPerSecond used_at_bottleneck = 0.0;
  std::size_t bottleneck = 0;  ///< connection index attaining the min
  /// Staleness verdict: kFresh only when the path is complete and every
  /// measured sample's age is within the bound handed to path_usage().
  Freshness freshness = Freshness::kUnknown;
  /// Largest sample age along the path (0 when nothing was measured).
  SimDuration max_sample_age = 0;
  std::vector<ConnectionUsage> connections;
};

/// Evaluates the §3.3 rules against the latest rates in a StatsDb.
class BandwidthCalculator {
 public:
  BandwidthCalculator(const topo::NetworkTopology& topo,
                      const PollPlan& plan);

  /// Usage of one connection from current StatsDb contents.
  ConnectionUsage connection_usage(std::size_t conn,
                                   const StatsDb& db) const;

  /// Usage along a path (sequence of connection indices). Freshness stays
  /// kUnknown — use the overload below when a reference time is known.
  PathUsage path_usage(const topo::Path& path, const StatsDb& db) const;

  /// As above, plus staleness: annotates each connection with its sample
  /// age at `now` and classifies the path kFresh/kStale against
  /// `stale_after`. A path that is incomplete, or whose oldest sample
  /// exceeds the bound, is kStale — never silently fresh.
  PathUsage path_usage(const topo::Path& path, const StatsDb& db,
                       SimTime now, SimDuration stale_after) const;

  /// The staleness step of the overload above, applied to a result of the
  /// 2-argument path_usage: sets each measured connection's sample age at
  /// `now`, the largest age, and the freshness verdict. A caller holding
  /// the 2-argument result can re-age it without re-evaluating the rules.
  void apply_staleness(PathUsage& usage, const StatsDb& db, SimTime now,
                       SimDuration stale_after) const;

 private:
  /// t_i: measured traffic (in+out bytes/s) of one connection, if its
  /// measure point has produced a rate.
  std::optional<BytesPerSecond> connection_traffic(std::size_t conn,
                                                   const StatsDb& db) const;
  /// Hub-domain used bandwidth: sum of host-member traffic, capped.
  std::optional<BytesPerSecond> domain_usage(std::size_t domain,
                                             const StatsDb& db) const;

  const topo::NetworkTopology& topo_;
  const PollPlan& plan_;
};

}  // namespace netqos::mon
