// Bridge MIB binding (RFC 1493 subset) for switches.
//
// Serves dot1dTpFdbPort — the switch port each learned MAC address lives
// behind — from the live forwarding database. Registered through a MIB
// refresh hook because the FDB grows as the switch learns; rows appear
// and move between queries. The hook rebuilds the rows only when the
// switch's FDB change count has moved since the last rebuild. This is
// the data source for the dynamic-topology-discovery extension (paper §5
// future work).
#pragma once

#include "netsim/switch.h"
#include "snmp/mib.h"

namespace netqos::snmp {

/// Installs dot1dTpFdbPort on the agent's MIB, reflecting `sw`'s live
/// forwarding database. Port numbers are 1-based positions in the
/// switch's interface list, matching the ifTable indices deploy_agents
/// produces for the same switch.
void register_bridge_mib(MibTree& mib, const sim::Switch& sw);

/// Converts a MAC to its dot1dTpFdbPort instance OID suffix.
Oid fdb_instance(const sim::MacAddress& mac);

}  // namespace netqos::snmp
