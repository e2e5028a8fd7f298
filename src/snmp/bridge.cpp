#include "snmp/bridge.h"

namespace netqos::snmp {

Oid fdb_instance(const sim::MacAddress& mac) {
  std::vector<std::uint32_t> arcs;
  arcs.reserve(6);
  for (std::uint8_t octet : mac.octets()) arcs.push_back(octet);
  return mib2::kDot1dTpFdbPort.concat(Oid(std::move(arcs)));
}

void register_bridge_mib(MibTree& mib, const sim::Switch& sw) {
  // Hooks run before every lookup; rebuilding the rows only when the FDB
  // changed keeps a GETBULK from re-registering every MAC per varbind.
  // An empty FDB has no rows, so "no changes yet" needs no rebuild.
  mib.add_refresh_hook([&sw, changes_seen = std::uint64_t{0}](
                           MibTree& tree) mutable {
    if (sw.stats().fdb_changes == changes_seen) return;
    changes_seen = sw.stats().fdb_changes;
    tree.unregister_subtree(mib2::kDot1dTpFdbPort);
    for (const auto& [mac, port] : sw.fdb()) {
      // Map the learned port back to its 1-based interface position.
      std::int64_t port_number = 0;
      const auto& nics = sw.interfaces();
      for (std::size_t i = 0; i < nics.size(); ++i) {
        if (nics[i].get() == port) {
          port_number = static_cast<std::int64_t>(i + 1);
          break;
        }
      }
      if (port_number == 0) continue;
      tree.register_constant(fdb_instance(mac), port_number);
    }
  });
}

}  // namespace netqos::snmp
