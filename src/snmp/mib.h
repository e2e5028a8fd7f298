// MIB tree: the agent-side database of managed objects.
//
// Objects are registered at instance OIDs (scalars at x.0, table cells at
// entry.column.index) with callable providers, so values are computed at
// query time from live state. GETNEXT order is lexicographic OID order,
// which std::map gives us directly.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "snmp/oid.h"
#include "snmp/value.h"

namespace netqos::snmp {

class MibTree {
 public:
  using Provider = std::function<SnmpValue()>;
  using RefreshHook = std::function<void(MibTree&)>;

  /// Registers an instance OID. Replaces any existing registration.
  void register_object(Oid instance, Provider provider);
  /// Convenience: a constant value.
  void register_constant(Oid instance, SnmpValue value);
  void unregister_object(const Oid& instance);
  /// Removes every instance under (and including) `root`.
  void unregister_subtree(const Oid& root);

  /// Ordered walk over registered instances, for GETNEXT and GETBULK.
  /// Moving forward is one map-iterator step, never another search. Valid
  /// until the tree's registrations change: the next get() or seek_after()
  /// may run hooks that re-register rows, so finish one cursor first.
  class Cursor {
   public:
    /// True once the walk has passed the last instance (endOfMibView).
    bool at_end() const { return it_ == end_; }
    const Oid& oid() const { return it_->first; }
    /// Evaluates the instance's provider.
    SnmpValue value() const { return it_->second(); }
    void advance() { ++it_; }

   private:
    friend class MibTree;
    using Iterator = std::map<Oid, Provider>::const_iterator;
    Cursor(Iterator it, Iterator end) : it_(it), end_(end) {}

    Iterator it_;
    Iterator end_;
  };

  /// Hooks run before every get/seek_after so dynamically-sized tables
  /// (e.g. the bridge forwarding database) can refresh their rows.
  void add_refresh_hook(RefreshHook hook);

  /// Exact-match GET. nullopt when the instance does not exist.
  std::optional<SnmpValue> get(const Oid& instance);

  /// GETNEXT seek: a cursor at the first instance strictly greater than
  /// `oid`.
  Cursor seek_after(const Oid& oid);

  std::size_t size() const { return objects_.size(); }

 private:
  void run_hooks();

  std::map<Oid, Provider> objects_;
  std::vector<RefreshHook> hooks_;
  bool in_hook_ = false;
};

}  // namespace netqos::snmp
