#include "snmp/mib.h"

namespace netqos::snmp {

void MibTree::register_object(Oid instance, Provider provider) {
  objects_[std::move(instance)] = std::move(provider);
}

void MibTree::register_constant(Oid instance, SnmpValue value) {
  register_object(std::move(instance),
                  [value = std::move(value)] { return value; });
}

void MibTree::unregister_object(const Oid& instance) {
  objects_.erase(instance);
}

void MibTree::unregister_subtree(const Oid& root) {
  auto it = objects_.lower_bound(root);
  while (it != objects_.end() && it->first.starts_with(root)) {
    it = objects_.erase(it);
  }
}

void MibTree::add_refresh_hook(RefreshHook hook) {
  hooks_.push_back(std::move(hook));
}

void MibTree::run_hooks() {
  if (in_hook_) return;  // hooks may re-register objects, not re-enter
  in_hook_ = true;
  for (const auto& hook : hooks_) hook(*this);
  in_hook_ = false;
}

std::optional<SnmpValue> MibTree::get(const Oid& instance) {
  run_hooks();
  auto it = objects_.find(instance);
  if (it == objects_.end()) return std::nullopt;
  return it->second();
}

MibTree::Cursor MibTree::seek_after(const Oid& oid) {
  run_hooks();
  return Cursor(objects_.upper_bound(oid), objects_.end());
}

}  // namespace netqos::snmp
