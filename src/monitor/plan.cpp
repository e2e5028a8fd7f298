#include "monitor/plan.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace netqos::mon {
namespace {

/// The address the agent on `node` answers on, or nullopt.
std::optional<sim::Ipv4Address> agent_address(const topo::NodeSpec& node) {
  if (!node.snmp_enabled) return std::nullopt;
  if (node.kind == topo::NodeKind::kHost) {
    for (const auto& itf : node.interfaces) {
      if (!itf.ipv4.empty()) return sim::Ipv4Address::parse(itf.ipv4);
    }
    return std::nullopt;
  }
  if (node.kind == topo::NodeKind::kSwitch &&
      !node.management_ipv4.empty()) {
    return sim::Ipv4Address::parse(node.management_ipv4);
  }
  return std::nullopt;  // hubs (and misconfigured switches) have no agent
}

}  // namespace

PollPlan PollPlan::build(const topo::NetworkTopology& topo) {
  const auto problems = topo.validate();
  if (!problems.empty()) {
    std::string all = "invalid topology:";
    for (const auto& p : problems) all += "\n  - " + p;
    throw std::invalid_argument(all);
  }

  PollPlan plan;
  plan.domains_ = topo::collision_domains(topo);
  plan.domain_of_ = topo::connection_domains(topo, plan.domains_);
  plan.primary_.resize(topo.connections().size());
  plan.fallback_.resize(topo.connections().size());

  // node name -> points that must be polled there
  std::map<std::string, std::vector<PointId>> needed;
  // Gives a point the next id on its first appearance.
  std::map<InterfaceKey, PointId> ids;
  auto intern = [&](std::optional<MeasurePoint>& point) {
    if (!point.has_value()) return;
    const auto [it, fresh] = ids.try_emplace(
        InterfaceKey{point->node, point->interface},
        static_cast<PointId>(plan.points_.size()));
    point->id = it->second;
    if (fresh) {
      plan.points_.push_back(*point);
      plan.point_keys_.push_back(it->first);
    }
  };

  for (std::size_t ci = 0; ci < topo.connections().size(); ++ci) {
    const topo::Connection& conn = topo.connections()[ci];

    // Preference 1: an endpoint host running an agent.
    std::optional<MeasurePoint> host_choice;
    for (const topo::Endpoint* ep : {&conn.a, &conn.b}) {
      const topo::NodeSpec* node = topo.find_node(ep->node);
      if (node->kind == topo::NodeKind::kHost &&
          agent_address(*node).has_value()) {
        host_choice = MeasurePoint{ep->node, ep->interface, false};
        break;
      }
    }
    // Preference 2 (paper §4.1): the SNMP-capable switch port. Retained
    // as the quarantine fallback even when a host agent exists.
    std::optional<MeasurePoint> switch_choice;
    for (const topo::Endpoint* ep : {&conn.a, &conn.b}) {
      const topo::NodeSpec* node = topo.find_node(ep->node);
      if (node->kind == topo::NodeKind::kSwitch &&
          agent_address(*node).has_value()) {
        switch_choice = MeasurePoint{ep->node, ep->interface, true};
        break;
      }
    }

    intern(host_choice);
    intern(switch_choice);
    const auto& chosen = host_choice.has_value() ? host_choice : switch_choice;
    plan.primary_[ci] = chosen;
    if (host_choice.has_value()) plan.fallback_[ci] = switch_choice;
    if (chosen.has_value()) {
      needed[chosen->node].push_back(chosen->id);
    } else {
      plan.unmonitorable_.push_back(ci);
    }
  }
  plan.effective_ = plan.primary_;

  for (auto& [node_name, points] : needed) {
    const topo::NodeSpec* node = topo.find_node(node_name);
    AgentTask task;
    task.node = node_name;
    task.address = *agent_address(*node);
    task.community = node->snmp_community;
    // Deduplicate points while keeping first-seen order.
    for (const PointId id : points) {
      if (std::find(task.points.begin(), task.points.end(), id) ==
          task.points.end()) {
        task.points.push_back(id);
      }
    }
    plan.agents_.push_back(std::move(task));
  }
  return plan;
}

std::optional<PointId> PollPlan::find_point(
    const std::string& node, const std::string& interface) const {
  for (std::size_t id = 0; id < point_keys_.size(); ++id) {
    const InterfaceKey& key = point_keys_[id];
    if (key.first == node && key.second == interface) {
      return static_cast<PointId>(id);
    }
  }
  return std::nullopt;
}

const std::optional<MeasurePoint>& PollPlan::choose_effective(
    std::size_t conn) const {
  const auto& primary = primary_[conn];
  if (primary.has_value() && quarantined_.contains(primary->node)) {
    const auto& fallback = fallback_[conn];
    if (fallback.has_value() && !quarantined_.contains(fallback->node)) {
      return fallback;
    }
    // No healthy alternative: keep the primary point. Its samples go
    // stale, which the freshness annotation reports honestly.
  }
  return primary;
}

std::vector<std::size_t> PollPlan::set_agent_quarantined(
    const std::string& node, bool quarantined) {
  if (quarantined) {
    quarantined_.insert(node);
  } else {
    quarantined_.erase(node);
  }
  ++version_;
  std::vector<std::size_t> changed;
  for (std::size_t ci = 0; ci < effective_.size(); ++ci) {
    const auto& now_effective = choose_effective(ci);
    const auto& was = effective_[ci];
    const bool differs =
        was.has_value() != now_effective.has_value() ||
        (was.has_value() && was->id != now_effective->id);
    if (differs) {
      effective_[ci] = now_effective;
      changed.push_back(ci);
    }
  }
  return changed;
}

}  // namespace netqos::mon
