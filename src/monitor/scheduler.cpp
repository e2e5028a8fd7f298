#include "monitor/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace netqos::mon {

const char* agent_health_name(AgentHealth health) {
  switch (health) {
    case AgentHealth::kHealthy: return "healthy";
    case AgentHealth::kDegraded: return "degraded";
    case AgentHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

PollScheduler::PollScheduler(SchedulerConfig config,
                             std::vector<std::string> nodes)
    : config_(config), jitter_state_(config.jitter_seed) {
  if (config_.poll_interval <= 0) {
    throw std::invalid_argument("poll interval must be positive");
  }
  if (!(config_.backoff_base >= 1.0)) {  // NaN fails too
    throw std::invalid_argument("backoff base must be at least 1");
  }
  if (config_.backoff_cap != 0 &&
      config_.backoff_cap < config_.poll_interval) {
    throw std::invalid_argument(
        "backoff cap must be 0 (the default) or at least the poll "
        "interval");
  }
  agents_.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    AgentState agent;
    agent.node = std::move(nodes[i]);
    agent.phase = static_cast<SimDuration>(i) * config_.stagger;
    agents_.push_back(std::move(agent));
  }
}

void PollScheduler::add_agent(const std::string& node) {
  if (find(node) != nullptr) return;
  AgentState agent;
  agent.node = node;
  agent.phase =
      static_cast<SimDuration>(agents_.size()) * config_.stagger;
  agents_.push_back(std::move(agent));
}

bool PollScheduler::remove_agent(const std::string& node) {
  for (auto it = agents_.begin(); it != agents_.end(); ++it) {
    if (it->node == node) {
      agents_.erase(it);
      return true;
    }
  }
  return false;
}

SimDuration PollScheduler::effective_cap() const {
  return config_.backoff_cap > 0 ? config_.backoff_cap
                                 : 8 * config_.poll_interval;
}

SimDuration PollScheduler::backoff_interval(const AgentState& agent) const {
  if (config_.backoff_base <= 1.0 || agent.consecutive_failures == 0) {
    return config_.poll_interval;
  }
  const double cap_seconds = to_seconds(effective_cap());
  const double backed =
      to_seconds(config_.poll_interval) *
      std::pow(config_.backoff_base, agent.consecutive_failures);
  return from_seconds(std::min(backed, cap_seconds));
}

SimDuration PollScheduler::draw_jitter() {
  if (config_.launch_jitter <= 0) return 0;
  SplitMix64 mix(jitter_state_);
  jitter_state_ = mix.next();
  return static_cast<SimDuration>(
      jitter_state_ % static_cast<std::uint64_t>(config_.launch_jitter));
}

std::vector<const PollScheduler::AgentState*> PollScheduler::due(
    SimTime now) const {
  std::vector<const AgentState*> result;
  result.reserve(agents_.size());
  for (const AgentState& agent : agents_) {
    if (agent.next_due <= now) result.push_back(&agent);
  }
  return result;
}

PollScheduler::AgentState* PollScheduler::find_mutable(
    const std::string& node) {
  for (AgentState& agent : agents_) {
    if (agent.node == node) return &agent;
  }
  return nullptr;
}

const PollScheduler::AgentState* PollScheduler::find(
    const std::string& node) const {
  for (const AgentState& agent : agents_) {
    if (agent.node == node) return &agent;
  }
  return nullptr;
}

void PollScheduler::transition(AgentState& agent, AgentHealth to) {
  if (agent.health == to) return;
  const AgentHealth from = agent.health;
  agent.health = to;
  if (to == AgentHealth::kQuarantined) ++agent.quarantines;
  if (transition_) transition_(agent.node, from, to);
}

void PollScheduler::record_launch(const std::string& node, SimTime now) {
  AgentState* agent = find_mutable(node);
  if (agent == nullptr) return;
  ++agent->polls;
  // Hold the agent out of the next round(s) until this poll resolves;
  // record_result then sets the real next_due.
  agent->next_due = now + config_.poll_interval;
}

void PollScheduler::record_result(const std::string& node, bool ok,
                                  SimTime now) {
  AgentState* agent = find_mutable(node);
  if (agent == nullptr) return;
  if (ok) {
    agent->consecutive_failures = 0;
    agent->next_due = 0;  // due every round again
    transition(*agent, AgentHealth::kHealthy);
    return;
  }
  ++agent->failures;
  ++agent->consecutive_failures;
  if (agent->consecutive_failures >= config_.quarantine_after) {
    if (agent->health != AgentHealth::kQuarantined) {
      agent->quarantined_at = now;
    }
    transition(*agent, AgentHealth::kQuarantined);
  } else {
    transition(*agent, AgentHealth::kDegraded);
  }
  if (config_.backoff_base <= 1.0) {
    // Fixed-interval mode: stay due every round, exactly like the
    // lock-step monitor (a failure resolves mid-interval, so `now +
    // poll_interval` would silently skip every other round).
    agent->next_due = 0;
  } else {
    agent->next_due = now + backoff_interval(*agent);
  }
}

void PollScheduler::request_reprobe(const std::string& node, SimTime now) {
  AgentState* agent = find_mutable(node);
  if (agent == nullptr) return;
  agent->next_due = now;
}

}  // namespace netqos::mon
