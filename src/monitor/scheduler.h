// Adaptive per-agent poll scheduling (paper §5: monitoring overhead).
//
// The seed monitor fired every agent in lock-step at one fixed interval,
// so a dark agent burned timeout x retries every round and rounds
// self-synchronized into bursts. This scheduler gives each agent its own
// launch phase and a health state machine:
//
//   healthy ──failure──▶ degraded ──(quarantine_after consecutive
//      ▲                    │         failures)──▶ quarantined
//      └────── success ─────┴──────────── success ─────┘
//
// Unhealthy agents back off exponentially (configurable base/cap) so
// steady-state polling traffic to a dead agent drops by cap/interval; a
// linkUp trap clears the backoff for an immediate re-probe. The scheduler
// only decides *when* each agent may be polled and *how healthy* it is —
// transport stays in NetworkMonitor, timers stay on the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace netqos::mon {

enum class AgentHealth { kHealthy, kDegraded, kQuarantined };

const char* agent_health_name(AgentHealth health);

struct SchedulerConfig {
  /// Base polling period of healthy agents; rounds tick at this cadence.
  SimDuration poll_interval = 2 * kSecond;
  /// Per-failure interval multiplier for unhealthy agents: after k
  /// consecutive failures the agent is next due base^k poll intervals
  /// later. 1 disables backoff (the seed's fixed-interval behaviour,
  /// every agent polled every round); below 1 is rejected.
  double backoff_base = 2.0;
  /// Upper bound on the backed-off interval, at least poll_interval.
  /// 0 = 8 * poll_interval.
  SimDuration backoff_cap = 0;
  /// Launch-phase spacing inside a round: agent i starts i * stagger
  /// after the round begins, de-bursting the request train. 0 = the
  /// seed's simultaneous launch.
  SimDuration stagger = 0;
  /// Uniform random extra launch delay in [0, launch_jitter) per poll,
  /// drawn from a seeded stream (deterministic). 0 = none.
  SimDuration launch_jitter = 0;
  /// Consecutive failures after which an agent is quarantined (its
  /// measure points fall back to the §4.1 switch port).
  int quarantine_after = 3;
  /// Delay before the very first round — the distributed monitor phases
  /// workers apart with this so stations do not self-synchronize.
  SimDuration start_offset = 0;
  std::uint64_t jitter_seed = 0x5c3ed;
};

/// Pure decision logic: who is due, how long to back off, which health
/// state each agent is in. Owns no simulator events.
class PollScheduler {
 public:
  struct AgentState {
    std::string node;
    AgentHealth health = AgentHealth::kHealthy;
    int consecutive_failures = 0;
    /// Earliest time the next poll may launch. Healthy agents are always
    /// due (0); failures push this out exponentially.
    SimTime next_due = 0;
    /// Launch offset within a round (index * stagger).
    SimDuration phase = 0;
    std::uint64_t polls = 0;     ///< polls launched (excluding retries)
    std::uint64_t failures = 0;  ///< lifetime failed polls
    std::uint64_t quarantines = 0;  ///< transitions into quarantine
    SimTime quarantined_at = 0;     ///< time of the last such transition
  };

  /// (node, previous health, new health) — fired from record_result /
  /// request_reprobe whenever the state machine moves.
  using TransitionCallback =
      std::function<void(const std::string&, AgentHealth, AgentHealth)>;

  /// Throws std::invalid_argument for a poll interval <= 0, a backoff
  /// base below 1, a nonzero backoff cap shorter than the interval, a
  /// negative stagger, or a launch phase (index * stagger) past half of
  /// the clock's range.
  PollScheduler(SchedulerConfig config, std::vector<std::string> nodes);

  /// Registers an agent mid-run (shard ownership handoff). It joins
  /// healthy, immediately due, with the next free stagger phase. No-op if
  /// already registered; throws std::invalid_argument, registering
  /// nothing, when that phase would pass half of the clock's range. Must
  /// not be called from inside a transition callback: record_result
  /// holds a pointer across the callback, so membership changes there
  /// must be deferred (schedule_after(0)).
  void add_agent(const std::string& node);
  /// Unregisters an agent (handed off to another station). Same
  /// no-reentrancy rule as add_agent. Returns false when unknown.
  bool remove_agent(const std::string& node);

  void set_transition_callback(TransitionCallback callback) {
    transition_ = std::move(callback);
  }

  /// Nodes whose next_due has arrived, in registration order. A round
  /// polls exactly these.
  std::vector<const AgentState*> due(SimTime now) const;

  /// Marks a poll launched: bumps the poll count and pushes next_due one
  /// interval out so an in-flight poll is never doubled up.
  void record_launch(const std::string& node, SimTime now);

  /// Feeds a poll outcome into the state machine. Success resets the
  /// agent to healthy and always-due; failure backs it off and may
  /// degrade/quarantine it (transition callback fires before return).
  void record_result(const std::string& node, bool ok, SimTime now);

  /// linkUp trap handling: clears the backoff so the agent is due
  /// immediately. Health is *not* reset — only a successful poll heals.
  void request_reprobe(const std::string& node, SimTime now);

  /// The interval the agent's next poll waits after a failure at `now`:
  /// min(poll_interval * base^failures, cap).
  SimDuration backoff_interval(const AgentState& agent) const;

  /// Random launch delay in [0, launch_jitter) — deterministic stream.
  SimDuration draw_jitter();

  /// index * stagger, the launch phase of the index-th agent. A round's
  /// start plus the phase must still fit the clock, so a phase past
  /// half of its range throws std::invalid_argument, as does a product
  /// that overflows.
  static SimDuration launch_phase(std::size_t index, SimDuration stagger);

  const AgentState* find(const std::string& node) const;
  const std::vector<AgentState>& agents() const { return agents_; }
  const SchedulerConfig& config() const { return config_; }
  SimDuration effective_cap() const;

 private:
  AgentState* find_mutable(const std::string& node);
  void transition(AgentState& agent, AgentHealth to);

  SchedulerConfig config_;
  std::vector<AgentState> agents_;
  TransitionCallback transition_;
  std::uint64_t jitter_state_;
};

}  // namespace netqos::mon
