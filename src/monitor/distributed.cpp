#include "monitor/distributed.h"

#include <algorithm>
#include <stdexcept>

namespace netqos::mon {

DistributedMonitor::DistributedMonitor(sim::Simulator& sim,
                                       const topo::NetworkTopology& topo,
                                       std::vector<sim::Host*> stations,
                                       MonitorConfig base)
    : DistributedMonitor(sim, topo, std::move(stations),
                         DistributedConfig{std::move(base)}) {}

DistributedMonitor::DistributedMonitor(sim::Simulator& sim,
                                       const topo::NetworkTopology& topo,
                                       std::vector<sim::Host*> stations,
                                       DistributedConfig config)
    : sim_(sim),
      config_(std::move(config)),
      db_(config_.base.retention),
      shard_dark_(stations.size(), false),
      started_(stations.size(), false) {
  if (stations.empty()) {
    throw std::invalid_argument("distributed monitor needs >= 1 station");
  }
  const std::size_t n = stations.size();
  for (std::size_t s = 0; s < n; ++s) {
    station_shard_[stations[s]->name()] = s;
  }

  // The plan is identical for all workers (it depends only on the
  // topology), so build it once to learn names and weights.
  const PollPlan plan = PollPlan::build(topo);
  std::vector<std::vector<std::string>> partitions(n);
  std::vector<std::size_t> load(n, 0);
  for (const AgentTask& task : plan.agents()) {
    plan_order_.push_back(task.node);
    // An agent with no planned interfaces still costs a poll slot.
    weight_[task.node] = std::max<std::size_t>(1, task.points.size());
  }

  // With handoff on, a station's own agent goes to the *next* shard:
  // a station cannot observe its own death, its successor can.
  std::vector<const AgentTask*> rest;
  for (const AgentTask& task : plan.agents()) {
    if (config_.ownership_handoff && n > 1) {
      auto it = station_shard_.find(task.node);
      if (it != station_shard_.end()) {
        assign((it->second + 1) % n, task.node, partitions, load);
        continue;
      }
    }
    rest.push_back(&task);
  }
  if (config_.partition == PartitionStrategy::kInterfaceWeighted) {
    // Greedy LPT: heaviest agents first, each onto the least-loaded
    // shard. stable_sort keeps plan order among equals — deterministic.
    std::vector<const AgentTask*> order = rest;
    std::stable_sort(order.begin(), order.end(),
                     [this](const AgentTask* a, const AgentTask* b) {
                       return weight_[a->node] > weight_[b->node];
                     });
    for (const AgentTask* task : order) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < n; ++s) {
        if (load[s] < load[best]) best = s;
      }
      assign(best, task->node, partitions, load);
    }
  } else {
    // Plan-order round-robin over the unpinned agents: identical to the
    // original partition whenever no agent was pinned above.
    for (std::size_t i = 0; i < rest.size(); ++i) {
      assign(i % n, rest[i]->node, partitions, load);
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    MonitorConfig worker_config = config_.base;
    worker_config.agent_allowlist = std::move(partitions[s]);
    // Phase the stations' rounds apart so the partitions do not all
    // burst onto the network at the same instant.
    worker_config.scheduler.start_offset += PollScheduler::launch_phase(
        s, worker_config.scheduler.stagger);
    workers_.push_back(std::make_unique<NetworkMonitor>(
        sim, topo, *stations[s], db_, worker_config));
  }
  // A quarantine decided by the worker polling the failed agent must
  // reach every other worker: the §4.1 fallback switch port is usually
  // polled by a different station, and the coordinator's path evaluation
  // reads measure points from its own plan copy.
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    workers_[s]->add_quarantine_callback(
        [this, s](const std::string& node, bool quarantined) {
          on_quarantine(s, node, quarantined);
        });
  }
  // The shared db exports through the coordinator's registry (worker
  // series stay distinct via their station labels).
  db_.attach_metrics(workers_.front()->metrics());
}

void DistributedMonitor::assign(
    std::size_t shard, const std::string& node,
    std::vector<std::vector<std::string>>& partitions,
    std::vector<std::size_t>& load) {
  partitions[shard].push_back(node);
  load[shard] += weight_[node];
  home_owner_[node] = shard;
  current_owner_[node] = shard;
}

void DistributedMonitor::on_quarantine(std::size_t observer,
                                       const std::string& node,
                                       bool entered) {
  for (std::size_t other = 0; other < workers_.size(); ++other) {
    if (other == observer) continue;
    workers_[other]->apply_external_quarantine(node, entered);
  }
  if (!config_.ownership_handoff) return;
  auto it = station_shard_.find(node);
  if (it == station_shard_.end()) return;
  const std::size_t shard = it->second;
  if (shard_dark_[shard] == entered) return;
  shard_dark_[shard] = entered;
  // Deferred: this callback runs inside PollScheduler::record_result,
  // which still holds a pointer into the observer's agent list —
  // adopting/releasing here would invalidate it.
  sim_.schedule_after(0, [this, shard, entered] {
    if (entered) {
      handoff_shard(shard);
    } else {
      restore_shard(shard);
    }
  });
}

void DistributedMonitor::handoff_shard(std::size_t dark) {
  std::vector<std::size_t> load(workers_.size(), 0);
  for (const auto& [node, owner] : current_owner_) {
    load[owner] += weight_[node];
  }
  for (const std::string& node : plan_order_) {
    auto it = current_owner_.find(node);
    if (it == current_owner_.end() || it->second != dark) continue;
    std::size_t best = workers_.size();
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      if (s == dark || shard_dark_[s] || !started_[s]) continue;
      if (best == workers_.size() || load[s] < load[best]) best = s;
    }
    if (best == workers_.size()) return;  // no running shard left
    workers_[dark]->release_agent(node);
    if (workers_[best]->adopt_agent(node)) {
      it->second = best;
      load[best] += weight_[node];
      load[dark] -= weight_[node];
    }
  }
}

void DistributedMonitor::restore_shard(std::size_t home) {
  for (const std::string& node : plan_order_) {
    if (home_owner_[node] != home) continue;
    auto it = current_owner_.find(node);
    if (it == current_owner_.end() || it->second == home) continue;
    workers_[it->second]->release_agent(node);
    if (workers_[home]->adopt_agent(node)) it->second = home;
  }
}

std::vector<std::string> DistributedMonitor::shard_agents(
    std::size_t s) const {
  std::vector<std::string> nodes;
  for (const std::string& node : plan_order_) {
    auto it = current_owner_.find(node);
    if (it != current_owner_.end() && it->second == s) {
      nodes.push_back(node);
    }
  }
  return nodes;
}

void DistributedMonitor::add_path(const std::string& from,
                                  const std::string& to) {
  workers_.front()->add_path(from, to);
}

void DistributedMonitor::add_sample_callback(
    NetworkMonitor::SampleCallback callback) {
  workers_.front()->add_sample_callback(std::move(callback));
}

namespace {

/// Streams a worker shard's interface samples into the coordinator's
/// module host. Installed on every non-coordinator shard once an
/// interface-consuming module registers, so coordinator modules see the
/// whole fabric's rate stream no matter which shard polls an interface
/// — including after an ownership handoff migrates agents.
class InterfaceForwarder final : public Module {
 public:
  explicit InterfaceForwarder(ModuleHost& target)
      : Module("shard-forwarder"), target_(target) {}

  bool wants_interface_samples() const override { return true; }
  void on_interface_sample(const InterfaceKey& interface, SimTime time,
                           const RateSample& rate) override {
    target_.dispatch_interface_sample(interface, time, rate);
  }

 private:
  ModuleHost& target_;
};

}  // namespace

Module& DistributedMonitor::add_module(std::unique_ptr<Module> module) {
  const bool wants_interfaces = module->wants_interface_samples();
  Module& registered = workers_.front()->add_module(std::move(module));
  if (wants_interfaces && !forwarding_) {
    // Lazy: shards pay the interface-dispatch cost only once a module
    // actually consumes that stream.
    forwarding_ = true;
    for (std::size_t s = 1; s < workers_.size(); ++s) {
      workers_[s]->add_module(std::make_unique<InterfaceForwarder>(
          workers_.front()->modules()));
    }
  }
  return registered;
}

void DistributedMonitor::start() {
  // Start non-coordinator workers first so their samples are flowing by
  // the time the coordinator evaluates paths.
  for (std::size_t i = workers_.size(); i-- > 0;) {
    if (!workers_[i]->polled_agents().empty()) {
      workers_[i]->start();
      started_[i] = true;
    }
  }
}

void DistributedMonitor::stop() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->stop();
    started_[i] = false;
  }
}

MonitorStats DistributedMonitor::aggregate_stats() const {
  MonitorStats total;
  for (const auto& worker : workers_) {
    const MonitorStats s = worker->stats();
    total.rounds_started += s.rounds_started;
    total.rounds_completed += s.rounds_completed;
    total.rounds_failed += s.rounds_failed;
    total.agent_polls += s.agent_polls;
    total.agent_poll_failures += s.agent_poll_failures;
    total.resolve_failures += s.resolve_failures;
    total.polls_skipped += s.polls_skipped;
    total.quarantine_transitions += s.quarantine_transitions;
  }
  return total;
}

}  // namespace netqos::mon
