#include "monitor/monitor.h"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>

#include "common/log.h"
#include "monitor/modules/bandwidth_module.h"

namespace netqos::mon {
namespace {

/// Round-duration buckets: 1 ms .. ~4 s doubling. A round lasts at least
/// one RTT and at most timeout * (retries + 1).
const std::vector<double> kRoundDurationBounds = {
    0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
    0.128, 0.256, 0.512, 1.024, 2.048, 4.096};

/// Per-agent RTT buckets: 100 us .. ~1.6 s doubling, matching the
/// client-level netqos_snmp_client_rtt_seconds layout.
const std::vector<double> kRttBounds = {
    0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128,
    0.0256, 0.0512, 0.1024, 0.2048, 0.4096, 0.8192, 1.6384};

/// Path-staleness buckets: 0.5 s .. ~8.5 min doubling. Fresh samples land
/// in the first buckets; a quarantined agent's path ages into the tail.
const std::vector<double> kSampleAgeBounds = {0.5, 1,  2,   4,   8,  16,
                                              32,  64, 128, 256, 512};

snmp::ClientConfig client_config_with_metrics(snmp::ClientConfig client,
                                              obs::MetricsRegistry* metrics) {
  if (client.metrics == nullptr) client.metrics = metrics;
  return client;
}

/// `config`, or std::invalid_argument naming the field a monitor cannot
/// run with. The scheduler fields are checked by PollScheduler.
MonitorConfig validated(MonitorConfig config) {
  if (config.poll_interval <= 0) {
    throw std::invalid_argument("poll interval must be positive");
  }
  if (config.stale_after < 0) {
    throw std::invalid_argument("staleness bound must not be negative");
  }
  return config;
}

/// One interface reading's cells, one per counter_columns() entry.
constexpr std::size_t kCounterCells = 6;
using CounterCells = std::array<const snmp::SnmpValue*, kCounterCells>;

/// The counter columns of one interface reading, in CounterSample order;
/// the octet columns are the ifXTable's Counter64 ones when
/// `high_capacity` is set.
std::vector<snmp::Oid> counter_columns(bool high_capacity) {
  using namespace snmp::mib2;
  return {high_capacity ? kIfXEntry.child(kIfHCInOctetsColumn)
                        : kIfEntry.child(kIfInOctetsColumn),
          high_capacity ? kIfXEntry.child(kIfHCOutOctetsColumn)
                        : kIfEntry.child(kIfOutOctetsColumn),
          kIfEntry.child(kIfInUcastPktsColumn),
          kIfEntry.child(kIfOutUcastPktsColumn),
          kIfEntry.child(kIfInDiscardsColumn),
          kIfEntry.child(kIfOutDiscardsColumn)};
}

/// Stores `cell` in `field` when it holds a `Counter`.
template <typename Counter, typename Field>
bool read_counter(const snmp::SnmpValue& cell, Field& field) {
  const auto* counter = std::get_if<Counter>(&cell);
  if (counter == nullptr) return false;
  field = counter->value;
  return true;
}

/// sysUpTime plus one interface's cells (counter_columns order) as a
/// sample; nullopt when a cell has the wrong type.
std::optional<CounterSample> decode_sample(std::uint32_t uptime,
                                           bool high_capacity,
                                           const CounterCells& cells) {
  CounterSample sample;
  sample.sys_uptime_ticks = uptime;
  sample.high_capacity = high_capacity;
  const bool octets =
      high_capacity
          ? read_counter<snmp::Counter64>(*cells[0], sample.in_octets) &&
                read_counter<snmp::Counter64>(*cells[1], sample.out_octets)
          : read_counter<snmp::Counter32>(*cells[0], sample.in_octets) &&
                read_counter<snmp::Counter32>(*cells[1], sample.out_octets);
  if (!octets ||
      !read_counter<snmp::Counter32>(*cells[2], sample.in_packets) ||
      !read_counter<snmp::Counter32>(*cells[3], sample.out_packets) ||
      !read_counter<snmp::Counter32>(*cells[4], sample.in_discards) ||
      !read_counter<snmp::Counter32>(*cells[5], sample.out_discards)) {
    return std::nullopt;
  }
  return sample;
}

/// Target `i`'s cells in a GET answer: sysUpTime.0, then the cells of
/// each target in request order.
CounterCells get_cells(const snmp::SnmpResult& result, std::size_t i) {
  CounterCells cells{};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c] = &result.varbinds[1 + kCounterCells * i + c].value;
  }
  return cells;
}

/// Row `if_index`'s cells in a table sweep; nullopt when the row is
/// missing or incomplete.
std::optional<CounterCells> row_cells(const snmp::TableResult& table,
                                      std::uint32_t if_index) {
  if (if_index == 0 || if_index > table.rows.size() ||
      !table.complete_row(if_index - 1, kCounterCells)) {
    return std::nullopt;
  }
  const auto& row = table.rows[if_index - 1].cells;
  CounterCells cells{};
  for (std::size_t c = 0; c < cells.size(); ++c) cells[c] = &row[c];
  return cells;
}

}  // namespace

NetworkMonitor::NetworkMonitor(sim::Simulator& sim,
                               const topo::NetworkTopology& topo,
                               sim::Host& station, MonitorConfig config)
    : NetworkMonitor(sim, topo, station, nullptr, std::move(config)) {}

NetworkMonitor::NetworkMonitor(sim::Simulator& sim,
                               const topo::NetworkTopology& topo,
                               sim::Host& station, StatsDb& shared_db,
                               MonitorConfig config)
    : NetworkMonitor(sim, topo, station, &shared_db, std::move(config)) {}

NetworkMonitor::NetworkMonitor(sim::Simulator& sim,
                               const topo::NetworkTopology& topo,
                               sim::Host& station, StatsDb* shared_db,
                               MonitorConfig config)
    : sim_(sim),
      topo_(topo),
      config_(validated(std::move(config))),
      plan_(PollPlan::build(topo)),
      own_metrics_(config_.metrics != nullptr
                       ? nullptr
                       : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : own_metrics_.get()),
      station_label_(station.name()),
      counter_columns_(counter_columns(config_.use_hc_counters)),
      client_(sim, station.udp(),
              client_config_with_metrics(config_.client, metrics_)),
      walker_(client_),
      calculator_(topo, plan_),
      own_db_(config_.retention),
      db_(shared_db != nullptr ? shared_db : &own_db_),
      connection_series_(topo.connections().size(), nullptr),
      history_(config_.retention),
      modules_(*this, *metrics_, station_label_) {
  init_metrics(station_label_);
  // A shared db is not attached here: its owner (e.g. the distributed
  // coordinator) decides which registry exports it.
  if (shared_db == nullptr) own_db_.attach_metrics(*metrics_);
  history_.attach_metrics(*metrics_, "paths");
  select_agents();
  init_scheduler();
  modules_.add(std::make_unique<BandwidthModule>());
}

void NetworkMonitor::init_scheduler() {
  SchedulerConfig scheduler_config = config_.scheduler;
  scheduler_config.poll_interval = config_.poll_interval;
  std::vector<std::string> nodes;
  nodes.reserve(polled_agents_.size());
  for (const AgentTask* task : polled_agents_) nodes.push_back(task->node);
  scheduler_ =
      std::make_unique<PollScheduler>(scheduler_config, std::move(nodes));
  scheduler_->set_transition_callback(
      [this](const std::string& node, AgentHealth from, AgentHealth to) {
        on_health_transition(node, from, to);
      });
}

SimDuration NetworkMonitor::effective_stale_after() const {
  return config_.stale_after > 0 ? config_.stale_after
                                 : 3 * config_.poll_interval;
}

void NetworkMonitor::init_metrics(const std::string& station) {
  const obs::Labels labels = {{"station", station}};
  rounds_started_ =
      &metrics_->counter("netqos_poll_rounds_started_total",
                         "Poll rounds the monitor began", labels);
  rounds_completed_ =
      &metrics_->counter("netqos_poll_rounds_completed_total",
                         "Poll rounds with every agent response accounted "
                         "for (including failed polls)",
                         labels);
  rounds_failed_ = &metrics_->counter(
      "netqos_poll_rounds_failed_total",
      "Completed rounds in which at least one agent poll failed", labels);
  agent_polls_ = &metrics_->counter(
      "netqos_agent_polls_total",
      "Agent polls launched, each one GET or one GETBULK sweep", labels);
  agent_poll_failures_ = &metrics_->counter(
      "netqos_agent_poll_failures_total",
      "Agent polls that timed out, errored, or failed to parse", labels);
  resolve_failures_ = &metrics_->counter(
      "netqos_resolve_failures_total",
      "ifTable walks that failed during interface resolution", labels);
  agent_polls_skipped_ = &metrics_->counter(
      "netqos_agent_polls_skipped_total",
      "Round slots where backoff/quarantine held an agent out", labels);
  quarantine_transitions_ = &metrics_->counter(
      "netqos_agent_quarantine_transitions_total",
      "Agent transitions into quarantine", labels);
  round_duration_ = &metrics_->histogram(
      "netqos_poll_round_duration_seconds",
      "Wall time (simulated) from round start to last agent response",
      kRoundDurationBounds, labels);
  path_sample_age_ = &metrics_->histogram(
      "netqos_path_sample_age_seconds",
      "Oldest sample feeding each per-round path report", kSampleAgeBounds,
      labels);
}

void NetworkMonitor::reset_agent_gauges(Agent& agent) {
  if (agent.health == nullptr) {
    const obs::Labels labels = {{"agent", agent.task->node},
                                {"station", station_label_}};
    agent.health = &metrics_->gauge(
        "netqos_agent_health",
        "Agent health state (0 healthy, 1 degraded, 2 quarantined)", labels);
    agent.backoff = &metrics_->gauge(
        "netqos_agent_backoff_level",
        "Consecutive poll failures driving the agent's backoff exponent",
        labels);
  }
  agent.health->set(0.0);
  agent.backoff->set(0.0);
}

MonitorStats NetworkMonitor::stats() const {
  MonitorStats stats;
  stats.rounds_started = rounds_started_->value();
  stats.rounds_completed = rounds_completed_->value();
  stats.rounds_failed = rounds_failed_->value();
  stats.agent_polls = agent_polls_->value();
  stats.agent_poll_failures = agent_poll_failures_->value();
  stats.resolve_failures = resolve_failures_->value();
  stats.polls_skipped = agent_polls_skipped_->value();
  stats.quarantine_transitions = quarantine_transitions_->value();
  return stats;
}

void NetworkMonitor::set_failure_detector(FailureDetector* detector) {
  failure_detector_ = detector;
  if (detector != nullptr) {
    detector->add_callback([this](const LinkEvent& event) {
      if (running_) on_link_event(event);
    });
  }
}

NetworkMonitor::Agent* NetworkMonitor::polled_agent(const std::string& node) {
  auto it = agents_.find(node);
  return it != agents_.end() && it->second.polled ? &it->second : nullptr;
}

void NetworkMonitor::on_link_event(const LinkEvent& event) {
  if (!event.up) return;
  // linkUp trap: the segment is back, so recovery must not wait out the
  // backoff the outage built up — re-probe the unhealthy agents at both
  // ends of the restored connection right now.
  std::vector<std::string> candidates = {event.node};
  if (event.connection.has_value()) {
    const topo::Connection& conn = topo_.connections()[*event.connection];
    candidates.push_back(conn.a.node);
    candidates.push_back(conn.b.node);
  }
  std::set<std::string> probed;
  for (const std::string& node : candidates) {
    if (!probed.insert(node).second) continue;
    const auto* state = scheduler_->find(node);
    if (state == nullptr || state->health == AgentHealth::kHealthy) continue;
    Agent* agent = polled_agent(node);
    if (agent == nullptr) continue;
    scheduler_->request_reprobe(node, sim_.now());
    scheduler_->record_launch(node, sim_.now());
    poll_agent(*agent, nullptr);
  }
}

void NetworkMonitor::on_health_transition(const std::string& node,
                                          AgentHealth from, AgentHealth to) {
  agents_.at(node).health->set(static_cast<double>(to));
  NETQOS_INFO_C("monitor") << station_label_ << ": agent " << node << " "
                           << agent_health_name(from) << " -> "
                           << agent_health_name(to);
  const bool entered = to == AgentHealth::kQuarantined;
  const bool left = from == AgentHealth::kQuarantined;
  if (!entered && !left) return;
  if (entered) quarantine_transitions_->inc();
  plan_.set_agent_quarantined(node, entered);
  recompute_fallbacks();
  for (const auto& callback : quarantine_callbacks_) callback(node, entered);
}

void NetworkMonitor::apply_external_quarantine(const std::string& node,
                                               bool quarantined) {
  plan_.set_agent_quarantined(node, quarantined);
  recompute_fallbacks();
}

void NetworkMonitor::recompute_fallbacks() {
  for (auto& [node, agent] : agents_) agent.fallbacks.clear();
  for (std::size_t ci = 0; ci < topo_.connections().size(); ++ci) {
    const auto& point = plan_.measurement_for(ci);
    const auto& primary = plan_.primary_measurement_for(ci);
    if (!point.has_value()) continue;
    // Only active fallbacks need ad-hoc polling; the primary points are
    // already in the static AgentTask point lists.
    if (primary.has_value() && primary->id == point->id) continue;
    Agent* agent = polled_agent(point->node);
    if (agent == nullptr) continue;  // some other station polls this agent
    const auto& points = agent->task->points;
    auto& fallbacks = agent->fallbacks;
    if (std::find(points.begin(), points.end(), point->id) == points.end() &&
        std::find(fallbacks.begin(), fallbacks.end(), point->id) ==
            fallbacks.end()) {
      fallbacks.push_back(point->id);
    }
  }
  for (auto& [node, agent] : agents_) update_targets(agent);
}

void NetworkMonitor::update_targets(Agent& agent) {
  agent.targets.clear();
  auto add_targets = [&](const std::vector<PointId>& points) {
    for (const PointId id : points) {
      if (auto it = agent.if_indexes.find(plan_.point(id).interface);
          it != agent.if_indexes.end()) {
        agent.targets.push_back({id, it->second});
      }
    }
  };
  add_targets(agent.task->points);
  add_targets(agent.fallbacks);
}

void NetworkMonitor::select_agents() {
  const auto& allowlist = config_.agent_allowlist;
  for (const AgentTask& task : plan_.agents()) {
    Agent& agent = agents_[task.node];
    agent.task = &task;
    agent.polled = allowlist.empty() ||
                   std::find(allowlist.begin(), allowlist.end(),
                             task.node) != allowlist.end();
    if (agent.polled) polled_agents_.push_back(&task);
  }
}

bool NetworkMonitor::adopt_agent(const std::string& node) {
  auto it = agents_.find(node);
  if (it == agents_.end() || it->second.polled) return false;
  Agent& agent = it->second;
  agent.polled = true;
  polled_agents_.push_back(agent.task);
  scheduler_->add_agent(node);
  reset_agent_gauges(agent);
  recompute_fallbacks();
  // A first-time adoption still needs its ifIndexes; a re-adoption (or a
  // pre-start adoption, resolved with everyone else) polls immediately.
  if (running_ && agent.if_indexes.empty()) {
    resolve_queue_.push_back(&agent);
    pump_resolve_queue();
  }
  return true;
}

bool NetworkMonitor::release_agent(const std::string& node) {
  Agent* agent = polled_agent(node);
  if (agent == nullptr) return false;
  agent->polled = false;
  std::erase(polled_agents_, agent->task);
  std::erase(resolve_queue_, agent);
  // The record keeps its ifIndexes and table poller: re-adoption then
  // resumes without a new resolution walk. An in-flight poll's callback
  // finds no scheduler entry and leaves the agent's health alone.
  scheduler_->remove_agent(node);
  recompute_fallbacks();
  return true;
}

void NetworkMonitor::add_path(const std::string& from,
                              const std::string& to) {
  auto path = topo::traverse_recursive(topo_, from, to);
  if (!path.has_value()) {
    throw std::invalid_argument("no communication path between '" + from +
                                "' and '" + to + "'");
  }
  MonitoredPath entry;
  entry.path = std::move(*path);
  entry.used_key = hist::path_series_key(from, to, "used");
  entry.avail_key = hist::path_series_key(from, to, "avail");
  paths_.push_back(std::move(entry));
  path_keys_.emplace_back(from, to);
  // Rebuild the module-facing view: the push_back may have reallocated
  // the Path storage the old views pointed into.
  watched_paths_.clear();
  watched_paths_.reserve(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    watched_paths_.push_back({path_keys_[i], &paths_[i].path});
  }
}

void NetworkMonitor::start() {
  if (running_) return;
  running_ = true;
  if (polled_agents_.empty()) {
    throw std::logic_error("no SNMP-capable nodes to poll");
  }
  // Batch mode also pre-sizes resolution walks from the agent's reported
  // ifNumber; both wire-traffic changes ride the one opt-in flag.
  walker_.set_prefetch_if_number(config_.batch_table_polls);
  resolve_queue_.clear();
  for (const AgentTask* task : polled_agents_) {
    Agent& agent = agents_.at(task->node);
    reset_agent_gauges(agent);
    resolve_queue_.push_back(&agent);
  }
  rounds_scheduled_ = false;
  pump_resolve_queue();
}

void NetworkMonitor::stop() {
  if (!running_) return;
  running_ = false;
  if (next_round_event_ != 0) {
    sim_.cancel(next_round_event_);
    next_round_event_ = 0;
  }
  // Modules finalize their aggregates before the stop callbacks flush
  // output streams.
  modules_.flush();
  for (const auto& callback : stop_callbacks_) callback();
}

void NetworkMonitor::pump_resolve_queue() {
  if (!running_ || resolving_) return;
  if (resolve_queue_.empty()) {
    if (!rounds_scheduled_) {
      // All ifIndexes resolved; begin polling (the distributed extension
      // phases stations apart via start_offset).
      rounds_scheduled_ = true;
      schedule_round(sim_.now() + config_.scheduler.start_offset);
    }
    return;
  }
  Agent& agent = *resolve_queue_.front();
  resolve_queue_.pop_front();
  resolving_ = true;
  const snmp::Oid descr_column =
      snmp::mib2::kIfEntry.child(snmp::mib2::kIfDescrColumn);
  walker_.walk(
      agent.task->address, agent.task->community, descr_column,
      [this, &agent](snmp::WalkResult result) {
        resolving_ = false;
        if (!result.ok) {
          resolve_failures_->inc();
          NETQOS_WARN_C("monitor") << "ifTable walk failed on "
                                   << agent.task->node << ": "
                                   << result.error;
        } else {
          for (const auto& vb : result.varbinds) {
            // Instance OID is ifDescr.<ifIndex>.
            const std::uint32_t if_index = vb.oid[vb.oid.size() - 1];
            if (const auto* name = std::get_if<std::string>(&vb.value)) {
              agent.if_indexes[*name] = if_index;
            }
          }
          update_targets(agent);
        }
        pump_resolve_queue();
      });
}

void NetworkMonitor::schedule_round(SimTime when) {
  next_round_event_ = sim_.schedule_at(when, [this] {
    next_round_event_ = 0;
    if (running_) run_round();
  });
}

void NetworkMonitor::run_round() {
  rounds_started_->inc();
  auto round = std::make_shared<Round>();
  round->started = sim_.now();
  // The scheduler decides who gets polled this round; backed-off agents
  // sit rounds out. Paths are still evaluated (and honestly annotated
  // stale) even when nobody is due.
  const auto due = scheduler_->due(round->started);
  round->outstanding = due.size();
  if (due.size() < polled_agents_.size()) {
    agent_polls_skipped_->inc(polled_agents_.size() - due.size());
  }
  if (config_.spans != nullptr) {
    round->span = config_.spans->begin("poll_round", "monitor", sim_.now(),
                                       {{"station", station_label_}});
  }

  for (const PollScheduler::AgentState* state : due) {
    Agent* agent = polled_agent(state->node);
    if (agent == nullptr) {
      count_out(round);
      continue;
    }
    scheduler_->record_launch(state->node, round->started);
    // Phase/jitter de-burst the request train; zero keeps the launch
    // inline so the default event order matches the lock-step monitor.
    const SimDuration delay = state->phase + scheduler_->draw_jitter();
    if (delay <= 0) {
      poll_agent(*agent, round);
    } else {
      sim_.schedule_after(delay, [this, agent, round] {
        if (running_) {
          poll_agent(*agent, round);
        } else {
          count_out(round);
        }
      });
    }
  }
  if (due.empty()) finish_round(round);
  // Fixed polling period, independent of round completion latency.
  schedule_round(round->started + config_.poll_interval);
}

void NetworkMonitor::poll_agent(Agent& agent,
                                const std::shared_ptr<Round>& round) {
  const AgentTask& task = *agent.task;
  if (config_.batch_table_polls && agent.table_poller == nullptr) {
    agent.table_poller = std::make_unique<snmp::TablePoller>(
        client_, task.address, task.community, counter_columns_);
  }

  // Static plan points plus any §4.1 fallback ports this agent covers
  // while a host agent is quarantined, each with its ifIndex.
  Poll poll;
  poll.targets = agent.targets;
  if (poll.targets.empty()) {
    count_out(round);
    return;
  }
  poll.round = round;
  // Re-probes (null round) stamp samples with their own launch time.
  poll.sample_time = round != nullptr ? round->started : sim_.now();

  agent_polls_->inc();
  if (config_.spans != nullptr) {
    poll.span = config_.spans->begin("poll_agent", "monitor", sim_.now(),
                                     {{"agent", task.node}});
  }

  // The table poller serves one sweep at a time; an out-of-round re-probe
  // overlapping a round's sweep is sent as a GET instead of being dropped.
  if (config_.batch_table_polls && !agent.table_poller->busy()) {
    agent.table_poller->collect(
        [this, &agent, poll = std::move(poll)](snmp::TableResult table) {
          std::optional<SimDuration> rtt;
          std::optional<std::uint32_t> uptime;
          if (table.ok) {
            rtt = table.rtt;
            uptime = static_cast<std::uint32_t>(table.uptime_ticks);
          }
          settle_poll(agent, poll, rtt, uptime, [&](std::size_t i) {
            return row_cells(table, poll.targets[i].if_index);
          });
        });
    return;
  }

  std::vector<snmp::Oid> oids;
  oids.reserve(1 + kCounterCells * poll.targets.size());
  oids.push_back(snmp::mib2::kSysUpTime.child(0));
  for (const Target& target : poll.targets) {
    for (const snmp::Oid& column : counter_columns_) {
      oids.push_back(column.child(target.if_index));
    }
  }
  client_.get(
      task.address, task.community, std::move(oids),
      [this, &agent, poll = std::move(poll)](snmp::SnmpResult result) {
        std::optional<SimDuration> rtt;
        std::optional<std::uint32_t> uptime;
        if (result.ok()) {
          rtt = result.rtt;
          const auto* ticks =
              result.varbinds.size() ==
                      1 + kCounterCells * poll.targets.size()
                  ? std::get_if<snmp::TimeTicks>(&result.varbinds[0].value)
                  : nullptr;
          if (ticks != nullptr) uptime = ticks->value;
        }
        settle_poll(agent, poll, rtt, uptime, [&](std::size_t i) {
          return std::optional(get_cells(result, i));
        });
      });
}

template <typename CellsOf>
void NetworkMonitor::settle_poll(Agent& agent, const Poll& poll,
                                 std::optional<SimDuration> rtt,
                                 std::optional<std::uint32_t> uptime,
                                 CellsOf cells_of) {
  if (rtt.has_value()) {
    if (agent.rtt == nullptr) {
      agent.rtt = &metrics_->histogram(
          "netqos_snmp_rtt_seconds",
          "SNMP request round-trip time per polled agent", kRttBounds,
          {{"agent", agent.task->node}, {"station", station_label_}});
    }
    agent.rtt->observe(to_seconds(*rtt));
  }
  if (config_.spans != nullptr) config_.spans->end(poll.span, sim_.now());
  bool ok = uptime.has_value();
  for (std::size_t i = 0; uptime.has_value() && i < poll.targets.size();
       ++i) {
    const std::optional<CounterCells> cells = cells_of(i);
    const std::optional<CounterSample> sample =
        cells.has_value()
            ? decode_sample(*uptime, config_.use_hc_counters, *cells)
            : std::nullopt;
    if (!sample.has_value()) {
      ok = false;
      continue;  // the interfaces that did decode are still ingested
    }
    const PointId point = poll.targets[i].point;
    if (const auto rate =
            db_->update(plan_.point(point), poll.sample_time, *sample);
        rate.has_value() && modules_.has_interface_consumers()) {
      modules_.dispatch_interface_sample(plan_.point_key(point),
                                         poll.sample_time, *rate);
    }
  }
  if (!ok) {
    agent_poll_failures_->inc();
    if (poll.round != nullptr) poll.round->failed_any = true;
  }
  scheduler_->record_result(agent.task->node, ok, sim_.now());
  if (const auto* state = scheduler_->find(agent.task->node)) {
    agent.backoff->set(static_cast<double>(state->consecutive_failures));
  }
  count_out(poll.round);
}

void NetworkMonitor::count_out(const std::shared_ptr<Round>& round) {
  if (round != nullptr && --round->outstanding == 0) finish_round(round);
}

void NetworkMonitor::finish_round(const std::shared_ptr<Round>& round) {
  rounds_completed_->inc();
  if (round->failed_any) rounds_failed_->inc();
  round_duration_->observe(to_seconds(sim_.now() - round->started));
  if (config_.spans != nullptr) config_.spans->end(round->span, sim_.now());

  // Metric computation is entirely the modules' job: the bandwidth
  // producer evaluates every watched path and emits the round's sample
  // stream, which routes back through emit_* below to history storage
  // and the consumer modules.
  modules_.run_round(round->started);
}

void NetworkMonitor::emit_path_sample(std::size_t path, SimTime time,
                                      const PathUsage& usage) {
  MonitoredPath& entry = paths_[path];
  if (entry.used_series == nullptr) {
    entry.used_series = &history_.series(entry.used_key);
  }
  history_.append(*entry.used_series, time, usage.used_at_bottleneck);
  if (entry.avail_series == nullptr) {
    entry.avail_series = &history_.series(entry.avail_key);
  }
  history_.append(*entry.avail_series, time, usage.available);
  modules_.dispatch_path_sample(path_keys_[path], time, usage);
}

void NetworkMonitor::emit_connection_sample(std::size_t connection,
                                            SimTime time,
                                            BytesPerSecond used) {
  hist::Series*& series = connection_series_.at(connection);
  if (series == nullptr) {
    series = &history_.series(hist::connection_series_key(connection));
  }
  history_.append(*series, time, used);
}

void NetworkMonitor::observe_path_age(SimDuration age) {
  path_sample_age_->observe(to_seconds(age));
}

const TimeSeries& NetworkMonitor::materialized_series(
    const std::string& key) const {
  TimeSeries& scratch = series_scratch_[key];
  scratch = TimeSeries();
  if (const hist::Series* series = history_.find(key)) {
    series->materialize_raw(scratch);
  }
  return scratch;
}

const TimeSeries* NetworkMonitor::connection_used_series(
    std::size_t connection) const {
  const std::string key = hist::connection_series_key(connection);
  if (history_.find(key) == nullptr) return nullptr;
  return &materialized_series(key);
}

std::size_t NetworkMonitor::path_index(const std::string& from,
                                       const std::string& to) const {
  for (std::size_t i = 0; i < path_keys_.size(); ++i) {
    if (same_pair(path_keys_[i], from, to)) return i;
  }
  throw std::out_of_range("path " + from + " <-> " + to + " not monitored");
}

const std::string& NetworkMonitor::path_series_key(std::size_t path,
                                                   PathMetric metric) const {
  const MonitoredPath& entry = paths_.at(path);
  return metric == PathMetric::kUsed ? entry.used_key : entry.avail_key;
}

const hist::Series* NetworkMonitor::path_series(std::size_t path,
                                                PathMetric metric) const {
  const MonitoredPath& entry = paths_.at(path);
  return metric == PathMetric::kUsed ? entry.used_series
                                     : entry.avail_series;
}

const TimeSeries& NetworkMonitor::used_series(const std::string& from,
                                              const std::string& to) const {
  return materialized_series(paths_[path_index(from, to)].used_key);
}

const TimeSeries& NetworkMonitor::available_series(
    const std::string& from, const std::string& to) const {
  return materialized_series(paths_[path_index(from, to)].avail_key);
}

PathUsage NetworkMonitor::evaluate_path(std::size_t path, SimTime now) const {
  const MonitoredPath& entry = paths_.at(path);
  UsageMemo& memo = entry.memo;
  if (!memo.valid || memo.db_version != db_->version() ||
      memo.plan_version != plan_.version()) {
    memo.usage = calculator_.path_usage(entry.path, *db_);
    memo.db_version = db_->version();
    memo.plan_version = plan_.version();
    memo.valid = true;
  }
  PathUsage usage = memo.usage;
  calculator_.apply_staleness(usage, *db_, now, effective_stale_after());
  if (failure_detector_ == nullptr) return usage;
  // Trap-driven link state overrides counters: a downed connection
  // means zero availability now, however fresh the last rates look.
  for (std::size_t ci : entry.path) {
    if (failure_detector_->connection_down(ci)) {
      usage.link_down = true;
      usage.complete = true;
      usage.available = 0.0;
      usage.bottleneck = ci;
      break;
    }
  }
  return usage;
}

PathUsage NetworkMonitor::current_usage(const std::string& from,
                                        const std::string& to) const {
  return current_usage(path_index(from, to));
}

PathUsage NetworkMonitor::current_usage(std::size_t path) const {
  return evaluate_path(path, sim_.now());
}

const topo::Path& NetworkMonitor::path_of(const std::string& from,
                                          const std::string& to) const {
  return paths_[path_index(from, to)].path;
}

}  // namespace netqos::mon
