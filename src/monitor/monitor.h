// The network QoS monitor — the paper's primary contribution.
//
// Runs on a monitoring station host (host L in the paper's testbed),
// obtains the topology from the specification file, resolves interface
// indices by walking each agent's ifTable, then polls every agent
// periodically over real (simulated) SNMP, maintains per-interface rate
// statistics, and evaluates per-path used/available bandwidth with the
// §3.3 hub/switch rules.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "history/store.h"
#include "monitor/bandwidth.h"
#include "monitor/failure.h"
#include "monitor/module.h"
#include "monitor/plan.h"
#include "monitor/scheduler.h"
#include "monitor/stats_db.h"
#include "netsim/host.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "snmp/client.h"
#include "snmp/table.h"
#include "snmp/walker.h"
#include "topology/path.h"

namespace netqos::mon {

struct MonitorConfig {
  /// Round cadence; must be positive.
  SimDuration poll_interval = 2 * kSecond;
  snmp::ClientConfig client = {.timeout = 500 * kMillisecond, .retries = 1};
  /// When non-empty, poll only these agent nodes. Used by the distributed
  /// extension to partition polling across monitor stations.
  std::vector<std::string> agent_allowlist;
  /// Poll the RFC 2863 high-capacity Counter64 octet columns instead of
  /// the paper's Counter32 ones — immune to the ~6-minute wrap at
  /// 100 Mbps. Requires agents that serve the ifXTable (ours do).
  bool use_hc_counters = false;
  /// Batch each agent's poll as one whole-ifTable GETBULK sweep
  /// (TablePoller) instead of one GET naming every resolved interface.
  /// O(1) request size per agent, no per-request varbind cap, and the
  /// interface-resolution walk prefetches ifNumber to pre-size its
  /// result. Changes wire traffic, so it is opt-in; the default GET path
  /// reproduces the paper's byte-exact poll exchange.
  bool batch_table_polls = false;
  /// Registry all monitor telemetry (and, unless overridden via
  /// client.metrics, the SNMP client's) lands in. Null means the monitor
  /// owns a private registry; pass a shared one to export a process-wide
  /// exposition. Monitor series carry a station="<host>" label so several
  /// stations can share one registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every poll round records a span with nested per-agent poll
  /// spans — the JSONL timeline of the monitor's own behavior.
  obs::SpanRecorder* spans = nullptr;
  /// Adaptive per-agent scheduling knobs (backoff base/cap, stagger,
  /// launch jitter, quarantine threshold). The scheduler's poll_interval
  /// is overwritten with `poll_interval` above — one cadence knob only.
  SchedulerConfig scheduler;
  /// Sample age beyond which a path report is flagged stale; not
  /// negative. 0 = 3 * poll_interval.
  SimDuration stale_after = 0;
  /// Multi-resolution retention for all history the monitor keeps (path
  /// used/available, per-connection usage, and — via its own StatsDb —
  /// per-interface rates). Memory is bounded by these ring capacities
  /// regardless of run length.
  hist::RetentionPolicy retention;
};

/// Snapshot of the monitor's health counters, assembled from the metrics
/// registry (the single source of truth).
struct MonitorStats {
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t rounds_failed = 0;  ///< completed with >= 1 failed poll
  std::uint64_t agent_polls = 0;
  std::uint64_t agent_poll_failures = 0;
  std::uint64_t resolve_failures = 0;
  std::uint64_t polls_skipped = 0;  ///< rounds where backoff held an agent out
  std::uint64_t quarantine_transitions = 0;
};

class NetworkMonitor : private ModuleCore {
 public:
  /// `station` is the host the monitor runs on; all SNMP traffic leaves
  /// through its UDP stack and therefore consumes real bandwidth. Throws
  /// std::invalid_argument for a config it cannot run with (see
  /// MonitorConfig and PollScheduler).
  NetworkMonitor(sim::Simulator& sim, const topo::NetworkTopology& topo,
                 sim::Host& station, MonitorConfig config = {});

  /// As above, but records samples into an external shared StatsDb (the
  /// distributed extension merges several pollers into one view). The db
  /// must outlive the monitor.
  NetworkMonitor(sim::Simulator& sim, const topo::NetworkTopology& topo,
                 sim::Host& station, StatsDb& shared_db,
                 MonitorConfig config);

  /// Registers a host pair. The communication path is computed with the
  /// paper's recursive traversal. Throws std::invalid_argument when no
  /// path exists. Paths are numbered in registration order: the index of
  /// the pair in monitored_paths().
  void add_path(const std::string& from, const std::string& to);

  /// Resolves ifIndexes (one ifTable walk per agent) and then begins
  /// periodic polling.
  void start();
  void stop();
  bool running() const { return running_; }

  /// Invoked from stop(), once per registered callback. Reporting sinks
  /// use this to flush buffered output.
  using StopCallback = std::function<void()>;
  void add_stop_callback(StopCallback callback) {
    stop_callbacks_.push_back(std::move(callback));
  }

  /// Invoked after every completed poll round, once per monitored path.
  /// Multiple consumers (reporting sinks, the QoS detector, the RM
  /// middleware) may subscribe. Each callback registers as an anonymous
  /// consumer module, so legacy subscribers and measurement modules
  /// share one delivery list ordered by registration — the subscription
  /// order the seed pipeline fired callbacks in.
  using SampleCallback =
      std::function<void(const PathKey&, SimTime, const PathUsage&)>;
  void add_sample_callback(SampleCallback callback) {
    modules_.add(std::make_unique<CallbackModule>("callback",
                                                  std::move(callback)));
  }

  /// The measurement-module registry: the built-in bandwidth producer is
  /// always first; detectors, sinks, and observer modules follow in
  /// registration order. Use add(unique_ptr) for monitor-owned modules
  /// and attach(ref) for externally owned ones.
  ModuleHost& modules() { return modules_; }
  const ModuleHost& modules() const { return modules_; }
  /// Shorthand for modules().add — registers a monitor-owned module.
  Module& add_module(std::unique_ptr<Module> module) {
    return modules_.add(std::move(module));
  }

  /// Bytes/sec used at the path bottleneck over time (the paper's
  /// "measured bandwidth usage" curves), materialized from the bounded
  /// history store's raw ring: a snapshot as of this call (re-fetch after
  /// advancing the simulation) holding at most the retention policy's raw
  /// capacity of samples. The reference stays valid until the next call
  /// for the same path.
  const TimeSeries& used_series(const std::string& from,
                                const std::string& to) const;
  /// Bytes/sec available (min over connections) over time; same
  /// materialized-snapshot semantics as used_series.
  const TimeSeries& available_series(const std::string& from,
                                     const std::string& to) const;

  /// The bounded multi-resolution store backing all path and connection
  /// history. Windowed min/mean/max/p95 queries go through here, keyed by
  /// hist::path_series_key / hist::connection_series_key.
  const hist::HistoryStore& history() const { return history_; }

  /// One of a monitored path's two history series.
  enum class PathMetric { kUsed, kAvailable };
  /// Store key of monitored path `path`'s series (hist::path_series_key),
  /// built once by add_path.
  const std::string& path_series_key(std::size_t path,
                                     PathMetric metric) const;
  /// That series, or null before this path's first sample. Appends and
  /// reads through it neither build nor look up a key.
  const hist::Series* path_series(std::size_t path, PathMetric metric) const;

  /// Current usage snapshot for a monitored path. Bit-identical to a
  /// fresh evaluation (the calculator's rules at now, then link state),
  /// but answered from a per-path memo of the rules' result while neither
  /// the StatsDb nor the plan has changed since: only the sample ages,
  /// freshness and link state are worked out again.
  PathUsage current_usage(const std::string& from,
                          const std::string& to) const;
  /// As above, for monitored path `path` (registration index).
  PathUsage current_usage(std::size_t path) const;

  /// Attaches trap-driven link-state knowledge: paths crossing a downed
  /// connection evaluate to zero available bandwidth (with `link_down`
  /// set) instead of reporting stale counters, and a linkUp trap clears
  /// any poll backoff on the endpoints' agents for an immediate re-probe.
  /// The detector must outlive the monitor.
  void set_failure_detector(FailureDetector* detector);

  /// Fired when a locally polled agent enters (true) or leaves (false)
  /// quarantine. The distributed extension uses this to mirror fallback
  /// measure points onto the worker that polls the fallback switch.
  using QuarantineCallback = std::function<void(const std::string&, bool)>;
  void add_quarantine_callback(QuarantineCallback callback) {
    quarantine_callbacks_.push_back(std::move(callback));
  }

  /// Applies a quarantine decision made by another monitor station: flips
  /// the plan's measure points (and this station's fallback polling)
  /// without touching the local scheduler's health state.
  void apply_external_quarantine(const std::string& node, bool quarantined);

  /// Takes over polling an agent mid-run (shard ownership handoff): the
  /// agent joins this station's scheduler healthy and immediately due,
  /// and its ifIndexes are resolved on first contact if unknown. Returns
  /// false when the agent is unknown to the plan or already polled here.
  bool adopt_agent(const std::string& node);
  /// Stops polling an agent handed off to another station. Resolved
  /// ifIndexes are kept so a later re-adoption polls without a new walk.
  /// Returns false when the agent is not polled here.
  bool release_agent(const std::string& node);

  /// Per-connection usage history (bytes/sec used) for connections on
  /// monitored paths, materialized from the bounded store like
  /// used_series. Returns nullptr before the first completed round
  /// touching that connection.
  const TimeSeries* connection_used_series(std::size_t connection) const;

  /// The traversed path for a registered pair.
  const topo::Path& path_of(const std::string& from,
                            const std::string& to) const;

  /// Host pairs registered via add_path, in registration order. The query
  /// engine enumerates these for health snapshots and path grouping.
  const std::vector<PathKey>& monitored_paths() const { return path_keys_; }

  const PollPlan& plan() const { return plan_; }
  const StatsDb& stats_db() const { return *db_; }
  /// Per-agent health/backoff state machine driving poll launches.
  const PollScheduler& scheduler() const { return *scheduler_; }
  /// The staleness bound in force (config override or 3 * poll_interval).
  SimDuration effective_stale_after() const;
  /// Agents this instance actually polls (after allowlist filtering).
  const std::vector<const AgentTask*>& polled_agents() const {
    return polled_agents_;
  }
  /// Health counters, read back from the metrics registry.
  MonitorStats stats() const;
  snmp::ClientStats client_stats() const { return client_.stats(); }
  /// The registry the monitor's instruments live in (own or shared).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const topo::NetworkTopology& topology() const override { return topo_; }
  /// Name of the station host this monitor polls from.
  const std::string& station() const override { return station_label_; }

 private:
  // ModuleCore: the read-only state and emission hooks measurement
  // modules see. Emissions route through the core so modules never touch
  // the HistoryStore (or each other) directly.
  const PollPlan& poll_plan() const override { return plan_; }
  const StatsDb& samples() const override { return *db_; }
  const BandwidthCalculator& calculator() const override {
    return calculator_;
  }
  const std::vector<WatchedPath>& watched_paths() const override {
    return watched_paths_;
  }
  SimDuration poll_interval() const override {
    return config_.poll_interval;
  }
  PathUsage evaluate_path(std::size_t path, SimTime now) const override;
  void emit_path_sample(std::size_t path, SimTime time,
                        const PathUsage& usage) override;
  void emit_connection_sample(std::size_t connection, SimTime time,
                              BytesPerSecond used) override;
  void observe_path_age(SimDuration age) override;

  /// A path's §3.3 evaluation without ages
  /// (BandwidthCalculator::path_usage(path, db)), as of a StatsDb and a
  /// plan version. Nothing else feeds the rules, so while both versions
  /// are unchanged the result is the same. Refreshed from const readers:
  /// the monitor, like the simulator driving it, is single-threaded.
  struct UsageMemo {
    bool valid = false;
    std::uint64_t db_version = 0;
    std::uint64_t plan_version = 0;
    PathUsage usage;
  };

  /// One registered path; its host pair is path_keys_ at the same index.
  struct MonitoredPath {
    topo::Path path;
    /// hist::path_series_key of the used and available series.
    std::string used_key;
    std::string avail_key;
    /// Those series in history_, resolved at the first append.
    hist::Series* used_series = nullptr;
    hist::Series* avail_series = nullptr;
    mutable UsageMemo memo;
  };

  struct Round {
    SimTime started = 0;
    std::size_t outstanding = 0;
    bool failed_any = false;
    obs::SpanRecorder::SpanId span = 0;
  };

  /// One interface a poll asks for.
  struct Target {
    PointId point = 0;
    std::uint32_t if_index = 0;
  };

  /// Everything kept per plan agent, polled here or not. Records are made
  /// once by the constructor and never erased, so a released agent keeps
  /// its ifIndexes, table poller and instruments for a re-adoption, and
  /// in-flight callbacks may hold a reference.
  struct Agent {
    const AgentTask* task = nullptr;
    bool polled = false;  ///< listed in polled_agents_
    /// ifDescr -> ifIndex, from the agent's resolution walk.
    std::unordered_map<std::string, std::uint32_t> if_indexes;
    /// §4.1 fallback points polled on top of task->points while a
    /// quarantine redirects measure points here.
    std::vector<PointId> fallbacks;
    /// What a poll asks for: task->points, then fallbacks, each point
    /// whose ifIndex the walk resolved. Rebuilt by update_targets.
    std::vector<Target> targets;
    /// The whole-table GETBULK collector (batch mode), made on first use.
    std::unique_ptr<snmp::TablePoller> table_poller;
    obs::HistogramMetric* rtt = nullptr;  ///< on the first answered poll
    obs::Gauge* health = nullptr;         ///< from start() or adoption
    obs::Gauge* backoff = nullptr;        ///< from start() or adoption
  };

  /// One agent poll in flight.
  struct Poll {
    std::vector<Target> targets;
    std::shared_ptr<Round> round;  ///< null for an out-of-round re-probe
    SimTime sample_time = 0;
    obs::SpanRecorder::SpanId span = 0;
  };

  NetworkMonitor(sim::Simulator& sim, const topo::NetworkTopology& topo,
                 sim::Host& station, StatsDb* shared_db, MonitorConfig config);

  void select_agents();
  void init_scheduler();
  void init_metrics(const std::string& station);
  /// Registers the agent's health and backoff gauges if needed and sets
  /// both to 0.
  void reset_agent_gauges(Agent& agent);
  /// Walks the next queued agent's ifDescr column; when the queue drains
  /// for the first time, schedules the first poll round.
  void pump_resolve_queue();
  void schedule_round(SimTime when);
  void run_round();
  /// Launches one poll of `agent`: a whole-table GETBULK sweep in batch
  /// mode, else one GET naming each target's counter cells. `round` may
  /// be null for an out-of-round re-probe (the sample is then stamped
  /// with the launch time).
  void poll_agent(Agent& agent, const std::shared_ptr<Round>& round);
  /// Records the answer's round trip in the agent's RTT histogram,
  /// ingests every target whose cells decode (StatsDb update, then
  /// interface-module dispatch), then charges the scheduler, the backoff
  /// gauge and the round; the poll fails if any target does not decode.
  /// `rtt` is nullopt for an unanswered poll and `uptime` when the answer
  /// is unusable as a whole; `cells_of(i)` returns target i's cells, or
  /// nullopt when the answer lacks them.
  template <typename CellsOf>
  void settle_poll(Agent& agent, const Poll& poll,
                   std::optional<SimDuration> rtt,
                   std::optional<std::uint32_t> uptime, CellsOf cells_of);
  /// Counts one launched-or-skipped agent out of its round.
  void count_out(const std::shared_ptr<Round>& round);
  void finish_round(const std::shared_ptr<Round>& round);
  void on_health_transition(const std::string& node, AgentHealth from,
                            AgentHealth to);
  void on_link_event(const LinkEvent& event);
  /// Rebuilds every agent's fallback points from the plan's current
  /// effective points, then its poll targets.
  void recompute_fallbacks();
  /// Rebuilds the agent's poll targets from its points and ifIndexes.
  void update_targets(Agent& agent);
  /// The record of an agent polled here, or null.
  Agent* polled_agent(const std::string& node);
  /// Registration index of the path joining `from` and `to`, in either
  /// order; throws std::out_of_range when not monitored.
  std::size_t path_index(const std::string& from,
                         const std::string& to) const;
  /// Materializes a store series into the named scratch slot, returning a
  /// reference that lives until the next materialization of that slot.
  const TimeSeries& materialized_series(const std::string& key) const;

  sim::Simulator& sim_;
  const topo::NetworkTopology& topo_;
  MonitorConfig config_;
  PollPlan plan_;
  // Telemetry precedes client_: the client's config may point into the
  // monitor's registry, so it must exist first.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_;  ///< own_metrics_ or config-provided
  std::string station_label_;
  obs::Counter* rounds_started_ = nullptr;
  obs::Counter* rounds_completed_ = nullptr;
  obs::Counter* rounds_failed_ = nullptr;
  obs::Counter* agent_polls_ = nullptr;
  obs::Counter* agent_poll_failures_ = nullptr;
  obs::Counter* resolve_failures_ = nullptr;
  obs::Counter* agent_polls_skipped_ = nullptr;
  obs::Counter* quarantine_transitions_ = nullptr;
  obs::HistogramMetric* round_duration_ = nullptr;
  obs::HistogramMetric* path_sample_age_ = nullptr;
  /// The counter columns each polled interface is read from, in
  /// CounterSample order: GET asks for column.ifIndex, GETBULK sweeps the
  /// columns whole.
  std::vector<snmp::Oid> counter_columns_;
  snmp::SnmpClient client_;
  snmp::SubtreeWalker walker_;
  BandwidthCalculator calculator_;
  StatsDb own_db_;
  StatsDb* db_;  ///< &own_db_ or the shared db
  std::vector<const AgentTask*> polled_agents_;
  /// node -> record, for every plan agent.
  std::unordered_map<std::string, Agent> agents_;
  // Built in the constructor body over polled_agents_ (hence the
  // indirection); never null after construction.
  std::unique_ptr<PollScheduler> scheduler_;

  std::vector<MonitoredPath> paths_;
  std::vector<PathKey> path_keys_;  ///< by path index
  /// Per-connection used-bandwidth series in history_, by connection
  /// index, resolved at the first append.
  std::vector<hist::Series*> connection_series_;

  bool running_ = false;
  // Agents awaiting their ifDescr resolution walk. The walker serves one
  // walk at a time, so the queue is pumped from each walk's callback;
  // agents adopted mid-run join the same queue.
  std::deque<Agent*> resolve_queue_;
  bool resolving_ = false;
  bool rounds_scheduled_ = false;
  sim::EventId next_round_event_ = 0;
  std::vector<StopCallback> stop_callbacks_;
  std::vector<QuarantineCallback> quarantine_callbacks_;
  const FailureDetector* failure_detector_ = nullptr;
  /// Bounded path/connection history (per-interface rates live in the
  /// StatsDb's own store).
  hist::HistoryStore history_;
  /// Scratch for the materialized TimeSeries views over store rings.
  mutable std::map<std::string, TimeSeries> series_scratch_;
  /// paths_ re-expressed for modules; rebuilt whenever paths_ changes
  /// (push_back may reallocate the Path storage the views point into).
  std::vector<WatchedPath> watched_paths_;
  /// The measurement modules: bandwidth producer first (registered by
  /// the constructor), then detectors/sinks/observers in registration
  /// order. Declared last so modules may hold references into the core
  /// during destruction.
  ModuleHost modules_;
};

}  // namespace netqos::mon
