#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "experiments/lirtss.h"
#include "experiments/shootout.h"
#include "history/store.h"
#include "loadgen/generator.h"
#include "monitor/distributed.h"
#include "netsim/background.h"
#include "netsim/network.h"
#include "netsim/services.h"
#include "obs/span.h"
#include "probe/hybrid.h"
#include "probe/registry.h"
#include "probe/sink.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/server.h"
#include "snmp/deploy.h"
#include "topology/generator.h"
#include "topology/path.h"

namespace wallbench {

using namespace netqos;

namespace {

/// Every workload polls, and cuts its repetition into slices, at this
/// cadence (the paper's 2 s poll interval).
constexpr SimDuration kPollInterval = 2 * kSecond;

/// Query clients ask for windows trailing the server's clock by this much.
constexpr SimDuration kQueryWindow = 10 * kSecond;

/// Bottleneck capacity of a path (bits/s), from the topology.
BitsPerSecond path_capacity(const topo::NetworkTopology& topo,
                            const topo::Path& path) {
  BitsPerSecond capacity = std::numeric_limits<BitsPerSecond>::max();
  for (const std::size_t connection : path) {
    capacity = std::min(
        capacity, connection_speed(topo, topo.connections()[connection]));
  }
  return capacity;
}

topo::Path traverse(const topo::NetworkTopology& topo,
                    const std::string& from, const std::string& to) {
  auto path = topo::traverse_recursive(topo, from, to);
  if (!path.has_value()) {
    throw std::logic_error("no path between " + from + " and " + to);
  }
  return *path;
}

/// Closed-loop query clients: each sends its next request a seeded
/// think time after the previous one completes, cycling through path
/// windows, host windows and health snapshots. Replies are checked as
/// they arrive.
class QueryFleet {
 public:
  struct Config {
    std::size_t clients = 1;
    SimDuration think_min = 0;
    SimDuration think_max = 0;
    SimTime begin = 0;
    SimTime end = 0;
    std::size_t paths = 0;   ///< monitored paths every health reply lists
    std::size_t agents = 0;  ///< polled agents every health reply lists
    /// Path-window replies whose window begins here or later are kept.
    SimTime keep_from = std::numeric_limits<SimTime>::max();
  };

  /// One row of a kept path-window reply.
  struct PathWindow {
    std::string key;
    SimTime begin = 0;
    SimTime end = 0;
    double mean = 0.0;
  };

  QueryFleet(sim::Simulator& sim, sim::Ipv4Address server,
             const std::vector<sim::Host*>& homes, Config config,
             std::uint64_t seed)
      : sim_(sim), config_(config), rng_(seed) {
    for (std::size_t i = 0; i < config_.clients; ++i) {
      auto client = std::make_unique<Client>();
      client->index = i;
      client->link = std::make_unique<query::QueryClient>(
          sim, *homes[i % homes.size()], server);
      Client* raw = client.get();
      clients_.push_back(std::move(client));
      // Staggered starts so the fleet never sends in lock step.
      sim.schedule_at(config_.begin + static_cast<SimDuration>(i) * 37 *
                                          kMillisecond,
                      [this, raw] { issue(*raw); });
    }
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& problem() const { return problem_; }
  const std::vector<PathWindow>& path_windows() const { return path_windows_; }

 private:
  struct Client {
    std::size_t index = 0;
    std::uint64_t iteration = 0;
    std::unique_ptr<query::QueryClient> link;
  };

  void issue(Client& client) {
    ++sent_;
    const std::uint64_t kind = (client.index + client.iteration) % 3;
    auto on_reply = [this, &client, kind](query::QueryResult result) {
      inspect(kind, result);
      ++client.iteration;
      const auto think = static_cast<SimDuration>(rng_.uniform(
          static_cast<double>(config_.think_min),
          static_cast<double>(config_.think_max)));
      if (sim_.now() + think < config_.end) {
        sim_.schedule_after(think, [this, &client] { issue(client); });
      }
    };
    if (kind == 2) {
      client.link->health(on_reply);
      return;
    }
    query::WindowRequest request;
    request.group = kind == 0 ? query::GroupBy::kPath : query::GroupBy::kHost;
    request.begin = -kQueryWindow;
    client.link->window(request, on_reply);
  }

  void inspect(std::uint64_t kind, const query::QueryResult& result) {
    if (!result.ok()) {
      ++failed_;
      note("query failed: " + result.error);
      return;
    }
    if (kind == 2) {
      const auto& health = result.message.health_response;
      if (health.paths.size() != config_.paths ||
          health.agents.size() != config_.agents) {
        note("health reply lists " + std::to_string(health.paths.size()) +
             " paths and " + std::to_string(health.agents.size()) +
             " agents");
      }
      return;
    }
    // After the first poll rounds every window holds samples.
    const query::WindowResponse& window = result.message.window_response;
    if (sim_.now() > config_.begin + 3 * kPollInterval &&
        window.rows.empty()) {
      note("empty window reply");
    }
    if (kind == 0 && window.begin >= config_.keep_from) {
      for (const query::WindowRow& row : window.rows) {
        path_windows_.push_back({row.key, window.begin, window.end, row.mean});
      }
    }
  }

  void note(const std::string& what) {
    if (problem_.empty()) problem_ = what;
  }

  sim::Simulator& sim_;
  Config config_;
  Xoshiro256 rng_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  std::string problem_;
  std::vector<PathWindow> path_windows_;
};

/// Available bandwidth along a path straight from the simulated links,
/// once per second: capacity minus what the links carried that was not
/// the estimators' own probing (all of it, with no estimators). The
/// shootout's ground truth.
class TruthSampler {
 public:
  TruthSampler(sim::Simulator& sim, const sim::Network& network,
               const topo::NetworkTopology& topo, topo::Path path,
               std::vector<const probe::Estimator*> estimators)
      : sim_(sim),
        network_(network),
        path_(std::move(path)),
        estimators_(std::move(estimators)) {
    for (const std::size_t connection : path_) {
      capacity_.push_back(to_bytes_per_second(
          connection_speed(topo, topo.connections()[connection])));
      previous_.push_back(network_.links()[connection]->octets_carried());
    }
    sim_.schedule_after(kSecond, [this] { sample(); });
  }

  /// Latest truth at or before `t` (bytes/s).
  double at(SimTime t) const {
    double value = series_.empty() ? 0.0 : series_.front().value;
    for (const TimePoint& point : series_) {
      if (point.time > t) break;
      value = point.value;
    }
    return value;
  }

  /// Mean of the samples taken in (begin, end].
  double mean_between(SimTime begin, SimTime end) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const TimePoint& point : series_) {
      if (point.time <= begin || point.time > end) continue;
      sum += point.value;
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  void sample() {
    std::uint64_t probe_bytes = 0;
    for (const probe::Estimator* estimator : estimators_) {
      probe_bytes += estimator->stats().probe_wire_bytes +
                     estimator->stats().report_wire_bytes;
    }
    const double probe_rate =
        static_cast<double>(probe_bytes - previous_probe_bytes_);
    previous_probe_bytes_ = probe_bytes;
    double truth = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < path_.size(); ++i) {
      const std::uint64_t octets =
          network_.links()[path_[i]]->octets_carried();
      const double cross = std::max(
          0.0, static_cast<double>(octets - previous_[i]) - probe_rate);
      previous_[i] = octets;
      truth = std::min(truth, std::max(0.0, capacity_[i] - cross));
    }
    series_.push_back({sim_.now(), truth});
    sim_.schedule_after(kSecond, [this] { sample(); });
  }

  sim::Simulator& sim_;
  const sim::Network& network_;
  topo::Path path_;
  std::vector<const probe::Estimator*> estimators_;
  std::vector<double> capacity_;
  std::vector<std::uint64_t> previous_;
  std::uint64_t previous_probe_bytes_ = 0;
  std::vector<TimePoint> series_;
};

/// Mean |estimate - truth| / capacity over samples after `warmup`.
double mean_abs_error(const std::vector<TimePoint>& estimates,
                      const TruthSampler& truth, double capacity,
                      SimTime warmup) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const TimePoint& point : estimates) {
    if (point.time < warmup) continue;
    sum += std::abs(point.value - truth.at(point.time)) / capacity;
    ++n;
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n);
}

std::vector<TimePoint> estimate_points(const probe::Estimator& estimator) {
  std::vector<TimePoint> points;
  for (const auto& sample : estimator.estimates()) {
    points.push_back({sample.time, sample.available});
  }
  return points;
}

/// Estimates inside [0, capacity] and enough of them.
std::string check_estimates(const probe::Estimator& estimator,
                            double capacity, std::size_t at_least) {
  if (estimator.estimates().size() < at_least) {
    return estimator.name() + ": " +
           std::to_string(estimator.estimates().size()) + " estimates";
  }
  for (const auto& sample : estimator.estimates()) {
    if (!(sample.available >= 0.0 && sample.available <= capacity)) {
      return estimator.name() + ": estimate " +
             std::to_string(sample.available) + " B/s outside [0, C]";
    }
  }
  return "";
}

/// Checks every workload shares: polls happened and none failed, and the
/// query clients saw only correct replies.
std::string check_polls_and_queries(const mon::MonitorStats& stats,
                                    const QueryFleet& queries) {
  if (stats.agent_polls == 0) return "no polls";
  if (stats.agent_poll_failures != 0) {
    return std::to_string(stats.agent_poll_failures) + " polls failed";
  }
  if (queries.sent() == 0) return "no queries";
  return queries.problem();
}

/// Poll, query and simulator work so far; the caller adds its probes.
Work base_work(const mon::MonitorStats& stats, const QueryFleet& queries,
               sim::Simulator& sim) {
  Work work;
  work.polls = stats.agent_polls;
  work.poll_failures = stats.agent_poll_failures;
  work.queries = queries.sent();
  work.query_failures = queries.failed();
  work.events = sim.events_executed();
  work.pool_acquires = sim.buffer_pool().stats().acquires;
  work.pool_reuses = sim.buffer_pool().stats().reuses;
  return work;
}

void add_probe_work(Work& work, const probe::Estimator& estimator) {
  work.probes += estimator.stats().probes_sent;
  work.probe_failures += estimator.stats().probe_send_failures;
}

// ---------------------------------------------------------------------
// fabric_poll

class FabricPoll final : public Scenario {
 public:
  /// bench/scale_monitor's 100-interface, 4-shard row. Its CI-gated
  /// 1000 interfaces take 140-300 ms of host time per poll interval, so a
  /// 20 s run holds only 80-110 of them; over five seeds their 95th
  /// percentile spread 27%, against 9% at 100 interfaces.
  static constexpr std::size_t kInterfaces = 100;
  static constexpr std::size_t kShards = 4;
  static constexpr SimTime kWarmup = 8 * kSecond;
  static constexpr SimTime kLength = 40 * kSecond;
  static constexpr SimTime kLoadStart = 2 * kSecond;
  /// check() compares readings with link truth from here to the end.
  static constexpr SimTime kCheckFrom = 12 * kSecond;

  explicit FabricPoll(std::uint64_t seed) : rng_(seed) {
    // The fabric, agents and sharded monitor are set up as
    // bench/scale_monitor sets them up; the seed draws the hosts' OS mix,
    // the agents' timing and the background chatter.
    topo::FabricConfig fabric;
    fabric.target_interfaces = kInterfaces;
    fabric.seed = rng_.next();
    topo_ = topo::generate_fabric(fabric);
    network_ = sim::build_network(sim_, topo_);
    snmp::DeployOptions deploy;
    deploy.agent.hiccup_probability = 0.0;
    deploy.agent.seed = rng_.next();
    agents_ = snmp::deploy_agents(sim_, *network_, topo_, deploy);

    const std::size_t leaves = topo::fabric_leaf_count(fabric);
    std::vector<sim::Host*> stations;
    for (std::size_t s = 0; s < kShards; ++s) {
      stations.push_back(&host(leaf_host(s % leaves, s / leaves)));
    }
    mon::DistributedConfig config;
    config.partition = mon::PartitionStrategy::kInterfaceWeighted;
    config.base.poll_interval = kPollInterval;
    config.base.batch_table_polls = true;
    config.base.spans = &spans_;
    config.base.scheduler.stagger = microseconds(200);
    monitor_ = std::make_unique<mon::DistributedMonitor>(sim_, topo_,
                                                         stations, config);

    // scale_monitor's watched path, carrying one fig5 load (200 KB/s).
    from_ = leaf_host(0, 2);
    to_ = leaf_host(leaves - 1, 2);
    monitor_->add_path(from_, to_);
    sink_service_ = std::make_unique<sim::DiscardService>(host(to_));
    load_ = std::make_unique<load::LoadGenerator>(
        sim_, host(from_), host(to_).ip(),
        load::RateProfile::pulse(kLoadStart, kLength,
                                 kilobytes_per_second(200)));

    // Ambient chatter at the LIRTSS testbed's rate, among all hosts.
    std::vector<sim::Host*> all_hosts;
    for (const auto& node : topo_.nodes()) {
      if (sim::Host* h = network_->find_host(node.name)) all_hosts.push_back(h);
    }
    sim::BackgroundConfig background;
    background.mean_rate = exp::TestbedOptions{}.background_rate;
    background.seed = rng_.next();
    background_ = std::make_unique<sim::BackgroundTraffic>(sim_, all_hosts,
                                                           background);

    // One operator console querying the coordinator station.
    engine_ = std::make_unique<query::QueryEngine>(monitor_->coordinator());
    server_ = std::make_unique<query::QueryServer>(sim_, *stations.front(),
                                                   *engine_);
    QueryFleet::Config fleet;
    fleet.clients = 1;
    fleet.think_min = kPollInterval;
    fleet.think_max = kPollInterval;
    fleet.begin = kLoadStart;
    fleet.end = kLength;
    fleet.paths = 1;
    fleet.agents = monitor_->coordinator().polled_agents().size();
    queries_ = std::make_unique<QueryFleet>(
        sim_, stations.front()->ip(),
        std::vector<sim::Host*>{&host(leaf_host(leaves - 1, 1))}, fleet,
        rng_.next());

    // One periodic-stream probe along the loaded path. Its reports also
    // teach the switches where the load's receiver is, so the load is
    // switched rather than flooded.
    sink_ = std::make_unique<probe::ProbeSink>(host(to_));
    const BitsPerSecond capacity =
        path_capacity(topo_, traverse(topo_, from_, to_));
    capacity_ = to_bytes_per_second(capacity);
    estimator_ = probe::make_estimator("periodic", host(from_),
                                       host(to_).ip(), {from_, to_, capacity});

    // Ground truth for check(): link octets when the checked window opens.
    sim_.schedule_at(kCheckFrom, [this] {
      for (const auto& link : network_->links()) {
        octets_at_check_.push_back(link->octets_carried());
      }
    });
    load_->start();
    background_->start();
    monitor_->start();
    estimator_->start();
  }

  SimTime warmup() const override { return kWarmup; }
  SimTime length() const override { return kLength; }
  void run_until(SimTime until) override { sim_.run_until(until); }

  std::string check() override {
    const std::string problem =
        check_polls_and_queries(monitor_->aggregate_stats(), *queries_);
    if (!problem.empty()) return problem;
    // The monitor's reading of every connection the load crosses must
    // match what that link really carried over the same window.
    const mon::NetworkMonitor& coordinator = monitor_->coordinator();
    for (const std::size_t connection : coordinator.path_of(from_, to_)) {
      const std::string bad = check_reading(
          connection, coordinator.connection_used_series(connection));
      if (!bad.empty()) return bad;
    }
    return check_estimates(*estimator_, capacity_, 3);
  }

  Work work() override {
    Work work = base_work(monitor_->aggregate_stats(), *queries_, sim_);
    add_probe_work(work, *estimator_);
    return work;
  }

 private:
  static std::string leaf_host(std::size_t leaf, std::size_t index) {
    return "leaf" + std::to_string(leaf) + "h" + std::to_string(index);
  }

  sim::Host& host(const std::string& name) {
    sim::Host* found = network_->find_host(name);
    if (found == nullptr) throw std::logic_error("no host " + name);
    return *found;
  }

  std::string check_reading(std::size_t connection, const TimeSeries* used) {
    const double truth =
        static_cast<double>(network_->links()[connection]->octets_carried() -
                            octets_at_check_[connection]) /
        to_seconds(kLength - kCheckFrom);
    const double reading =
        used == nullptr ? 0.0 : used->mean_between(kCheckFrom + 1, kLength + 1);
    if (std::abs(reading / truth - 1.0) < 0.05) return "";
    return "connection " + std::to_string(connection) + " reads " +
           std::to_string(reading) + " B/s, its link carried " +
           std::to_string(truth) + " B/s";
  }

  Xoshiro256 rng_;
  topo::NetworkTopology topo_;
  obs::SpanRecorder spans_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  std::vector<snmp::DeployedAgent> agents_;
  std::unique_ptr<mon::DistributedMonitor> monitor_;
  std::string from_;
  std::string to_;
  std::unique_ptr<sim::DiscardService> sink_service_;
  std::unique_ptr<load::LoadGenerator> load_;
  std::unique_ptr<sim::BackgroundTraffic> background_;
  std::unique_ptr<query::QueryEngine> engine_;
  std::unique_ptr<query::QueryServer> server_;
  std::unique_ptr<QueryFleet> queries_;
  std::unique_ptr<probe::ProbeSink> sink_;
  std::unique_ptr<probe::Estimator> estimator_;
  double capacity_ = 0.0;  ///< probed path, bytes/s
  std::vector<std::uint64_t> octets_at_check_;  ///< per link, at kCheckFrom
};

// ---------------------------------------------------------------------
// testbed_query

class TestbedQuery final : public Scenario {
 public:
  static constexpr std::size_t kClients = 32;
  static constexpr SimTime kLoadStart = 2 * kSecond;
  static constexpr SimTime kQueryStart = 4 * kSecond;
  /// Queries running and their trailing windows full.
  static constexpr SimTime kWarmup = kQueryStart + kQueryWindow + 2 * kSecond;
  static constexpr SimTime kLength = kWarmup + 60 * kSecond;
  /// Largest |served - true| available bandwidth a path window may show,
  /// as a share of the path's capacity (observed at most 0.0063).
  static constexpr double kWindowTolerance = 0.02;

  explicit TestbedQuery(std::uint64_t seed) : rng_(seed) {
    exp::TestbedOptions options;
    options.background_seed = rng_.next();
    options.spans = &spans_;
    testbed_ = std::make_unique<exp::LirtssTestbed>(options);
    sim::Simulator& sim = testbed_->simulator();

    // The fig5 traffic pattern, steady: the station loads both hub hosts
    // at seeded rates for the whole repetition.
    for (const char* target : {"N1", "N2"}) {
      testbed_->add_load("L", target,
                         load::RateProfile::pulse(
                             kLoadStart, kLength,
                             rng_.uniform(100'000.0, 300'000.0)));
    }
    testbed_->watch("S1", "N1").watch("S1", "N2");

    engine_ = std::make_unique<query::QueryEngine>(testbed_->monitor());
    server_ = std::make_unique<query::QueryServer>(sim, testbed_->host("L"),
                                                   *engine_);
    std::vector<sim::Host*> homes;
    for (const char* name : {"S2", "S3", "S4", "S5", "S6"}) {
      homes.push_back(&testbed_->host(name));
    }
    QueryFleet::Config fleet;
    fleet.clients = kClients;
    fleet.think_min = 200 * kMillisecond;
    fleet.think_max = 300 * kMillisecond;
    fleet.begin = kQueryStart;
    fleet.end = kLength;
    fleet.paths = 2;
    fleet.agents = testbed_->monitor().polled_agents().size();
    fleet.keep_from = kWarmup - kQueryWindow;
    queries_ = std::make_unique<QueryFleet>(sim, testbed_->host("L").ip(),
                                            homes, fleet, rng_.next());
    for (const char* target : {"N1", "N2"}) {
      const topo::Path path = traverse(testbed_->topology(), "S1", target);
      Watched& watched =
          watched_[hist::path_series_key("S1", target, "avail")];
      watched.capacity =
          to_bytes_per_second(path_capacity(testbed_->topology(), path));
      watched.truth = std::make_unique<TruthSampler>(
          sim, testbed_->network(), testbed_->topology(), path,
          std::vector<const probe::Estimator*>{});
    }

    sink_ = std::make_unique<probe::ProbeSink>(testbed_->host("N1"));
    const BitsPerSecond capacity = path_capacity(
        testbed_->topology(), traverse(testbed_->topology(), "S1", "N1"));
    capacity_ = to_bytes_per_second(capacity);
    estimator_ = probe::make_estimator("periodic", testbed_->host("S1"),
                                       testbed_->host("N1").ip(),
                                       {"S1", "N1", capacity});
    estimator_->start();
  }

  SimTime warmup() const override { return kWarmup; }
  SimTime length() const override { return kLength; }
  void run_until(SimTime until) override { testbed_->run_until(until); }

  std::string check() override {
    const std::string problem =
        check_polls_and_queries(testbed_->monitor().stats(), *queries_);
    if (!problem.empty()) return problem;
    // Every path window the clients were served reports the available
    // bandwidth the links really had over that window (the monitor's
    // samples there measure the poll interval before each).
    std::size_t checked = 0;
    for (const QueryFleet::PathWindow& row : queries_->path_windows()) {
      const auto found = watched_.find(row.key);
      if (found == watched_.end()) continue;
      const Watched& watched = found->second;
      const double truth =
          watched.truth->mean_between(row.begin - kPollInterval, row.end);
      const double error = std::abs(row.mean - truth) / watched.capacity;
      if (!(error < kWindowTolerance)) {
        return row.key + " over [" + std::to_string(to_seconds(row.begin)) +
               ", " + std::to_string(to_seconds(row.end)) + ") s reads " +
               std::to_string(row.mean) + " B/s, its links had " +
               std::to_string(truth) + " B/s";
      }
      ++checked;
    }
    if (checked == 0) return "no path window replies to check";
    return check_estimates(*estimator_, capacity_, 3);
  }

  Work work() override {
    Work work = base_work(testbed_->monitor().stats(), *queries_,
                          testbed_->simulator());
    add_probe_work(work, *estimator_);
    return work;
  }

 private:
  struct Watched {
    double capacity = 0.0;  ///< bottleneck, bytes/s
    std::unique_ptr<TruthSampler> truth;
  };

  Xoshiro256 rng_;
  obs::SpanRecorder spans_;
  std::unique_ptr<exp::LirtssTestbed> testbed_;
  std::unique_ptr<query::QueryEngine> engine_;
  std::unique_ptr<query::QueryServer> server_;
  std::unique_ptr<QueryFleet> queries_;
  std::map<std::string, Watched> watched_;  ///< by "avail" series key
  std::unique_ptr<probe::ProbeSink> sink_;
  std::unique_ptr<probe::Estimator> estimator_;
  double capacity_ = 0.0;  ///< bytes/s
};

// ---------------------------------------------------------------------
// hidden_cross_probe

class HiddenCrossProbe final : public Scenario {
 public:
  /// Estimates before this are cold-start noise (the shootout's warmup).
  static constexpr SimTime kWarmup = 30 * kSecond;
  static constexpr SimTime kLength = kWarmup + 60 * kSecond;

  explicit HiddenCrossProbe(std::uint64_t seed) : rng_(seed) {
    exp::TestbedOptions options;
    options.background_seed = rng_.next();
    options.spec_text = exp::hidden_cross_spec_text();
    options.spans = &spans_;
    testbed_ = std::make_unique<exp::LirtssTestbed>(options);
    sim::Simulator& sim = testbed_->simulator();
    testbed_->watch("S1", "N1");

    // Seeded on/off bursts between the agentless hub hosts: no polled
    // counter sees them, every probe crossing the hub does.
    testbed_->add_load("X1", "X2",
                       load::RateProfile::random_bursts(
                           5 * kSecond, kLength - 5 * kSecond, 500'000.0,
                           5 * kSecond, 4 * kSecond, rng_.next()));

    const topo::Path path = traverse(testbed_->topology(), "S1", "N1");
    const BitsPerSecond capacity = path_capacity(testbed_->topology(), path);
    capacity_ = to_bytes_per_second(capacity);
    sink_ = std::make_unique<probe::ProbeSink>(testbed_->host("N1"));
    std::vector<const probe::Estimator*> probing;
    for (const std::string& name : probe::available_estimators()) {
      estimators_.push_back(probe::make_estimator(
          name, testbed_->host("S1"), testbed_->host("N1").ip(),
          {"S1", "N1", capacity}));
      probing.push_back(estimators_.back().get());
    }
    // As netqosmon --probe wires it: the hybrid module cross-checks the
    // first estimator on the path, "pair" in registry order.
    auto hybrid = std::make_unique<probe::HybridEstimator>();
    hybrid_ = hybrid.get();
    hybrid_->set_estimator(*estimators_.front());
    testbed_->monitor().add_module(std::move(hybrid));
    // The passive contestant: the monitor's own path availability.
    testbed_->monitor().add_sample_callback(
        [this](const mon::PathKey&, SimTime time, const mon::PathUsage& usage) {
          passive_.push_back({time, usage.available});
        });
    truth_ = std::make_unique<TruthSampler>(sim, testbed_->network(),
                                            testbed_->topology(), path,
                                            probing);

    engine_ = std::make_unique<query::QueryEngine>(testbed_->monitor());
    server_ = std::make_unique<query::QueryServer>(sim, testbed_->host("L"),
                                                   *engine_);
    QueryFleet::Config fleet;
    fleet.clients = 1;
    fleet.think_min = 1 * kSecond;
    fleet.think_max = 3 * kSecond;
    fleet.begin = 4 * kSecond;
    fleet.end = kLength;
    fleet.paths = 1;
    fleet.agents = testbed_->monitor().polled_agents().size();
    queries_ = std::make_unique<QueryFleet>(
        sim, testbed_->host("L").ip(),
        std::vector<sim::Host*>{&testbed_->host("S3")}, fleet, rng_.next());

    for (auto& estimator : estimators_) estimator->start();
  }

  SimTime warmup() const override { return kWarmup; }
  SimTime length() const override { return kLength; }
  void run_until(SimTime until) override { testbed_->run_until(until); }

  std::string check() override {
    const std::string problem =
        check_polls_and_queries(testbed_->monitor().stats(), *queries_);
    if (!problem.empty()) return problem;
    if (hybrid_->cross_checks() == 0) return "hybrid module never cross-checked";
    // One repetition's errors swing with its seeded bursts (best probe
    // 0.04-0.17 C, passive 0.08-0.24 C over ~950 repetitions), so
    // check_run() judges their means over the run.
    best_error_ = 1.0;
    for (const auto& estimator : estimators_) {
      const std::string bad = check_estimates(*estimator, capacity_, 5);
      if (!bad.empty()) return bad;
      best_error_ =
          std::min(best_error_, mean_abs_error(estimate_points(*estimator),
                                               *truth_, capacity_, kWarmup));
    }
    passive_error_ = mean_abs_error(passive_, *truth_, capacity_, kWarmup);
    scored_ = 1;
    return "";
  }

  Work work() override {
    Work work = base_work(testbed_->monitor().stats(), *queries_,
                          testbed_->simulator());
    for (const auto& estimator : estimators_) add_probe_work(work, *estimator);
    work.scored = scored_;
    work.probe_error = best_error_;
    work.passive_error = passive_error_;
    return work;
  }

 private:
  Xoshiro256 rng_;
  obs::SpanRecorder spans_;
  std::unique_ptr<exp::LirtssTestbed> testbed_;
  double capacity_ = 0.0;  ///< bytes/s
  std::unique_ptr<probe::ProbeSink> sink_;
  std::vector<std::unique_ptr<probe::Estimator>> estimators_;
  probe::HybridEstimator* hybrid_ = nullptr;  ///< owned by the monitor
  std::unique_ptr<TruthSampler> truth_;
  std::vector<TimePoint> passive_;  ///< the monitor's S1 -> N1 availability
  std::uint64_t scored_ = 0;     ///< 1 once check() has scored the errors
  double best_error_ = 0.0;      ///< best estimator's, share of capacity
  double passive_error_ = 0.0;   ///< the monitor's own, share of capacity
  std::unique_ptr<query::QueryEngine> engine_;
  std::unique_ptr<query::QueryServer> server_;
  std::unique_ptr<QueryFleet> queries_;
};

}  // namespace

std::string check_run(const std::string& workload, const Work& total) {
  if (workload != "hidden_cross_probe") return "";
  if (total.scored == 0) return "no repetition scored";
  // Probes feel the cross traffic no polled counter reports: over a run
  // the best estimator's mean error (observed 0.079-0.083 C) must beat
  // the monitor's own (0.14-0.15 C) and stay under kBestMeanError, below
  // the shootout's passive row (0.161 C).
  constexpr double kBestMeanError = 0.12;
  const double scored = static_cast<double>(total.scored);
  const double best = total.probe_error / scored;
  const double passive = total.passive_error / scored;
  if (best < passive && best < kBestMeanError) return "";
  return "mean best probe error " + std::to_string(best) +
         " of capacity, passive " + std::to_string(passive);
}

std::unique_ptr<Scenario> make_scenario(const std::string& workload,
                                        std::uint64_t seed) {
  if (workload == "fabric_poll") return std::make_unique<FabricPoll>(seed);
  if (workload == "testbed_query") return std::make_unique<TestbedQuery>(seed);
  if (workload == "hidden_cross_probe") {
    return std::make_unique<HiddenCrossProbe>(seed);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace wallbench
