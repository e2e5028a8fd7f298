// netqosmon — file-driven monitoring tool.
//
// Usage:
//   netqosmon [SPEC_FILE] [FROM TO]... [--seconds N] [--poll MS]
//             [--backoff-base X] [--backoff-cap MS] [--stagger MS]
//             [--load SRC DST KBPS START END]...
//             [--metrics-out FILE] [--trace-out FILE]
//             [--metrics-jsonl FILE]
//             [--history-retention SECS] [--forecast-horizon SECS]
//             [--serve] [--modules LIST] [--probe LIST]
//
// Reads a specification file (default: the built-in LIRTSS testbed),
// builds the simulated network, deploys agents per the spec, registers
// the given host pairs (default: every qos-block path), optionally drives
// synthetic loads, runs for N simulated seconds, and prints per-path CSV
// plus a summary. Demonstrates using the library from configuration
// rather than code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_number.h"
#include "cli_probes.h"
#include "common/log.h"
#include "experiments/lirtss.h"
#include "history/forecast.h"
#include "history/store.h"
#include "monitor/modules/registry.h"
#include "monitor/qos.h"
#include "monitor/report.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "probe/hybrid.h"
#include "query/engine.h"
#include "query/server.h"
#include "spec/testbed.h"

using namespace netqos;

namespace {

struct LoadSpec {
  std::string src, dst;
  double kbps = 0;
  double start_s = 0, end_s = 0;
};

struct Options {
  std::string spec_path;  // empty = built-in testbed
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<LoadSpec> loads;
  double seconds_to_run = 60;
  double poll_ms = 2000;
  double backoff_base = 2.0;  // 1 disables adaptive backoff
  double backoff_cap_ms = 0;  // 0 = 8 * poll interval
  double stagger_ms = 0;      // per-agent launch phase within a round
  std::string metrics_out;  // Prometheus text exposition, empty = off
  std::string trace_out;    // Chrome trace-event JSONL, empty = off
  // JSONL metrics snapshot written by the stop-flush sink (flushed by
  // monitor.stop(), not by an explicit call after the run).
  std::string metrics_jsonl;
  double history_retention_s = 0;  // raw-span for the history store, 0 = default
  double forecast_horizon_s = 0;   // predictive warnings, 0 = off
  bool serve = false;  // bind the query service on the station
  /// Comma-separated measurement modules to enable ("all" = every
  /// registry module). Empty leaves the default pipeline untouched, so
  /// output stays bit-identical to runs predating the module layer.
  std::string modules;
  /// Comma-separated active estimators ("pair,train,periodic" or "all")
  /// probing every monitored pair. Empty = no probe traffic, keeping
  /// plain runs bit-identical to builds predating the probe subsystem.
  std::string probe;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [SPEC_FILE] [FROM TO]... [--seconds N] "
               "[--poll MS] [--backoff-base X] [--backoff-cap MS] "
               "[--stagger MS] [--load SRC DST KBPS START END]... "
               "[--metrics-out FILE] [--trace-out FILE] "
               "[--metrics-jsonl FILE] "
               "[--history-retention SECS] [--forecast-horizon SECS] "
               "[--serve] [--modules LIST] [--probe LIST]\n",
               argv0);
  std::exit(2);
}

/// A configuration the library refused (std::invalid_argument): the
/// reason, then the usage text and exit status 2.
[[noreturn]] void reject(const char* argv0, const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  usage(argv0);
}

Options parse_args(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(argv[0]);
      }
      return argv[i];
    };
    // A number: the whole token, finite and in [min, max]. Times must
    // also fit the simulated clock; the monitor judges the rest.
    auto number = [&](const char* what, double min, double max) {
      const auto value = cli::parse_number(what, next(what), min, max);
      if (!value.has_value()) usage(argv[0]);
      return *value;
    };
    constexpr double kMaxSeconds = cli::kMaxFlagSeconds;
    constexpr double kMaxMs = cli::kMaxFlagSeconds * 1000.0;
    constexpr double kAny = std::numeric_limits<double>::max();
    if (arg == "--seconds") {
      options.seconds_to_run = number("--seconds", 0, kMaxSeconds);
    } else if (arg == "--poll") {
      options.poll_ms = number("--poll", 0, kMaxMs);
    } else if (arg == "--backoff-base") {
      options.backoff_base = number("--backoff-base", -kAny, kAny);
    } else if (arg == "--backoff-cap") {
      options.backoff_cap_ms = number("--backoff-cap", 0, kMaxMs);
    } else if (arg == "--stagger") {
      options.stagger_ms = number("--stagger", 0, kMaxMs);
    } else if (arg == "--load") {
      LoadSpec load;
      load.src = next("--load SRC");
      load.dst = next("--load DST");
      load.kbps = number("--load KBPS", 0, kAny);
      load.start_s = number("--load START", 0, kMaxSeconds);
      load.end_s = number("--load END", 0, kMaxSeconds);
      options.loads.push_back(std::move(load));
    } else if (arg == "--metrics-out") {
      options.metrics_out = next("--metrics-out");
    } else if (arg == "--trace-out") {
      options.trace_out = next("--trace-out");
    } else if (arg == "--metrics-jsonl") {
      options.metrics_jsonl = next("--metrics-jsonl");
    } else if (arg == "--history-retention") {
      options.history_retention_s =
          number("--history-retention", 0, kMaxSeconds);
    } else if (arg == "--forecast-horizon") {
      options.forecast_horizon_s =
          number("--forecast-horizon", 0, kMaxSeconds);
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg == "--modules") {
      options.modules = next("--modules");
    } else if (arg == "--probe") {
      options.probe = next("--probe");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (arg.size() > 1 && arg[0] == '-') {
      // Not a host name or spec file: taking it as one would only fail
      // later as "no communication path".
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  std::size_t start = 0;
  if (!positional.empty() && positional[0].find('.') != std::string::npos &&
      positional.size() % 2 == 1) {
    options.spec_path = positional[0];
    start = 1;
  }
  for (std::size_t i = start; i + 1 < positional.size(); i += 2) {
    options.pairs.emplace_back(positional[i], positional[i + 1]);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);

  spec::SpecFile specfile;
  try {
    specfile = options.spec_path.empty()
                   ? spec::lirtss_testbed()
                   : spec::parse_spec_file(options.spec_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("# network '%s': %zu nodes, %zu connections\n",
              specfile.network_name.c_str(), specfile.topology.nodes().size(),
              specfile.topology.connections().size());

  sim::Simulator simulator;
  std::unique_ptr<sim::Network> network;
  try {
    network = sim::build_network(simulator, specfile.topology);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error building network: %s\n", e.what());
    return 1;
  }
  auto agents = snmp::deploy_agents(simulator, *network, specfile.topology);
  std::printf("# deployed %zu SNMP agents\n", agents.size());

  // The monitor runs on the first SNMP-capable host.
  sim::Host* station = nullptr;
  for (const auto& node : specfile.topology.nodes()) {
    if (node.snmp_enabled && node.kind == topo::NodeKind::kHost) {
      station = network->find_host(node.name);
      break;
    }
  }
  if (station == nullptr) {
    std::fprintf(stderr, "error: no SNMP-capable host to run on\n");
    return 1;
  }
  std::printf("# monitoring station: %s\n", station->name().c_str());

  // One shared registry across every layer; spans capture poll rounds.
  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  simulator.attach_metrics(registry);
  network->attach_metrics(registry);
  Log::set_time_source([&simulator] { return simulator.now(); });

  mon::MonitorConfig config;
  config.poll_interval = from_seconds(options.poll_ms / 1000.0);
  config.scheduler.backoff_base = options.backoff_base;
  config.scheduler.backoff_cap =
      from_seconds(options.backoff_cap_ms / 1000.0);
  config.scheduler.stagger = from_seconds(options.stagger_ms / 1000.0);
  config.metrics = &registry;
  if (!options.trace_out.empty()) config.spans = &spans;
  // The monitor (and the retention policy) refuse what they cannot run
  // with, such as a poll interval that rounds to 0 ns.
  std::unique_ptr<mon::NetworkMonitor> owned_monitor;
  try {
    if (options.history_retention_s > 0) {
      config.retention = hist::RetentionPolicy::for_span(
          from_seconds(options.history_retention_s), config.poll_interval);
    }
    owned_monitor = std::make_unique<mon::NetworkMonitor>(
        simulator, specfile.topology, *station, config);
  } catch (const std::invalid_argument& e) {
    reject(argv[0], e);
  }
  mon::NetworkMonitor& monitor = *owned_monitor;

  // Paths: CLI pairs, else the spec's qos block, else fail.
  auto pairs = options.pairs;
  if (pairs.empty()) {
    for (const auto& req : specfile.qos) {
      pairs.emplace_back(req.from, req.to);
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr,
                 "error: no host pairs (give FROM TO or a qos block)\n");
    return 1;
  }
  for (const auto& [from, to] : pairs) {
    try {
      monitor.add_path(from, to);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // Opt-in measurement modules. Resolved by name through the registry;
  // with no --modules the pipeline (and its stdout) is exactly the
  // pre-module-layer one.
  std::vector<std::string> module_names;
  if (!options.modules.empty()) {
    try {
      for (auto& module : mon::make_modules(options.modules)) {
        module_names.push_back(module->name());
        monitor.add_module(std::move(module));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("# modules enabled: %zu\n", module_names.size());
  }

  // QoS requirements from the spec drive violation reporting.
  mon::ViolationDetector detector(monitor);
  for (const auto& req : specfile.qos) {
    detector.add_requirement(req.from, req.to,
                             to_bytes_per_second(req.min_available_bps));
  }
  detector.add_event_callback([](const mon::QosEvent& event) {
    std::printf("# t=%.1fs QoS %s: %s <-> %s (available %.0f KB/s)\n",
                to_seconds(event.time),
                event.kind == mon::QosEvent::Kind::kViolation ? "VIOLATION"
                                                              : "recovery",
                event.path.first.c_str(), event.path.second.c_str(),
                event.available / 1000.0);
  });

  // Optional predictive early warnings on the spec's requirements.
  std::unique_ptr<mon::PredictiveDetector> predictive;
  if (options.forecast_horizon_s > 0) {
    mon::PredictiveConfig pconfig;
    pconfig.horizon = from_seconds(options.forecast_horizon_s);
    predictive =
        std::make_unique<mon::PredictiveDetector>(monitor, pconfig);
    for (const auto& req : specfile.qos) {
      predictive->add_requirement(req.from, req.to,
                                  to_bytes_per_second(req.min_available_bps));
    }
    predictive->add_event_callback([](const mon::PredictiveEvent& event) {
      if (event.kind == mon::PredictiveEvent::Kind::kEarlyWarning) {
        std::string eta;
        if (event.predicted_in) {
          eta = ", crossing in ~" +
                std::to_string(static_cast<int>(
                    to_seconds(*event.predicted_in))) +
                "s";
        }
        std::printf("# t=%.1fs QoS EARLY WARNING: %s <-> %s (available "
                    "%.0f KB/s, forecast %.0f KB/s%s)\n",
                    to_seconds(event.time), event.path.first.c_str(),
                    event.path.second.c_str(), event.available / 1000.0,
                    event.forecast / 1000.0, eta.c_str());
      } else {
        std::printf("# t=%.1fs QoS all-clear: %s <-> %s (forecast "
                    "%.0f KB/s)\n",
                    to_seconds(event.time), event.path.first.c_str(),
                    event.path.second.c_str(), event.forecast / 1000.0);
      }
    });
  }

  // Active probing: per --probe, every monitored pair gets each listed
  // estimator injecting real traffic from its source host, plus a hybrid
  // cross-check module feeding confidence into the predictive detector
  // (when one is running). Without --probe nothing here executes and no
  // probe byte exists anywhere in the simulation.
  cli::ProbeSet probes;
  if (!options.probe.empty()) {
    try {
      probes = cli::start_probes(
          specfile.topology, *network, pairs, options.probe, &registry,
          [&](probe::Estimator& first) {
            if (predictive == nullptr) return;
            auto hybrid = std::make_unique<probe::HybridEstimator>();
            hybrid->set_estimator(first);
            hybrid->set_detector(*predictive);
            monitor.add_module(std::move(hybrid));
          });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("# probing %zu paths with %zu estimators\n", pairs.size(),
                probes.estimators.size());
  }

  // Query service: binds the well-known port on the station so external
  // tooling (netqosctl) can interrogate the monitor over the simulated
  // network. Without clients it generates no traffic, so results are
  // identical with or without --serve.
  std::unique_ptr<query::QueryEngine> engine;
  std::unique_ptr<query::QueryServer> server;
  if (options.serve) {
    engine = std::make_unique<query::QueryEngine>(monitor);
    server = std::make_unique<query::QueryServer>(simulator, *station,
                                                  *engine);
    server->attach(detector);
    if (predictive != nullptr) server->attach(*predictive);
    server->attach_agent_events(monitor);
    if (!probes.estimators.empty()) {
      engine->set_probe_status_provider(
          [&probes] { return probes.status_rows(); });
    }
    std::printf("# query server: %s udp/%u\n", station->name().c_str(),
                server->port());
  }

  // Services + loads.
  std::vector<std::unique_ptr<sim::DiscardService>> discards;
  std::vector<sim::Host*> hosts;
  for (const auto& node : specfile.topology.nodes()) {
    if (auto* host = network->find_host(node.name)) {
      hosts.push_back(host);
      discards.push_back(std::make_unique<sim::DiscardService>(*host));
    }
  }
  std::vector<std::unique_ptr<load::LoadGenerator>> generators;
  for (const auto& load_spec : options.loads) {
    sim::Host* src = network->find_host(load_spec.src);
    sim::Host* dst = network->find_host(load_spec.dst);
    if (src == nullptr || dst == nullptr) {
      std::fprintf(stderr, "error: unknown load host\n");
      return 1;
    }
    try {
      generators.push_back(std::make_unique<load::LoadGenerator>(
          simulator, *src, dst->ip(),
          load::RateProfile::pulse(from_seconds(load_spec.start_s),
                                   from_seconds(load_spec.end_s),
                                   load_spec.kbps * 1000.0)));
    } catch (const std::invalid_argument& e) {
      reject(argv[0], e);  // END before START, or an unpaceable rate
    }
    generators.back()->start();
  }
  std::unique_ptr<sim::BackgroundTraffic> background;
  if (hosts.size() >= 2) {
    background = std::make_unique<sim::BackgroundTraffic>(
        simulator, hosts, sim::BackgroundConfig{});
    background->start();
  }

  mon::CsvSink sink(monitor, std::cout);

  // The JSONL sink flushes through monitor.stop() — no explicit render
  // below.
  std::ofstream metrics_jsonl_out;
  std::unique_ptr<mon::MetricsJsonlSink> metrics_jsonl_sink;
  if (!options.metrics_jsonl.empty()) {
    metrics_jsonl_out.open(options.metrics_jsonl);
    if (!metrics_jsonl_out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.metrics_jsonl.c_str());
      return 1;
    }
    metrics_jsonl_sink = std::make_unique<mon::MetricsJsonlSink>(
        monitor, registry, metrics_jsonl_out);
  }

  monitor.start();
  simulator.run_until(from_seconds(options.seconds_to_run));
  monitor.stop();

  if (!options.metrics_out.empty()) {
    std::ofstream out(options.metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.metrics_out.c_str());
      return 1;
    }
    registry.collect();
    registry.render_prometheus(out);
    std::printf("# wrote %zu metric families to %s\n",
                registry.family_count(), options.metrics_out.c_str());
  }
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    spans.write_jsonl(out);
    std::printf("# wrote %zu spans to %s\n", spans.spans().size(),
                options.trace_out.c_str());
  }
  if (metrics_jsonl_sink) {
    std::printf("# wrote metrics JSONL to %s (flushed on stop)\n",
                options.metrics_jsonl.c_str());
  }

  // Per-agent health summary: anything other than a clean healthy state
  // is worth a line, as is any path whose final report went stale.
  for (const auto& agent : monitor.scheduler().agents()) {
    if (agent.health == mon::AgentHealth::kHealthy && agent.failures == 0) {
      continue;
    }
    std::printf("# agent %s: %s, %llu/%llu polls failed, %llu quarantines\n",
                agent.node.c_str(), mon::agent_health_name(agent.health),
                static_cast<unsigned long long>(agent.failures),
                static_cast<unsigned long long>(agent.polls),
                static_cast<unsigned long long>(agent.quarantines));
  }
  for (const auto& [from, to] : pairs) {
    const mon::PathUsage usage = monitor.current_usage(from, to);
    if (usage.freshness == mon::Freshness::kFresh) continue;
    std::printf("# path %s <-> %s: %s (oldest sample %.1fs)\n", from.c_str(),
                to.c_str(), mon::freshness_name(usage.freshness),
                to_seconds(usage.max_sample_age));
  }

  // History dump: per-pair windowed summary of available bandwidth over
  // the whole run, answered from the bounded multi-resolution store, plus
  // the Holt trend over the final minute.
  const SimTime run_end = simulator.now();
  std::printf("# history store: %zu series, %zu bytes (bounded)\n",
              monitor.history().series_count(),
              monitor.history().footprint_bytes());
  for (const auto& [from, to] : pairs) {
    const std::string key = hist::path_series_key(from, to, "avail");
    const hist::WindowSummary window =
        monitor.history().query(key, 0, run_end);
    if (window.samples == 0) continue;
    const TimeSeries& avail = monitor.available_series(from, to);
    const SimTime trend_begin =
        run_end > seconds(60) ? run_end - seconds(60) : 0;
    const double trend = to_kilobytes_per_second(
        hist::holt_trend_per_second(avail, trend_begin, run_end));
    std::printf("# history %s <-> %s: avail min %.0f mean %.0f max %.0f "
                "p95 %.0f KB/s over %zu samples (res %.0fs), trend "
                "%+.1f KB/s per s\n",
                from.c_str(), to.c_str(),
                to_kilobytes_per_second(window.min),
                to_kilobytes_per_second(window.mean),
                to_kilobytes_per_second(window.max),
                to_kilobytes_per_second(window.p95), window.samples,
                to_seconds(window.resolution), trend);
  }
  if (predictive != nullptr) {
    std::printf("# predictive: %zu early warnings, %zu events total\n",
                predictive->warning_count(), predictive->events().size());
  }

  // End-of-run probe summary — printed only under --probe, so a plain
  // run's stdout stays bit-identical.
  for (const auto& estimator : probes.estimators) {
    estimator->stop();
    const auto& pstats = estimator->stats();
    const auto latest = estimator->latest();
    const std::string est_kb =
        latest.has_value()
            ? std::to_string(static_cast<long long>(
                  to_kilobytes_per_second(*latest)))
            : std::string("-");
    std::printf("# probe %s %s->%s: %s, est %s KB/s, %zu estimates, "
                "%llu B injected (intrusiveness %.4f)\n",
                estimator->name().c_str(), estimator->path().from.c_str(),
                estimator->path().to.c_str(),
                probe::convergence_name(estimator->convergence()),
                est_kb.c_str(), estimator->estimates().size(),
                static_cast<unsigned long long>(pstats.probe_wire_bytes +
                                                pstats.report_wire_bytes),
                estimator->intrusiveness(run_end > 0 ? run_end : 1));
  }

  // End-of-run module summary — printed only when --modules enabled
  // something, so a plain run's stdout stays bit-identical.
  if (!module_names.empty()) {
    for (const mon::ModuleStatus& status : monitor.modules().statuses()) {
      if (std::find(module_names.begin(), module_names.end(), status.name) ==
          module_names.end()) {
        continue;
      }
      std::printf("# module %s: %llu samples, %llu errors, %zu B state\n",
                  status.name.c_str(),
                  static_cast<unsigned long long>(status.samples),
                  static_cast<unsigned long long>(status.errors),
                  status.footprint_bytes);
      for (const mon::ModuleNote& note : status.notes) {
        std::printf("#   %s: %s\n", note.key.c_str(), note.value.c_str());
      }
    }
  }

  if (server != nullptr) {
    const query::QueryServerStats qstats = server->stats();
    std::printf("# query server: %llu window, %llu health, %llu subscribe, "
                "%llu bad, %llu events pushed, %llu B in, %llu B out\n",
                static_cast<unsigned long long>(qstats.window_requests),
                static_cast<unsigned long long>(qstats.health_requests),
                static_cast<unsigned long long>(qstats.subscribes),
                static_cast<unsigned long long>(qstats.bad_requests),
                static_cast<unsigned long long>(qstats.events_published),
                static_cast<unsigned long long>(qstats.bytes_received),
                static_cast<unsigned long long>(qstats.bytes_sent));
  }

  const auto& stats = monitor.stats();
  std::printf("# done: %llu rounds, %llu polls, %llu failures, "
              "%llu skipped by backoff, %zu QoS events\n",
              static_cast<unsigned long long>(stats.rounds_completed),
              static_cast<unsigned long long>(stats.agent_polls),
              static_cast<unsigned long long>(stats.agent_poll_failures),
              static_cast<unsigned long long>(stats.polls_skipped),
              detector.events().size());
  return 0;
}
