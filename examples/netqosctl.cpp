// netqosctl — CLI client for the monitor's query service.
//
// Usage:
//   netqosctl query  [--group if|path|host] [--select STR] [--last SECS]
//                    [--seconds N]
//   netqosctl health [--seconds N]
//   netqosctl watch  [--seconds N]
//   netqosctl modules [--modules LIST] [--seconds N]
//   netqosctl probes [--probe LIST] [--seconds N]
//
// Stands up the LIRTSS testbed with the monitor (and its query server) on
// host L, issues the command from host S3 over the simulated network, and
// prints the transcript — the whole query round trip rides the same links
// as the SNMP poll train.
//
//   query   runs fig5-style pulse loads, then asks for windowed
//           min/mean/max/p95 rows over the trailing window.
//   health  prints every agent's scheduler state and every monitored
//           path's current usage/staleness/detector verdict.
//   watch   subscribes to the event stream and drives a load heavy enough
//           to violate the S1 <-> N1 requirement, printing violation,
//           predictive-warning, and recovery events as they are pushed.
//   modules enables measurement modules on the monitor (default: every
//           registry module) and prints each module's telemetry and
//           self-description as reported over the wire.
//   probes  runs active estimators (default: all of them) on every qos
//           path and prints their convergence state and latest estimate
//           as carried in the health snapshot.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cli_number.h"
#include "cli_probes.h"
#include "experiments/lirtss.h"
#include "monitor/modules/registry.h"
#include "monitor/qos.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/server.h"

using namespace netqos;

namespace {

struct Options {
  std::string command;
  query::GroupBy group = query::GroupBy::kPath;
  std::string selector;
  double last_s = 30;     // trailing window for `query`
  double seconds = 40;    // simulated run length
  std::string modules;    // `modules` command: names to enable, ""=all
  std::string probe = "all";  // `probes` command: estimator names
};

/// A UDP load a command drives: `rate` from `start` until `end_share`
/// of the run.
struct Pulse {
  const char* from;
  const char* to;
  SimTime start;
  double end_share;
  BytesPerSecond rate;
};

// `watch` pushes the hub segment into violation: 800 KB/s toward N1
// leaves < 500 KB/s available on the 10 Mbps segment, crossing the
// S1 <-> N1 requirement; the load ends at 70% of the run so recovery
// events arrive too.
constexpr Pulse kWatchPulses[] = {{"S2", "N1", 8 * kSecond, 0.7, 800'000.0}};
// The other commands drive fig5-style pulses so the history has shape.
constexpr Pulse kQueryPulses[] = {
    {"S1", "N1", 5 * kSecond, 0.6, 200'000.0},
    {"S1", "S2", 10 * kSecond, 0.8, 400'000.0}};

std::span<const Pulse> pulses_of(const std::string& command) {
  if (command == "watch") return kWatchPulses;
  return kQueryPulses;
}

/// `pulse` over a run of `run_seconds`, which parse_args has checked is
/// long enough for the pulse to end no earlier than it starts.
load::RateProfile pulse_profile(const Pulse& pulse, double run_seconds) {
  return load::RateProfile::pulse(
      pulse.start, from_seconds(run_seconds * pulse.end_share), pulse.rate);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s query [--group if|path|host] [--select STR] "
               "[--last SECS] [--seconds N]\n"
               "       %s health [--seconds N]\n"
               "       %s watch [--seconds N]\n"
               "       %s modules [--modules LIST] [--seconds N]\n"
               "       %s probes [--probe LIST] [--seconds N]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options options;
  options.command = argv[1];
  if (options.command != "query" && options.command != "health" &&
      options.command != "watch" && options.command != "modules" &&
      options.command != "probes") {
    usage(argv[0]);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(argv[0]);
      }
      return argv[i];
    };
    // A number: the whole token, finite and in [min, max].
    auto number = [&](const char* what, double min, double max) {
      const auto value = cli::parse_number(what, next(what), min, max);
      if (!value.has_value()) usage(argv[0]);
      return *value;
    };
    if (arg == "--group") {
      const std::string group = next("--group");
      if (group == "if") {
        options.group = query::GroupBy::kInterface;
      } else if (group == "path") {
        options.group = query::GroupBy::kPath;
      } else if (group == "host") {
        options.group = query::GroupBy::kHost;
      } else {
        std::fprintf(stderr, "unknown group '%s'\n", group.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--select") {
      options.selector = next("--select");
    } else if (arg == "--last") {
      options.last_s = number("--last", 0, cli::kMaxFlagSeconds);
    } else if (arg == "--modules") {
      options.modules = next("--modules");
    } else if (arg == "--probe") {
      options.probe = next("--probe");
    } else if (arg == "--seconds") {
      options.seconds = number("--seconds", 0, cli::kMaxFlagSeconds);
    } else {
      usage(argv[0]);
    }
  }
  // Every load pulse must end no earlier than it starts.
  for (const Pulse& pulse : pulses_of(options.command)) {
    if (from_seconds(options.seconds * pulse.end_share) < pulse.start) {
      std::fprintf(stderr,
                   "--seconds %g is too short: %s's %s->%s load starts at "
                   "%gs and ends at %g x --seconds\n",
                   options.seconds, options.command.c_str(), pulse.from,
                   pulse.to, to_seconds(pulse.start), pulse.end_share);
      usage(argv[0]);
    }
  }
  return options;
}

void print_window(const query::WindowResponse& response) {
  std::printf("window [%.1fs, %.1fs) at t=%.1fs, %zu rows\n",
              to_seconds(response.begin), to_seconds(response.end),
              to_seconds(response.server_now), response.rows.size());
  std::printf("%-28s %8s %9s %9s %9s %9s %6s %s\n", "key", "samples",
              "min", "mean", "max", "p95", "res", "complete");
  for (const query::WindowRow& row : response.rows) {
    std::printf("%-28s %8u %9.1f %9.1f %9.1f %9.1f %5.0fs %s\n",
                row.key.c_str(), row.samples,
                to_kilobytes_per_second(row.min),
                to_kilobytes_per_second(row.mean),
                to_kilobytes_per_second(row.max),
                to_kilobytes_per_second(row.p95),
                to_seconds(row.resolution), row.complete ? "yes" : "no");
  }
  std::printf("(rates in KB/s; res 0s = raw samples)\n");
}

void print_health(const query::HealthResponse& response) {
  std::printf("health at t=%.1fs\n", to_seconds(response.server_now));
  std::printf("%-6s %-12s %8s %9s %12s %8s\n", "agent", "state", "polls",
              "failures", "quarantines", "due");
  for (const query::AgentHealthRow& agent : response.agents) {
    std::printf("%-6s %-12s %8llu %9llu %12llu %7.1fs\n",
                agent.node.c_str(),
                mon::agent_health_name(
                    static_cast<mon::AgentHealth>(agent.health)),
                static_cast<unsigned long long>(agent.polls),
                static_cast<unsigned long long>(agent.failures),
                static_cast<unsigned long long>(agent.quarantines),
                to_seconds(agent.next_due));
  }
  std::printf("%-12s %10s %10s %8s %8s %s\n", "path", "used", "avail",
              "fresh", "age", "flags");
  for (const query::PathHealthRow& path : response.paths) {
    std::string flags;
    if (!path.complete) flags += " incomplete";
    if (path.link_down) flags += " link-down";
    if (path.violated) flags += " VIOLATED";
    if (path.warning) flags += " warning";
    if (flags.empty()) flags = " ok";
    std::printf("%-12s %10.1f %10.1f %8s %7.1fs%s\n",
                (path.from + "<->" + path.to).c_str(),
                to_kilobytes_per_second(path.used),
                to_kilobytes_per_second(path.available),
                mon::freshness_name(
                    static_cast<mon::Freshness>(path.freshness)),
                to_seconds(path.max_sample_age), flags.c_str());
  }
  std::printf("(rates in KB/s)\n");
}

void print_probes(const query::HealthResponse& response) {
  std::printf("probes at t=%.1fs: %zu estimators\n",
              to_seconds(response.server_now), response.probes.size());
  std::printf("%-10s %-12s %-10s %10s %9s %10s\n", "estimator", "path",
              "state", "est", "samples", "injected");
  for (const query::ProbeStatusRow& row : response.probes) {
    const char* state = probe::convergence_name(
        static_cast<probe::Convergence>(row.convergence));
    std::string estimate = "-";
    if (row.has_estimate) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.1f",
                    to_kilobytes_per_second(row.available));
      estimate = buffer;
    }
    std::printf("%-10s %-12s %-10s %10s %9llu %9llu B\n",
                row.estimator.c_str(), (row.from + "->" + row.to).c_str(),
                row.running ? state : "stopped", estimate.c_str(),
                static_cast<unsigned long long>(row.estimates),
                static_cast<unsigned long long>(row.wire_bytes));
  }
  std::printf("(estimates in KB/s of available bandwidth)\n");
}

void print_modules(const query::ModulesResponse& response) {
  std::printf("modules at t=%.1fs: %zu registered\n",
              to_seconds(response.server_now), response.modules.size());
  for (const query::ModuleStatusRow& row : response.modules) {
    std::printf("%-14s %8llu samples %4llu errors %8llu B state\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.samples),
                static_cast<unsigned long long>(row.errors),
                static_cast<unsigned long long>(row.footprint_bytes));
    for (const auto& [key, value] : row.notes) {
      std::printf("  %-22s %s\n", key.c_str(), value.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);

  exp::TestbedOptions testbed_options;
  exp::LirtssTestbed testbed(testbed_options);
  sim::Simulator& simulator = testbed.simulator();

  // Monitor the spec's qos paths and attach both detectors, exactly as
  // netqosmon --serve does.
  mon::ViolationDetector detector(testbed.monitor());
  mon::PredictiveDetector predictive(testbed.monitor());
  for (const auto& req : testbed.specfile().qos) {
    testbed.watch(req.from, req.to);
    detector.add_requirement(req.from, req.to,
                             to_bytes_per_second(req.min_available_bps));
    predictive.add_requirement(req.from, req.to,
                               to_bytes_per_second(req.min_available_bps));
  }

  // The `modules` command enables measurement modules before any
  // samples flow, so their telemetry covers the whole run.
  if (options.command == "modules") {
    try {
      for (auto& module : mon::make_modules(
               options.modules.empty() ? "all" : options.modules)) {
        testbed.monitor().add_module(std::move(module));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // The `probes` command runs active estimators next to the passive
  // monitor — their traffic crosses the same simulated links — and
  // exposes their status through the query engine's provider hook.
  cli::ProbeSet probes;
  if (options.command == "probes") {
    std::vector<mon::PathKey> pairs;
    for (const auto& req : testbed.specfile().qos) {
      pairs.emplace_back(req.from, req.to);
    }
    try {
      probes = cli::start_probes(testbed.topology(), testbed.network(),
                                 pairs, options.probe, nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  query::QueryEngine engine(testbed.monitor());
  if (!probes.estimators.empty()) {
    engine.set_probe_status_provider(
        [&probes] { return probes.status_rows(); });
  }
  query::QueryServer server(simulator, testbed.host("L"), engine);
  server.attach(detector);
  server.attach(predictive);
  server.attach_agent_events(testbed.monitor());

  // The client lives on S3: its frames cross sw0 to reach L, competing
  // with the poll train on L's access link.
  query::QueryClient client(simulator, testbed.host("S3"),
                            testbed.host("L").ip());

  if (options.command == "watch") {
    // Subscribe right away, then push the hub segment into violation.
    simulator.schedule_at(seconds(1), [&] {
      client.subscribe([&simulator](query::QueryResult result) {
        std::printf("t=%5.1fs subscribed: %s\n", to_seconds(simulator.now()),
                    result.ok() ? "ok" : result.error.c_str());
      });
    });
    client.set_event_callback([](const query::Event& event) {
      std::printf("t=%5.1fs %-17s %s%s%s", to_seconds(event.time),
                  query::event_kind_name(event.kind),
                  event.subject_a.c_str(),
                  event.subject_b.empty() ? "" : " <-> ",
                  event.subject_b.c_str());
      if (event.required > 0) {
        std::printf("  (available %.0f KB/s, required %.0f KB/s)",
                    to_kilobytes_per_second(event.available),
                    to_kilobytes_per_second(event.required));
      }
      std::printf("\n");
    });
    for (const Pulse& pulse : kWatchPulses) {
      testbed.add_load(pulse.from, pulse.to,
                       pulse_profile(pulse, options.seconds));
    }
    testbed.run_until(from_seconds(options.seconds));
    std::printf("watched %llu events over %.0fs\n",
                static_cast<unsigned long long>(
                    client.stats().events_received),
                options.seconds);
    return 0;
  }

  // query / health: drive the pulses, run most of the clock out, then
  // issue the request and run the tail so the response can cross the
  // network.
  for (const Pulse& pulse : kQueryPulses) {
    testbed.add_load(pulse.from, pulse.to,
                     pulse_profile(pulse, options.seconds));
  }

  bool answered = false;
  simulator.schedule_at(from_seconds(options.seconds) - seconds(2), [&] {
    auto print_result = [&](const query::QueryResult& result,
                            auto&& printer) {
      answered = true;
      if (!result.ok()) {
        std::printf("query failed: %s\n", result.error.empty()
                                              ? "timeout"
                                              : result.error.c_str());
        return;
      }
      std::printf("rtt %.2f ms\n", to_seconds(result.rtt) * 1000.0);
      printer(result.message);
    };
    if (options.command == "query") {
      query::WindowRequest request;
      request.group = options.group;
      request.selector = options.selector;
      request.begin = -from_seconds(options.last_s);
      client.window(request, [&, print_result](query::QueryResult result) {
        print_result(result, [](const query::Message& message) {
          print_window(message.window_response);
        });
      });
    } else if (options.command == "modules") {
      client.modules([&, print_result](query::QueryResult result) {
        print_result(result, [](const query::Message& message) {
          print_modules(message.modules_response);
        });
      });
    } else if (options.command == "probes") {
      client.health([&, print_result](query::QueryResult result) {
        print_result(result, [](const query::Message& message) {
          print_probes(message.health_response);
        });
      });
    } else {
      client.health([&, print_result](query::QueryResult result) {
        print_result(result, [](const query::Message& message) {
          print_health(message.health_response);
        });
      });
    }
  });
  testbed.run_until(from_seconds(options.seconds));
  if (!answered) {
    std::fprintf(stderr, "error: no response before the run ended\n");
    return 1;
  }
  return 0;
}
