// Scale study: sharded pollers over a generated spine/leaf fabric.
//
// Generates hierarchical fabrics (src/topology/generator.h) at 100 / 1k /
// 10k interfaces, partitions the poll plan across N poller shards
// (interface-weighted), and polls each agent's whole ifTable as one
// batched GETBULK sweep over the zero-copy decode path. Reports the
// poll-round p95 from span telemetry, the bounded per-interface memory
// of the merged stats store and the SNMP payload octets (request plus
// response) each agent poll puts on the wire, then gates on the
// tentpole numbers: near-linear shard scaling (>= 3.5x at 4 shards over
// the 10k fabric) and a flat per-interface footprint across fabric
// sizes. The SNMP octets are reported, not gated.
//
// CLI:
//   scale_monitor [--interfaces N[,N...]] [--shards S[,S...]]
//                 [--seconds T] [--jsonl PATH] [--no-batch] [--no-gates]
//
// With no arguments runs the full 100/1k/10k x 1/2/4 study plus the
// telemetry-overhead section. CI runs `--interfaces 1000` and feeds the
// JSONL artifact to scripts/perf_check.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "monitor/distributed.h"
#include "netsim/services.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "snmp/deploy.h"
#include "topology/generator.h"

using namespace netqos;

namespace {

struct Row {
  std::size_t interfaces = 0;  // actual generated count
  std::size_t agents = 0;
  int shards = 1;
  std::uint64_t polls = 0;
  std::size_t rounds = 0;
  double poll_round_p95_s = 0;   // simulated seconds, span telemetry
  double rss_per_interface = 0;  // merged stats store bytes / interface
  double snmp_bytes_per_poll = 0;  // request + response payload octets
  double wall_ms = 0;
};

std::size_t count_interfaces(const topo::NetworkTopology& topo) {
  std::size_t n = 0;
  for (const auto& node : topo.nodes()) n += node.interfaces.size();
  return n;
}

double p95(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = std::min((xs.size() * 95) / 100, xs.size() - 1);
  return xs[idx];
}

Row run(std::size_t target_interfaces, int shards, double sim_seconds,
        bool batch, bool full_telemetry) {
  topo::FabricConfig fabric;
  fabric.target_interfaces = target_interfaces;
  const topo::NetworkTopology topo = topo::generate_fabric(fabric);

  sim::Simulator sim;
  auto net = sim::build_network(sim, topo);
  snmp::DeployOptions deploy;
  deploy.agent.hiccup_probability = 0.0;
  auto agents = snmp::deploy_agents(sim, *net, topo, deploy);

  obs::SpanRecorder spans;
  obs::MetricsRegistry registry;
  mon::DistributedConfig config;
  config.partition = mon::PartitionStrategy::kInterfaceWeighted;
  config.base.batch_table_polls = batch;
  config.base.spans = &spans;
  // 200 us launch stagger de-bursts each shard's request train; round
  // length then tracks the shard's agent count, which is what the
  // shard-scaling curve measures.
  config.base.scheduler.stagger = microseconds(200);
  if (full_telemetry) {
    sim.attach_metrics(registry);
    net->attach_metrics(registry);
    config.base.metrics = &registry;
  }

  // Stations on distinct leaves where possible.
  const std::size_t leaves = topo::fabric_leaf_count(fabric);
  std::vector<sim::Host*> stations;
  for (int s = 0; s < shards; ++s) {
    stations.push_back(net->find_host(
        "leaf" + std::to_string(s % leaves) + "h" +
        std::to_string(s / leaves)));
  }
  mon::DistributedMonitor dist(sim, topo, stations, config);
  dist.add_path("leaf0h2", "leaf" + std::to_string(leaves - 1) + "h2");

  const auto start = std::chrono::steady_clock::now();
  dist.start();
  sim.run_until(from_seconds(sim_seconds));
  const auto stop = std::chrono::steady_clock::now();

  Row row;
  row.interfaces = count_interfaces(topo);
  row.agents = agents.size();
  row.shards = shards;
  row.polls = dist.aggregate_stats().agent_polls;
  std::vector<double> round_s;
  for (const obs::Span& span : spans.spans()) {
    if (span.name == "poll_round" && span.finished()) {
      round_s.push_back(to_seconds(span.duration()));
    }
  }
  row.rounds = round_s.size();
  row.poll_round_p95_s = p95(std::move(round_s));
  row.rss_per_interface =
      static_cast<double>(dist.stats_db().history().footprint_bytes()) /
      static_cast<double>(row.interfaces);
  // The monitor's own cost to the network it watches. Under full
  // telemetry the shards share one registry, so their clients' byte
  // counters alias and are not summed.
  if (!full_telemetry) {
    std::uint64_t snmp_bytes = 0;
    for (const auto& worker : dist.workers()) {
      const snmp::ClientStats client = worker->client_stats();
      snmp_bytes += client.payload_bytes_sent + client.payload_bytes_received;
    }
    row.snmp_bytes_per_poll =
        static_cast<double>(snmp_bytes) /
        static_cast<double>(std::max<std::uint64_t>(row.polls, 1));
  }
  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return row;
}

std::vector<std::size_t> parse_list(const char* arg) {
  std::vector<std::size_t> out;
  std::string s(arg);
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(std::strtoull(s.substr(pos, comma - pos).c_str(),
                                nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> interface_targets = {100, 1000, 10000};
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  double sim_seconds = 20;
  std::string jsonl_path = "scale_monitor.jsonl";
  bool batch = true;
  bool gates = true;
  bool full_study = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--interfaces") {
      interface_targets = parse_list(next());
      full_study = false;
    } else if (arg == "--shards") {
      shard_counts = parse_list(next());
    } else if (arg == "--seconds") {
      sim_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--jsonl") {
      jsonl_path = next();
    } else if (arg == "--no-batch") {
      batch = false;
    } else if (arg == "--no-gates") {
      gates = false;
    } else {
      std::fprintf(stderr,
                   "usage: scale_monitor [--interfaces N[,N...]] "
                   "[--shards S[,S...]] [--seconds T] [--jsonl PATH] "
                   "[--no-batch] [--no-gates]\n");
      return 2;
    }
  }

  std::printf("=== Scale: sharded pollers over a generated fabric ===\n");
  std::printf("%.0f simulated seconds, 2 s polls, %s, one watched path\n\n",
              sim_seconds,
              batch ? "batched GETBULK table polls" : "per-varbind GETs");
  std::printf("%11s %8s %7s %9s %8s %15s %13s %12s %10s\n", "interfaces",
              "agents", "shards", "polls", "rounds", "round p95 (s)",
              "store B/intf", "SNMP B/poll", "wall ms");

  std::vector<Row> rows;
  for (const std::size_t target : interface_targets) {
    for (const std::size_t shards : shard_counts) {
      const Row row = run(target, static_cast<int>(shards), sim_seconds,
                          batch, /*full_telemetry=*/false);
      std::printf("%11zu %8zu %7d %9llu %8zu %15.4f %13.1f %12.1f %10.2f\n",
                  row.interfaces, row.agents, row.shards,
                  static_cast<unsigned long long>(row.polls), row.rounds,
                  row.poll_round_p95_s, row.rss_per_interface,
                  row.snmp_bytes_per_poll, row.wall_ms);
      rows.push_back(row);
    }
  }

  std::ofstream out(jsonl_path);
  for (const Row& row : rows) {
    out << "{\"bench\":\"scale_monitor\",\"interfaces\":" << row.interfaces
        << ",\"shards\":" << row.shards
        << ",\"poll_round_p95\":" << row.poll_round_p95_s
        << ",\"rss_per_interface\":" << row.rss_per_interface
        << ",\"snmp_bytes_per_poll\":" << row.snmp_bytes_per_poll << "}\n";
  }
  std::printf("\nwrote %zu measurements to %s\n", rows.size(),
              jsonl_path.c_str());

  bool ok = true;
  if (gates) {
    // Shard scaling: at the largest fabric with both a 1- and a 4-shard
    // row, 4 shards must cut the round p95 at least 3.5x.
    const Row* one = nullptr;
    const Row* four = nullptr;
    for (const Row& row : rows) {
      if (row.shards == 1 && (one == nullptr ||
                              row.interfaces > one->interfaces)) {
        one = &row;
      }
      if (row.shards == 4 && (four == nullptr ||
                              row.interfaces > four->interfaces)) {
        four = &row;
      }
    }
    if (one != nullptr && four != nullptr &&
        one->interfaces == four->interfaces && four->poll_round_p95_s > 0) {
      const double speedup = one->poll_round_p95_s / four->poll_round_p95_s;
      std::printf("round p95 speedup at %zu interfaces, 1 -> 4 shards: "
                  "%.2fx\n", one->interfaces, speedup);
      if (one->interfaces >= 10000 && speedup < 3.5) {
        std::printf("FAIL: expected >= 3.5x shard speedup\n");
        ok = false;
      }
    }
    // Memory: per-interface store footprint must not grow with fabric
    // size (flat within 1.5x across the sweep).
    double lo = 0, hi = 0;
    for (const Row& row : rows) {
      if (row.shards != static_cast<int>(shard_counts.front())) continue;
      if (lo == 0 || row.rss_per_interface < lo) lo = row.rss_per_interface;
      if (row.rss_per_interface > hi) hi = row.rss_per_interface;
    }
    if (interface_targets.size() > 1) {
      std::printf("store bytes/interface across sizes: %.1f .. %.1f\n", lo,
                  hi);
      if (hi > 1.5 * lo) {
        std::printf("FAIL: per-interface memory grows with fabric size\n");
        ok = false;
      }
    }
  }

  if (full_study) {
    // Telemetry overhead: the same 1k-interface workload with and
    // without the full observability pipeline (shared registry with sim
    // and per-link collectors; spans are always on — they feed the p95).
    std::printf("\n=== Telemetry overhead (1k interfaces, 4 shards) ===\n");
    double base_ms = 0, full_ms = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const double b =
          run(1000, 4, sim_seconds, batch, /*full_telemetry=*/false).wall_ms;
      const double f =
          run(1000, 4, sim_seconds, batch, /*full_telemetry=*/true).wall_ms;
      if (rep == 0 || b < base_ms) base_ms = b;
      if (rep == 0 || f < full_ms) full_ms = f;
    }
    std::printf("metrics off: %8.2f ms\nmetrics on:  %8.2f ms\n"
                "overhead:    %+7.2f%%\n",
                base_ms, full_ms, 100.0 * (full_ms - base_ms) / base_ms);
  }
  return ok ? 0 : 1;
}
