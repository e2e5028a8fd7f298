// Microbenchmark and allocation gate: one poll's ingest into the StatsDb.
//
// Every answered poll hands each interface's counters to
// StatsDb::update, which differences them against the previous sample
// and appends the rate to the interface's history series. Once every
// measure point has its entry and its series, that path must not touch
// the heap: the binary counts operator new calls (wallbench's heap.h
// tally) over steady-state rounds of updates on every point of the
// LIRTSS testbed's poll plan, reports allocs_per_op, writes
// micro_ingest.jsonl, and exits 1 if any update allocated.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "heap.h"
#include "monitor/plan.h"
#include "monitor/stats_db.h"
#include "obs/metrics.h"
#include "spec/testbed.h"

using namespace netqos;
using namespace netqos::mon;

namespace {

using Clock = std::chrono::steady_clock;

constexpr SimDuration kPollInterval = 2 * kSecond;

/// Point `id`'s counters at round `round`: a steady few hundred KB/s,
/// different per point.
CounterSample sample_at(std::size_t round, PointId id) {
  CounterSample sample;
  sample.sys_uptime_ticks =
      static_cast<std::uint32_t>(round * to_timeticks(kPollInterval));
  const std::uint64_t step = 400'000 + 10'000 * static_cast<std::uint64_t>(id);
  sample.in_octets = round * step;
  sample.out_octets = round * step / 2;
  sample.in_packets = static_cast<std::uint32_t>(round * 300);
  sample.out_packets = static_cast<std::uint32_t>(round * 150);
  return sample;
}

/// Updates every point once per round over [first, last).
double run_rounds(StatsDb& db, const PollPlan& plan, std::size_t first,
                  std::size_t last) {
  double checksum = 0.0;
  for (std::size_t round = first; round < last; ++round) {
    const SimTime when = kPollInterval * static_cast<std::int64_t>(round);
    for (PointId id = 0; id < plan.point_count(); ++id) {
      const auto rate = db.update(plan.point(id), when, sample_at(round, id));
      if (rate.has_value()) checksum += rate->total_rate();
    }
  }
  return checksum;
}

}  // namespace

int main() {
  std::printf("=== micro_ingest: steady-state StatsDb::update ===\n\n");
  const spec::SpecFile specfile = spec::lirtss_testbed();
  const PollPlan plan = PollPlan::build(specfile.topology);
  obs::MetricsRegistry registry;
  StatsDb db;
  db.attach_metrics(registry);

  // Two rounds give every point its entry, its first rate and its
  // history series; later rounds are the steady state a poll sees.
  constexpr std::size_t kWarmup = 2;
  constexpr std::size_t kRounds = 200'000;
  run_rounds(db, plan, 0, kWarmup);
  const std::uint64_t allocations_before = wallbench::alloc_tally().calls;
  const auto start = Clock::now();
  const double checksum = run_rounds(db, plan, kWarmup, kWarmup + kRounds);
  const auto stop = Clock::now();
  const std::uint64_t allocations =
      wallbench::alloc_tally().calls - allocations_before;

  const std::size_t ops = kRounds * plan.point_count();
  const double ns_per_op =
      std::chrono::duration<double, std::nano>(stop - start).count() /
      static_cast<double>(ops);
  const double allocs_per_op =
      static_cast<double>(allocations) / static_cast<double>(ops);
  std::printf("%-28s %12zu ops %12.1f ns/op  points=%zu  allocs_per_op=%g\n",
              "statsdb_update", ops, ns_per_op, plan.point_count(),
              allocs_per_op);
  std::printf("(mean rate %.0f B/s)\n",
              checksum / static_cast<double>(ops));

  std::ofstream out("micro_ingest.jsonl");
  out << "{\"bench\":\"statsdb_update\",\"ops\":" << ops
      << ",\"ns_per_op\":" << ns_per_op << ",\"points\":"
      << plan.point_count() << ",\"allocs_per_op\":" << allocs_per_op
      << "}\n";
  std::printf("\nwrote 1 measurement to micro_ingest.jsonl\n");
  if (allocations != 0) {
    std::fprintf(stderr, "FAIL: %llu allocations in %zu updates\n",
                 static_cast<unsigned long long>(allocations), ops);
    return 1;
  }
  return 0;
}
