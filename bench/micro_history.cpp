// Microbenchmarks: the history store's append and query hot paths, plus
// the memory-bound check the whole design rests on.
//
// Appends happen once per poll round per series, so raw throughput is not
// the bottleneck — but windowed queries run on demand (reports, the RM,
// the predictive detector) and must stay cheap at any retention depth.
// Each measurement is printed as a table row and written to
// micro_history.jsonl (one JSON object per line) for CI to archive.
//
// A window query must not allocate: the binary counts operator new
// calls (wallbench's heap.h tally) inside both window-query loops,
// reports allocs_per_op, and exits nonzero if either loop allocated.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "heap.h"
#include "history/store.h"

using namespace netqos;
using namespace netqos::hist;

namespace {

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::string bench;
  std::size_t ops = 0;
  double ns_per_op = 0.0;
  double extra = 0.0;  // bench-specific (bytes, samples, ...)
  std::string extra_name;
  /// operator new calls per op; negative when the loop is not counted.
  double allocs_per_op = -1.0;
};

std::vector<Measurement> g_results;

void report(const Measurement& m) {
  std::printf("%-28s %12zu ops %12.1f ns/op", m.bench.c_str(), m.ops,
              m.ns_per_op);
  if (!m.extra_name.empty()) {
    std::printf("  %s=%.0f", m.extra_name.c_str(), m.extra);
  }
  if (m.allocs_per_op >= 0.0) {
    std::printf("  allocs_per_op=%g", m.allocs_per_op);
  }
  std::printf("\n");
  g_results.push_back(m);
}

RetentionPolicy realistic_policy() {
  RetentionPolicy policy;
  policy.raw_capacity = 1024;
  policy.tiers = {{10 * kSecond, 512}, {60 * kSecond, 256}};
  return policy;
}

/// Deterministic sawtooth-with-drift sample stream (no RNG: bench runs
/// must be reproducible bit-for-bit across machines).
double sample_value(std::size_t i) {
  return static_cast<double>(i % 97) + 0.25 * static_cast<double>(i % 13);
}

void bench_series_append() {
  constexpr std::size_t kOps = 2'000'000;
  Series series(realistic_policy());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    series.add(2 * kSecond * static_cast<std::int64_t>(i), sample_value(i));
  }
  const auto stop = Clock::now();
  Measurement m;
  m.bench = "series_append";
  m.ops = kOps;
  m.ns_per_op =
      std::chrono::duration<double, std::nano>(stop - start).count() / kOps;
  m.extra = static_cast<double>(series.footprint_bytes());
  m.extra_name = "footprint_bytes";
  report(m);
}

/// Times a trailing-window query; returns false if any query allocated.
bool bench_window_query(const char* name, SimDuration window) {
  // Fill well past every tier's horizon so the query planner exercises
  // its fallback logic, then query the trailing window repeatedly.
  constexpr std::size_t kFill = 100'000;
  constexpr std::size_t kOps = 50'000;
  Series series(realistic_policy());
  for (std::size_t i = 0; i < kFill; ++i) {
    series.add(2 * kSecond * static_cast<std::int64_t>(i), sample_value(i));
  }
  const SimTime end = 2 * kSecond * static_cast<std::int64_t>(kFill);
  double checksum = 0.0;
  const std::uint64_t allocations_before = wallbench::alloc_tally().calls;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    const WindowSummary summary = series.query(end - window, end);
    checksum += summary.mean;  // defeat dead-code elimination
  }
  const auto stop = Clock::now();
  const std::uint64_t allocations =
      wallbench::alloc_tally().calls - allocations_before;
  Measurement m;
  m.bench = name;
  m.ops = kOps;
  m.ns_per_op =
      std::chrono::duration<double, std::nano>(stop - start).count() / kOps;
  m.extra = checksum / static_cast<double>(kOps);
  m.extra_name = "mean";
  m.allocs_per_op =
      static_cast<double>(allocations) / static_cast<double>(kOps);
  report(m);
  if (allocations != 0) {
    std::fprintf(stderr, "FAIL: %s allocated %llu times in %zu queries\n",
                 name, static_cast<unsigned long long>(allocations), kOps);
    return false;
  }
  return true;
}

void bench_store_fanout() {
  // One poll round appends to every series; model 64 series x 20k rounds.
  constexpr std::size_t kSeries = 64;
  constexpr std::size_t kRounds = 20'000;
  HistoryStore store(realistic_policy());
  std::vector<std::string> keys;
  for (std::size_t s = 0; s < kSeries; ++s) {
    keys.push_back(connection_series_key(s));
  }
  const auto start = Clock::now();
  for (std::size_t round = 0; round < kRounds; ++round) {
    const SimTime t = 2 * kSecond * static_cast<std::int64_t>(round);
    for (std::size_t s = 0; s < kSeries; ++s) {
      store.append(keys[s], t, sample_value(round + s));
    }
  }
  const auto stop = Clock::now();
  Measurement m;
  m.bench = "store_fanout_append";
  m.ops = kSeries * kRounds;
  m.ns_per_op =
      std::chrono::duration<double, std::nano>(stop - start).count() /
      static_cast<double>(kSeries * kRounds);
  m.extra = static_cast<double>(store.footprint_bytes());
  m.extra_name = "footprint_bytes";
  report(m);
}

/// The memory bound itself: two stores differing only in how many samples
/// flowed through them must report identical footprints. A regression
/// here is a correctness failure, not a slowdown — exit nonzero.
bool check_footprint_flat() {
  HistoryStore short_store(realistic_policy());
  HistoryStore long_store(realistic_policy());
  for (std::size_t i = 0; i < 1'000; ++i) {
    short_store.append("path", 2 * kSecond * static_cast<std::int64_t>(i),
                       sample_value(i));
  }
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    long_store.append("path", 2 * kSecond * static_cast<std::int64_t>(i),
                      sample_value(i));
  }
  const std::size_t short_bytes = short_store.footprint_bytes();
  const std::size_t long_bytes = long_store.footprint_bytes();
  Measurement m;
  m.bench = "footprint_flat_1k_vs_1m";
  m.ops = 1'000'000;
  m.ns_per_op = 0.0;
  m.extra = static_cast<double>(long_bytes);
  m.extra_name = "footprint_bytes";
  report(m);
  if (short_bytes != long_bytes) {
    std::fprintf(stderr,
                 "FAIL: footprint not flat (1k samples -> %zu bytes, "
                 "1M samples -> %zu bytes)\n",
                 short_bytes, long_bytes);
    return false;
  }
  std::printf("footprint flat: 1k and 1M samples both occupy %zu bytes\n",
              long_bytes);
  return true;
}

}  // namespace

int main() {
  std::printf("=== micro_history: bounded history store hot paths ===\n\n");
  bench_series_append();
  const bool raw_alloc_free =
      bench_window_query("window_query_raw", seconds(60));
  const bool downsampled_alloc_free =
      bench_window_query("window_query_downsampled", seconds(3600));
  bench_store_fanout();
  const bool flat = check_footprint_flat();

  std::ofstream out("micro_history.jsonl");
  for (const Measurement& m : g_results) {
    out << "{\"bench\":\"" << m.bench << "\",\"ops\":" << m.ops
        << ",\"ns_per_op\":" << m.ns_per_op;
    if (!m.extra_name.empty()) {
      out << ",\"" << m.extra_name << "\":" << m.extra;
    }
    if (m.allocs_per_op >= 0.0) {
      out << ",\"allocs_per_op\":" << m.allocs_per_op;
    }
    out << "}\n";
  }
  std::printf("\nwrote %zu measurements to micro_history.jsonl\n",
              g_results.size());
  return flat && raw_alloc_free && downsampled_alloc_free ? 0 : 1;
}
