// Wall-clock benchmark binary.
//
//   wallbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--stacks PATH]
//
// First times set-up alone (building a repetition's scenario and
// simulating its warm-up, each 2 s warm-up slice timed on its own) for a
// tenth of the budget, then runs repetitions — set up, simulate the
// measured window in 2 s poll-interval slices, check the outputs — until
// the budget is spent.
// Each repetition draws its inputs from the seed. Untraced, a fixed
// reference task is timed just before every timed phase.
// With --trace 1 a stack sampler runs during the simulated slices and
// its stacks go to PATH. The last stdout line is one JSON object of raw
// measurements; run.py turns it into the benchmark's metrics.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "heap.h"
#include "sampler.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host milliseconds of a fixed reference task: map and string churn,
/// allocation- and pointer-heavy like the simulation. Timed just before
/// a phase, it reads the host's speed at that moment; run.py scales the
/// phase by it. The shared host the benchmark was written on switches
/// between speeds every few seconds (README.md).
double reference_ms() {
  const Clock::time_point start = Clock::now();
  std::map<std::uint64_t, std::string> table;
  std::uint64_t x = 88172645463325252ULL;
  std::size_t total = 0;
  for (int i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % 2048] = std::string(24 + x % 40, 'r');
    const auto it = table.lower_bound((x >> 11) % 2048);
    if (it == table.end()) continue;
    total += it->second.size();
    if (i % 3 == 0) table.erase(it);
  }
  static volatile std::size_t sink;
  sink = total;
  return 1000.0 * seconds_since(start);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string stacks;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--stacks") {
      options.stacks = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.workload.empty()) throw std::invalid_argument("no --workload");
  if (options.trace && options.stacks.empty()) {
    throw std::invalid_argument("--trace 1 needs --stacks");
  }
  return options;
}

/// Adds the work done between two snapshots of one scenario to `total`.
void add_work(wallbench::Work& total, const wallbench::Work& end,
              const wallbench::Work& start) {
  total.polls += end.polls - start.polls;
  total.poll_failures += end.poll_failures - start.poll_failures;
  total.queries += end.queries - start.queries;
  total.query_failures += end.query_failures - start.query_failures;
  total.probes += end.probes - start.probes;
  total.probe_failures += end.probe_failures - start.probe_failures;
  total.events += end.events - start.events;
  total.pool_acquires += end.pool_acquires - start.pool_acquires;
  total.pool_reuses += end.pool_reuses - start.pool_reuses;
  total.scored += end.scored - start.scored;
  total.probe_error += end.probe_error - start.probe_error;
  total.passive_error += end.passive_error - start.passive_error;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  char number[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(number, sizeof(number), "%s%.9g", i ? "," : "", values[i]);
    out += number;
  }
  return out + "]";
}

std::string json_lists(const std::vector<std::vector<double>>& lists) {
  std::string out = "[";
  for (std::size_t i = 0; i < lists.size(); ++i) {
    out += (i ? "," : "") + json_list(lists[i]);
  }
  return out + "]";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

int run(const Options& options) {
  const Clock::time_point begin = Clock::now();
  netqos::SplitMix64 seeds(options.seed);

  // The traced run measures layers, not speed: no reference task there.
  const auto reference = [&] { return options.trace ? 0.0 : reference_ms(); };

  // Host seconds of each set-up, cut into phases: constructing the
  // scenario, then each 2 s slice of its warm-up.
  const netqos::SimTime step = 2 * netqos::kSecond;
  std::vector<std::vector<double>> setup_s;
  std::vector<std::vector<double>> setup_ref_ms;
  const auto set_up = [&] {
    std::vector<double> phases;
    std::vector<double> refs;
    refs.push_back(reference());
    Clock::time_point t0 = Clock::now();
    auto scenario = wallbench::make_scenario(options.workload, seeds.next());
    phases.push_back(seconds_since(t0));
    for (netqos::SimTime t = step; t <= scenario->warmup(); t += step) {
      refs.push_back(reference());
      t0 = Clock::now();
      scenario->run_until(t);
      phases.push_back(seconds_since(t0));
    }
    setup_s.push_back(std::move(phases));
    setup_ref_ms.push_back(std::move(refs));
    return scenario;
  };
  for (int built = 0; built < 200; ++built) {
    if (built >= 5 && seconds_since(begin) >= 0.1 * options.seconds) break;
    set_up();
  }

  std::unique_ptr<wallbench::StackSampler> sampler;
  if (options.trace) {
    sampler = std::make_unique<wallbench::StackSampler>(
        static_cast<std::size_t>(options.seconds * 1500) + 1000);
  }

  std::vector<double> interval_ms;
  std::vector<double> interval_ref_ms;
  double sim_seconds = 0.0;
  double run_seconds = 0.0;
  wallbench::Work total;
  wallbench::AllocTally allocs;
  std::string problem;
  int repetitions = 0;
  while (repetitions == 0 || seconds_since(begin) < options.seconds) {
    const auto scenario = set_up();
    const wallbench::Work work_before = scenario->work();
    const wallbench::AllocTally before = wallbench::alloc_tally();
    // One timer across all slices: restarting it per slice would never
    // sample a slice's first period, where each poll round starts.
    if (sampler) sampler->start(1000);
    for (netqos::SimTime t = scenario->warmup() + step;
         t <= scenario->length(); t += step) {
      interval_ref_ms.push_back(reference());
      const Clock::time_point slice = Clock::now();
      scenario->run_until(t);
      const double took = seconds_since(slice);
      interval_ms.push_back(took * 1000.0);
      run_seconds += took;
    }
    if (sampler) sampler->stop();
    const wallbench::AllocTally after = wallbench::alloc_tally();
    allocs.calls += after.calls - before.calls;
    allocs.bytes += after.bytes - before.bytes;
    sim_seconds +=
        netqos::to_seconds(scenario->length() - scenario->warmup());

    const std::string bad = scenario->check();
    if (!bad.empty() && problem.empty()) problem = bad;
    add_work(total, scenario->work(), work_before);
    ++repetitions;
  }
  if (problem.empty()) problem = wallbench::check_run(options.workload, total);

  std::size_t samples = 0;
  double sampler_seconds = 0.0;
  if (sampler) {
    std::ofstream out(options.stacks);
    sampler->write(out);
    if (!out) throw std::runtime_error("cannot write " + options.stacks);
    samples = sampler->samples();
    sampler_seconds = sampler->seconds();
  }

  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf(
      "{\"workload\":%s,\"repetitions\":%d,\"problem\":%s,"
      "\"setup_s\":%s,\"setup_ref_ms\":%s,\"interval_ms\":%s,"
      "\"interval_ref_ms\":%s,\"sim_seconds\":%.9g,"
      "\"run_seconds\":%.9g,\"polls\":%llu,\"poll_failures\":%llu,"
      "\"queries\":%llu,\"query_failures\":%llu,\"probes\":%llu,"
      "\"probe_failures\":%llu,\"events\":%llu,\"pool_acquires\":%llu,"
      "\"pool_reuses\":%llu,\"allocs\":%llu,\"alloc_bytes\":%llu,"
      "\"samples\":%zu,\"sampler_seconds\":%.9g}\n",
      json_string(options.workload).c_str(), repetitions,
      json_string(problem).c_str(), json_lists(setup_s).c_str(),
      json_lists(setup_ref_ms).c_str(), json_list(interval_ms).c_str(),
      json_list(interval_ref_ms).c_str(), sim_seconds, run_seconds,
      u(total.polls), u(total.poll_failures), u(total.queries),
      u(total.query_failures), u(total.probes), u(total.probe_failures),
      u(total.events), u(total.pool_acquires), u(total.pool_reuses),
      u(allocs.calls), u(allocs.bytes), samples, sampler_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wallbench: %s\n", error.what());
    return 1;
  }
}
