// scripts/perf_check.py, the CI gate over bench results, run on crafted
// baseline and result files: a measured metric within its tolerance
// passes, an exact count fails on any rise, and a current value that is
// NaN, infinite or missing fails with the row and metric named.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

#ifndef NETQOS_SOURCE_DIR
#define NETQOS_SOURCE_DIR ""
#endif
#ifndef NETQOS_PYTHON
#define NETQOS_PYTHON "python3"
#endif

struct CheckResult {
  int exit_code = -1;
  std::string output;
};

/// Runs perf_check.py with `args`; captures stdout+stderr.
CheckResult run_check(const std::string& args) {
  const std::string command = std::string(NETQOS_PYTHON) + " " +
                              NETQOS_SOURCE_DIR + "/scripts/perf_check.py " +
                              args + " 2>&1";
  CheckResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Writes `text` to the file `name` in a directory of the running test's
/// own, so that tests run in parallel never share a file.
std::string write_file(const std::string& name, const std::string& text) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("perf_check_" + std::string(info->name()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / name).string();
  std::ofstream(path) << text;
  return path;
}

std::string scale_row(const std::string& p95, const std::string& bytes) {
  return R"({"bench":"scale_monitor","interfaces":1022,"shards":1,)"
         R"("poll_round_p95":)" + p95 +
         R"(,"rss_per_interface":43008,"snmp_bytes_per_poll":)" + bytes +
         "}\n";
}

CheckResult check_scale(const std::string& current) {
  const std::string baseline =
      write_file("base.jsonl", scale_row("0.0992152", "452.007"));
  return run_check("--baseline " + baseline + " --current " +
                   write_file("current.jsonl", current));
}

TEST(PerfCheck, IdenticalResultsPass) {
  const CheckResult result = check_scale(scale_row("0.0992152", "452.007"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("perf_check passed"), std::string::npos);
}

TEST(PerfCheck, MeasuredMetricWithinToleranceAndExactCountFallPass) {
  // +5% on a 10% tolerance, and one byte per poll less.
  const CheckResult result = check_scale(scale_row("0.104176", "451.007"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(PerfCheck, MeasuredMetricPastToleranceFails) {
  const CheckResult result = check_scale(scale_row("0.11", "452.007"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("(1022, 1) poll_round_p95"),
            std::string::npos)
      << result.output;
}

TEST(PerfCheck, ExactCountFailsOnAnyRise) {
  const CheckResult result = check_scale(scale_row("0.0992152", "452.008"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("(1022, 1) snmp_bytes_per_poll"),
            std::string::npos)
      << result.output;
  // An explicit tolerance does not loosen an exact count.
  const CheckResult loose = run_check(
      "--baseline " +
      write_file("base.jsonl", scale_row("0.0992152", "452.007")) +
      " --current " +
      write_file("current.jsonl", scale_row("0.0992152", "452.008")) +
      " --tolerance 0.5");
  EXPECT_EQ(loose.exit_code, 1) << loose.output;
}

TEST(PerfCheck, NonFiniteCurrentValueFails) {
  for (const std::string bad : {"NaN", "Infinity"}) {
    SCOPED_TRACE(bad);
    const CheckResult result = check_scale(scale_row(bad, "452.007"));
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find(
                  "(1022, 1) poll_round_p95: current value " +
                  std::string(bad == "NaN" ? "nan" : "inf") +
                  " is not a finite number"),
              std::string::npos)
        << result.output;
  }
}

TEST(PerfCheck, MissingCurrentMetricFailsWithoutATraceback) {
  const CheckResult result = check_scale(
      R"({"bench":"scale_monitor","interfaces":1022,"shards":1,)"
      R"("poll_round_p95":0.0992152,"rss_per_interface":43008})"
      "\n");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("(1022, 1) snmp_bytes_per_poll: "
                               "missing from current results"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("Traceback"), std::string::npos)
      << result.output;
}

TEST(PerfCheck, SimEventCountsFromPromFilesAreExact) {
  const std::string baseline = write_file(
      "base.jsonl", R"({"bench":"fig5_hub","netqos_sim_events_total":80023})"
                    "\n");
  const auto prom = [](const std::string& events) {
    return "# TYPE netqos_sim_events_total counter\n"
           "netqos_sim_events_total " +
           events + "\nnetqos_sim_queue_depth 2\n";
  };
  const auto check = [&](const std::string& events) {
    return run_check("--baseline " + baseline + " --prom " +
                     write_file("fig5_hub.metrics.prom", prom(events)));
  };
  EXPECT_EQ(check("80023").exit_code, 0);
  EXPECT_EQ(check("80000").exit_code, 0);
  const CheckResult rise = check("80024");
  EXPECT_EQ(rise.exit_code, 1) << rise.output;
  EXPECT_NE(rise.output.find("fig5_hub netqos_sim_events_total"),
            std::string::npos)
      << rise.output;
  const CheckResult nan = check("NaN");
  EXPECT_EQ(nan.exit_code, 1) << nan.output;
  EXPECT_NE(nan.output.find("is not a finite number"), std::string::npos)
      << nan.output;
}

}  // namespace
