// Golden-fixture tests for tools/netqos_analyze, the C++ static-analysis
// engine. Three layers of coverage:
//   1. The whole fixture corpus: the engine's `path:line RULE` verdicts
//      equal tests/lint/goldens/fixture_verdicts.txt line for line.
//   2. Per rule R1-R8: each bad fixture is flagged, each good fixture is
//      clean, and the trap-listener crash reductions (the R1 and R6
//      regression fixtures) are rejected.
//   3. Report plumbing: baseline round-trip, SARIF output, result cache,
//      and the shipped src/ tree staying clean under the committed
//      zero-entry baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

#ifndef NETQOS_SOURCE_DIR
#define NETQOS_SOURCE_DIR ""
#endif
#ifndef NETQOS_ANALYZE_BIN
#define NETQOS_ANALYZE_BIN "netqos_analyze"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

std::string source_dir() { return NETQOS_SOURCE_DIR; }

std::string fixture(const std::string& name) {
  return source_dir() + "/tools/netqos_lint/fixtures/" + name;
}

/// Runs the engine binary `binary` with `args` appended; captures
/// stdout+stderr.
RunResult run_binary(const std::string& binary, const std::string& args) {
  const std::string command =
      binary + " --root " + source_dir() + " " + args + " 2>&1";
  RunResult result;
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

/// Runs netqos_analyze with `args` appended; captures stdout+stderr.
RunResult run_analyze(const std::string& args) {
  return run_binary(NETQOS_ANALYZE_BIN, args);
}

/// Output without the `netqos-analyze: cache N hit(s), M miss(es)` status
/// line, which legitimately differs between a cold and a warm run.
std::string strip_cache_line(const std::string& text) {
  std::string out;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("netqos-analyze: cache ") == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

int count_rule(const std::string& output, const std::string& rule) {
  int count = 0;
  const std::string needle = "[" + rule + "]";
  for (std::size_t pos = output.find(needle); pos != std::string::npos;
       pos = output.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

void expect_flags(const std::string& fixture_name, const std::string& rule,
                  int expected_count) {
  const RunResult result = run_analyze(fixture(fixture_name));
  EXPECT_EQ(result.exit_code, 1)
      << fixture_name << " should fail analysis\n" << result.output;
  EXPECT_GE(count_rule(result.output, rule), expected_count)
      << fixture_name << " should raise at least " << expected_count << " ["
      << rule << "] finding(s)\n" << result.output;
}

void expect_clean(const std::string& fixture_name) {
  const RunResult result = run_analyze(fixture(fixture_name));
  EXPECT_EQ(result.exit_code, 0)
      << fixture_name << " should pass analysis\n" << result.output;
}

// --- The fixture corpus's exact verdicts ---------------------------------

// Every finding on the corpus as `path:line RULE`, sorted bytewise; a
// finding moved, dropped or added anywhere fails here with the lines
// that differ. After an intended rule or fixture change, regenerate with
//   netqos_analyze --root . tools/netqos_lint/fixtures |
//     sed -nE 's/^([^:]+):([0-9]+): \[(R[0-9])\].*/\1:\2 \3/p' | LC_ALL=C sort
TEST(NetqosAnalyze, FixtureCorpusVerdictsMatchGoldenFile) {
  const RunResult result =
      run_analyze(source_dir() + "/tools/netqos_lint/fixtures");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // `path:line: [RULE] message` -> `path:line RULE`
  std::vector<std::string> actual;
  std::istringstream lines(result.output);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t tag = line.find(": [R");
    if (tag == std::string::npos || line.size() < tag + 6 ||
        line[tag + 5] != ']') {
      continue;
    }
    actual.push_back(line.substr(0, tag) + " " + line.substr(tag + 3, 2));
  }
  std::sort(actual.begin(), actual.end());

  std::ifstream in(source_dir() + "/tests/lint/goldens/fixture_verdicts.txt");
  ASSERT_TRUE(in) << "cannot read tests/lint/goldens/fixture_verdicts.txt";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  if (actual == golden) return;

  std::sort(golden.begin(), golden.end());
  std::vector<std::string> missing;
  std::vector<std::string> unexpected;
  std::set_difference(golden.begin(), golden.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), golden.begin(),
                      golden.end(), std::back_inserter(unexpected));
  std::string diff;
  for (const std::string& line : missing) diff += "-" + line + "\n";
  for (const std::string& line : unexpected) diff += "+" + line + "\n";
  if (diff.empty()) diff = "(same lines; the golden file is not sorted)\n";
  ADD_FAILURE() << "fixture verdicts differ from the golden file "
                   "(- golden only, + engine only):\n"
                << diff;
}

// --- R1-R5: pattern rules -------------------------------------------------

TEST(NetqosAnalyze, R1DecodeSafetyFlagsBadAndAcceptsGoodFixtures) {
  expect_flags("r1_bad.cpp", "R1", 1);
  expect_clean("r1_good.cpp");
  expect_flags("r1_view_bad.cpp", "R1", 1);
  expect_clean("r1_view_good.cpp");
}

TEST(NetqosAnalyze, R2OidMonotonicityFlagsBadAndAcceptsGoodFixtures) {
  expect_flags("r2_bad.cpp", "R2", 2);
  expect_clean("r2_good.cpp");
}

TEST(NetqosAnalyze, R3UnitsDisciplineFlagsBadAndAcceptsGoodFixtures) {
  expect_flags("r3_bad.cpp", "R3", 4);
  expect_clean("r3_good.cpp");
}

TEST(NetqosAnalyze, R3ProbeRateMathFlagsBadAndAcceptsGoodFixtures) {
  expect_flags("r3_probe_bad.cpp", "R3", 4);
  expect_clean("r3_probe_good.cpp");
}

TEST(NetqosAnalyze, R4SimTimePurityFlagsBadAndAcceptsGoodFixtures) {
  expect_flags("r4_bad.cpp", "R4", 4);
  expect_flags("r4_query_bad.cpp", "R4", 4);
  expect_clean("r4_good.cpp");
  expect_clean("r4_query_good.cpp");
}

TEST(NetqosAnalyze, R5ModulePurityFlagsBadAndAcceptsGoodModules) {
  expect_flags("r5_bad.cpp", "R5", 4);
  expect_clean("r5_good.cpp");
  // The shipped module directory on its own, so a failure names R5's
  // home rather than only the whole-tree gate below.
  const RunResult shipped = run_analyze(source_dir() + "/src/monitor/modules");
  EXPECT_EQ(shipped.exit_code, 0) << shipped.output;
}

TEST(NetqosAnalyze, RegressionPr3UnderflowStillFlaggedByR1Port) {
  const RunResult result = run_analyze(fixture("regression_pr3_underflow.cpp"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[R1]"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("BufferUnderflow"), std::string::npos)
      << result.output;
}

TEST(NetqosAnalyze, InlineAllowCommentsSuppressFindings) {
  expect_clean("suppression.cpp");
}

// --- R6: taint/bounds on wire-derived values -----------------------------

TEST(NetqosAnalyze, R6FlagsUncheckedWireCountsAndIndexes) {
  // Unchecked reserve() from a get_u16 count + unchecked subscript.
  expect_flags("r6_bad.cpp", "R6", 2);
}

TEST(NetqosAnalyze, R6AcceptsBoundedAndClampedCounts) {
  expect_clean("r6_good.cpp");
}

// The PR 3 crash, recast as the missing-bounds-check half of the bug:
// the trap listener sized and indexed its scratch table straight from
// wire-derived values. The R1 regression fixture pins the missing
// exception handlers; this pins the missing bounds check.
TEST(NetqosAnalyze, RegressionPr3TrapCountReachesResizeUnchecked) {
  const RunResult result = run_analyze(fixture("r6_trap_bad.cpp"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_GE(count_rule(result.output, "R6"), 2) << result.output;
  EXPECT_NE(result.output.find("varbind_count"), std::string::npos)
      << result.output;
}

// --- R7: wire-enum switch exhaustiveness ---------------------------------

TEST(NetqosAnalyze, R7FlagsNonExhaustiveWireSwitchAndSilentTagDefault) {
  const RunResult result = run_analyze(fixture("r7_bad.cpp"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_GE(count_rule(result.output, "R7"), 2) << result.output;
  // The message names the uncovered enumerator.
  EXPECT_NE(result.output.find("kBye"), std::string::npos) << result.output;
}

TEST(NetqosAnalyze, R7AcceptsExhaustiveAndErrorDefaultSwitches) {
  expect_clean("r7_good.cpp");
}

// --- R8: hot-path exception isolation ------------------------------------

TEST(NetqosAnalyze, R8FlagsUnguardedHookDeliveryAndHotPathAllocation) {
  const RunResult result = run_analyze(fixture("r8_bad.cpp"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_GE(count_rule(result.output, "R8"), 3) << result.output;
  EXPECT_NE(result.output.find("on_interface_sample"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("push_back"), std::string::npos)
      << result.output;
}

TEST(NetqosAnalyze, R8AcceptsGuardedDeliveryAndThrowPathAllocation) {
  expect_clean("r8_good.cpp");
}

// --- Report plumbing ------------------------------------------------------

TEST(NetqosAnalyze, BaselineRoundTripSuppressesKnownFindings) {
  const std::string baseline =
      testing::TempDir() + "/netqos_analyze_baseline_test.txt";
  const RunResult update = run_analyze("--baseline " + baseline +
                                       " --update-baseline " +
                                       fixture("r6_bad.cpp"));
  ASSERT_EQ(update.exit_code, 0) << update.output;

  const RunResult gated =
      run_analyze("--baseline " + baseline + " " + fixture("r6_bad.cpp"));
  EXPECT_EQ(gated.exit_code, 0)
      << "baselined findings must not fail analysis\n" << gated.output;
  EXPECT_NE(gated.output.find("baselined"), std::string::npos) << gated.output;
  std::remove(baseline.c_str());
}

TEST(NetqosAnalyze, BaselineKeysAreContentHashesNotLineNumbers) {
  const std::string baseline =
      testing::TempDir() + "/netqos_analyze_hash_test.txt";
  const RunResult update = run_analyze("--baseline " + baseline +
                                       " --update-baseline " +
                                       fixture("r6_bad.cpp"));
  ASSERT_EQ(update.exit_code, 0) << update.output;
  std::ifstream in(baseline);
  std::string line;
  bool saw_entry = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    saw_entry = true;
    // "R6 <16 hex chars> path normalized-source" — no line numbers.
    ASSERT_GE(line.size(), 20u) << line;
    EXPECT_EQ(line.substr(0, 3), "R6 ") << line;
    for (int i = 3; i < 19; ++i) {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i]))) << line;
    }
  }
  EXPECT_TRUE(saw_entry);
  std::remove(baseline.c_str());
}

TEST(NetqosAnalyze, SarifOutputCarriesRulesResultsAndFingerprints) {
  const std::string sarif = testing::TempDir() + "/netqos_analyze_test.sarif";
  const RunResult result =
      run_analyze("--sarif " + sarif + " " + fixture("r7_bad.cpp"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  std::ifstream in(sarif);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("netqos-analyze"), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"R7\""), std::string::npos);
  EXPECT_NE(doc.find("netqosFindingHash/v1"), std::string::npos);
  EXPECT_NE(doc.find("r7_bad.cpp"), std::string::npos);
  std::remove(sarif.c_str());
}

TEST(NetqosAnalyze, ResultCacheHitsOnSecondRun) {
  const std::string cache = testing::TempDir() + "/netqos_analyze_test.cache";
  std::remove(cache.c_str());
  const std::string args = "--cache " + cache + " " + fixture("r6_bad.cpp") +
                           " " + fixture("r7_bad.cpp");
  const RunResult cold = run_analyze(args);
  EXPECT_EQ(cold.exit_code, 1) << cold.output;
  EXPECT_NE(cold.output.find("2 miss(es)"), std::string::npos) << cold.output;

  const RunResult warm = run_analyze(args);
  EXPECT_EQ(warm.exit_code, 1) << warm.output;
  EXPECT_NE(warm.output.find("cache 2 hit(s)"), std::string::npos)
      << warm.output;
  // Cached findings must be byte-identical to fresh ones. The cache
  // status line on stderr legitimately differs (miss vs hit counts), so
  // strip it before comparing.
  EXPECT_EQ(strip_cache_line(cold.output), strip_cache_line(warm.output));
  std::remove(cache.c_str());
}

// Cache entries are keyed on the engine's own code: any change to the
// executable (here one byte appended to a copy of it) must miss every
// entry instead of replaying verdicts a changed matcher may no longer
// give, while an unchanged engine still hits them all.
TEST(NetqosAnalyze, ResultCacheMissesAfterTheEngineBinaryChanges) {
  const std::string dir = testing::TempDir();
  const std::string cache = dir + "/netqos_analyze_binary.cache";
  const std::string kept = cache + ".kept";
  const std::string patched = dir + "/netqos_analyze_patched";
  const std::string corpus = source_dir() + "/tools/netqos_lint/fixtures";
  std::remove(cache.c_str());

  const RunResult cold = run_analyze("--cache " + cache + " " + corpus);
  EXPECT_EQ(cold.exit_code, 1) << cold.output;
  const std::string all_misses = "cache 0 hit(s), ";
  const std::size_t at = cold.output.find(all_misses);
  ASSERT_NE(at, std::string::npos) << cold.output;
  const int files = std::atoi(cold.output.c_str() + at + all_misses.size());
  ASSERT_GT(files, 0) << cold.output;
  const std::string all_hits =
      "cache " + std::to_string(files) + " hit(s), 0 miss(es)";
  fs::copy_file(cache, kept, fs::copy_options::overwrite_existing);

  {
    std::ifstream engine(NETQOS_ANALYZE_BIN, std::ios::binary);
    std::ofstream copy(patched, std::ios::binary | std::ios::trunc);
    copy << engine.rdbuf();
    copy.put('\0');
  }
  fs::permissions(patched, fs::perms::owner_all);
  const RunResult changed =
      run_binary(patched, "--cache " + cache + " " + corpus);
  EXPECT_EQ(changed.exit_code, 1) << changed.output;
  EXPECT_NE(changed.output.find(all_misses + std::to_string(files) +
                                " miss(es)"),
            std::string::npos)
      << changed.output;
  EXPECT_EQ(strip_cache_line(changed.output), strip_cache_line(cold.output));

  const RunResult rerun = run_analyze("--cache " + kept + " " + corpus);
  EXPECT_EQ(rerun.exit_code, 1) << rerun.output;
  EXPECT_NE(rerun.output.find(all_hits), std::string::npos) << rerun.output;
  EXPECT_EQ(strip_cache_line(rerun.output), strip_cache_line(cold.output));

  for (const std::string& path : {cache, kept, patched}) {
    std::remove(path.c_str());
  }
}

// The acceptance gate: the shipped tree is clean under all eight rules
// against the committed zero-entry baseline.
TEST(NetqosAnalyze, ShippedSourceTreeIsCleanUnderAllRules) {
  const RunResult result =
      run_analyze("--baseline " + source_dir() +
                  "/tools/netqos_lint/analyze_baseline.txt " + source_dir() +
                  "/src");
  EXPECT_EQ(result.exit_code, 0)
      << "src/ has new analysis findings:\n" << result.output;
}

TEST(NetqosAnalyze, ListRulesDocumentsAllEight) {
  const RunResult result = run_analyze("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* rule :
       {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"}) {
    EXPECT_NE(result.output.find(rule), std::string::npos) << result.output;
  }
}

}  // namespace
