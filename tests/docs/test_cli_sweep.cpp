// Bad numbers never hang or crash a CLI. Every value netqosmon and
// netqosctl read through their number helper (cli_source.h finds them in
// the parsers) gets 0, -1, abc, nan, inf, 1e308 and an empty token, one
// process at a time under a timeout. A run may succeed (exit 0) or
// refuse the value with its usage text (exit 2); a signal, any other
// status or a timeout fails the sweep.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli_source.h"

#ifndef NETQOS_NETQOSMON_BIN
#define NETQOS_NETQOSMON_BIN ""
#endif
#ifndef NETQOS_NETQOSCTL_BIN
#define NETQOS_NETQOSCTL_BIN ""
#endif

namespace {

using netqos::cli_source::numeric_values;
using netqos::cli_source::parser_flags;
using netqos::cli_source::read_file;

const std::vector<std::string> kBadValues = {"0",   "-1",    "abc", "nan",
                                             "inf", "1e308", ""};

constexpr auto kTimeout = std::chrono::seconds(20);

/// How one run ended.
struct Outcome {
  bool timed_out = false;
  int signal = 0;   ///< terminating signal, 0 if it exited
  int status = -1;  ///< exit status when it exited
  std::string err;  ///< its stderr
};

/// Runs `argv` in `dir` with stdout discarded and stderr captured, and
/// kills it at the timeout.
Outcome run(const std::vector<std::string>& argv,
            const std::filesystem::path& dir) {
  const std::filesystem::path err_path = dir / "stderr.txt";
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int out = open("/dev/null", O_WRONLY);
    const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || chdir(dir.c_str()) != 0 ||
        dup2(out, STDOUT_FILENO) < 0 || dup2(err, STDERR_FILENO) < 0) {
      _exit(126);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  Outcome outcome;
  if (pid < 0) return outcome;
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  int wait_status = 0;
  while (waitpid(pid, &wait_status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &wait_status, 0);
      outcome.timed_out = true;
      return outcome;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (WIFSIGNALED(wait_status)) outcome.signal = WTERMSIG(wait_status);
  if (WIFEXITED(wait_status)) outcome.status = WEXITSTATUS(wait_status);
  std::ifstream in(err_path);
  outcome.err.assign(std::istreambuf_iterator<char>(in), {});
  return outcome;
}

/// A scratch working directory for the runs, removed afterwards.
class CliSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "netqos-cli-sweep.XXXXXX")
            .string();
    ASSERT_NE(mkdtemp(pattern.data()), nullptr);
    dir_ = pattern;
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  /// Runs every argument list and fails on any run that neither exits 0
  /// nor exits 2 with the usage text.
  void sweep(const std::vector<std::vector<std::string>>& runs) {
    for (const std::vector<std::string>& argv : runs) {
      std::string shown;
      for (std::size_t i = 1; i < argv.size(); ++i) {
        shown += " '" + argv[i] + "'";
      }
      const Outcome outcome = run(argv, dir_);
      EXPECT_FALSE(outcome.timed_out) << "timed out:" << shown;
      EXPECT_EQ(outcome.signal, 0) << "killed by a signal:" << shown;
      if (outcome.timed_out || outcome.signal != 0) continue;
      EXPECT_TRUE(outcome.status == 0 || outcome.status == 2)
          << "exit " << outcome.status << ":" << shown << "\n"
          << outcome.err;
      if (outcome.status == 2) {
        EXPECT_NE(outcome.err.find("usage:"), std::string::npos)
            << "exit 2 without the usage text:" << shown;
      }
    }
  }

  std::filesystem::path dir_;
};

TEST_F(CliSweep, NetqosmonNumericFlags) {
  const std::string source = read_file("examples/netqosmon.cpp");
  // Every flag is either read as numbers or known not to be.
  const std::set<std::string> not_numeric = {
      "--metrics-out", "--trace-out", "--metrics-jsonl", "--serve",
      "--modules",     "--probe",     "--help"};
  const auto numeric = numeric_values(source);
  std::set<std::string> numeric_flags;
  for (const auto& [flag, slot] : numeric) numeric_flags.insert(flag);
  for (const std::string& flag : parser_flags(source)) {
    EXPECT_TRUE(numeric_flags.contains(flag) != not_numeric.contains(flag))
        << flag << " must be read through number() or listed as not numeric";
  }
  ASSERT_GE(numeric.size(), 10u);

  // --load's five values, as a valid run gives them.
  const std::vector<std::string> load_slots = {"SRC", "DST", "KBPS", "START",
                                               "END"};
  const std::vector<std::string> load_values = {"S1", "N1", "100", "1", "2"};
  std::vector<std::vector<std::string>> runs;
  for (const auto& [flag, slot] : numeric) {
    for (const std::string& value : kBadValues) {
      // A short run; a later --seconds overrides this one.
      std::vector<std::string> argv = {NETQOS_NETQOSMON_BIN, "--seconds",
                                       "4", flag};
      if (slot.empty()) {
        argv.push_back(value);
      } else {
        ASSERT_EQ(flag, "--load") << "no template for " << flag;
        for (std::size_t i = 0; i < load_slots.size(); ++i) {
          argv.push_back(load_slots[i] == slot ? value : load_values[i]);
        }
      }
      runs.push_back(std::move(argv));
    }
  }
  sweep(runs);
}

TEST_F(CliSweep, NetqosctlNumericFlags) {
  const std::string source = read_file("examples/netqosctl.cpp");
  const std::set<std::string> not_numeric = {"--group", "--select",
                                             "--modules", "--probe"};
  const auto numeric = numeric_values(source);
  std::set<std::string> numeric_flags;
  for (const auto& [flag, slot] : numeric) {
    EXPECT_TRUE(slot.empty()) << flag << " " << slot;
    numeric_flags.insert(flag);
  }
  for (const std::string& flag : parser_flags(source)) {
    EXPECT_TRUE(numeric_flags.contains(flag) != not_numeric.contains(flag))
        << flag << " must be read through number() or listed as not numeric";
  }
  ASSERT_GE(numeric_flags.size(), 2u);

  // Each command sizes its run's loads from --seconds differently.
  std::vector<std::vector<std::string>> runs;
  for (const char* command : {"query", "health", "watch", "modules",
                              "probes"}) {
    for (const std::string& flag : numeric_flags) {
      for (const std::string& value : kBadValues) {
        runs.push_back({NETQOS_NETQOSCTL_BIN, command, flag, value});
      }
    }
  }
  sweep(runs);
}

}  // namespace
