// scripts/lint.sh, the static-analysis entry point: without a
// netqos-analyze binary in the build tree it is given, it exits 2 and
// names the target to build instead of running a weaker check and
// passing.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

#ifndef NETQOS_SOURCE_DIR
#define NETQOS_SOURCE_DIR ""
#endif

TEST(LintScript, MissingEngineExitsTwoNamingTheTarget) {
  const std::string build_dir = testing::TempDir() + "/lint_sh_no_engine";
  const std::string command = std::string(NETQOS_SOURCE_DIR) +
                              "/scripts/lint.sh --build-dir " + build_dir +
                              " 2>&1";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("--target netqos_analyze"), std::string::npos)
      << output;
}

}  // namespace
