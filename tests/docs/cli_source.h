// Readers of the CLIs' own sources, shared by the suites that audit them:
// the parsers' comparisons and calls are what the binaries execute, so
// they are the ground truth for which flags exist and which take numbers.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#ifndef NETQOS_SOURCE_DIR
#define NETQOS_SOURCE_DIR ""
#endif

namespace netqos::cli_source {

inline std::string read_file(const std::string& relative) {
  const std::string path = std::string(NETQOS_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Flags a CLI parser accepts: every `arg == "--x"` comparison in its
/// source.
inline std::set<std::string> parser_flags(const std::string& source) {
  std::set<std::string> flags;
  const std::regex pattern("arg == \"(--[a-z][a-z0-9-]*)\"");
  for (std::sregex_iterator it(source.begin(), source.end(), pattern), end;
       it != end; ++it) {
    flags.insert((*it)[1].str());
  }
  return flags;
}

/// The values a CLI parser reads as numbers: every `number("--x ...")`
/// call, as (flag, slot) where the slot names the value among a
/// multi-value flag's ("KBPS" of "--load KBPS"), or is empty.
inline std::set<std::pair<std::string, std::string>> numeric_values(
    const std::string& source) {
  std::set<std::pair<std::string, std::string>> values;
  const std::regex pattern("number\\(\"(--[a-z][a-z0-9-]*)(?: ([A-Z]+))?\"");
  for (std::sregex_iterator it(source.begin(), source.end(), pattern), end;
       it != end; ++it) {
    values.emplace((*it)[1].str(), (*it)[2].str());
  }
  return values;
}

}  // namespace netqos::cli_source
