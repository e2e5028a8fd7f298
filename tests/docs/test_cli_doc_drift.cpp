// CLI-flag drift audit: netqosmon's parser, its usage() banner, and the
// README flag table must name the same set of flags, and prose
// references in README/DESIGN must use the spelling the parser accepts
// (space-separated values, not `--flag=value`).
//
// The three surfaces live in different files and historically drifted —
// `--history-retention` and `--forecast-horizon` worked and appeared in
// README examples but were missing from the flag table, and DESIGN
// described `--modules=LIST` which the parser rejects. This suite reads
// the sources straight out of the tree so any future flag lands (or
// leaves) all three places at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_source.h"

namespace {

using netqos::cli_source::parser_flags;
using netqos::cli_source::read_file;

/// Flags named in the usage() banner (the fprintf string literal).
std::set<std::string> usage_flags(const std::string& source) {
  const std::size_t begin = source.find("void usage(");
  const std::size_t end = source.find("std::exit", begin);
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  const std::string body = source.substr(begin, end - begin);
  std::set<std::string> flags;
  const std::regex pattern("(--[a-z][a-z0-9-]*)");
  for (std::sregex_iterator it(body.begin(), body.end(), pattern), stop;
       it != stop; ++it) {
    flags.insert((*it)[1].str());
  }
  return flags;
}

/// Rows of the README "`netqosmon` options:" table, by leading flag.
std::set<std::string> readme_table_flags(const std::string& readme) {
  const std::size_t begin = readme.find("`netqosmon` options:");
  EXPECT_NE(begin, std::string::npos) << "README lost the flag table";
  std::set<std::string> flags;
  std::istringstream lines(readme.substr(begin));
  std::string line;
  bool in_table = false;
  const std::regex row("^\\| `(--[a-z][a-z0-9-]*)");
  while (std::getline(lines, line)) {
    if (line.rfind("| Flag", 0) == 0 || line.rfind("|--", 0) == 0 ||
        line.rfind("|---", 0) == 0) {
      in_table = true;
      continue;
    }
    if (in_table && line.rfind("|", 0) != 0 && !line.empty()) break;
    std::smatch match;
    if (std::regex_search(line, match, row)) flags.insert(match[1].str());
  }
  return flags;
}

std::string join(const std::set<std::string>& flags) {
  std::string out;
  for (const std::string& flag : flags) {
    if (!out.empty()) out += " ";
    out += flag;
  }
  return out;
}

TEST(CliDocDrift, UsageBannerMatchesParser) {
  const std::string source = read_file("examples/netqosmon.cpp");
  std::set<std::string> parsed = parser_flags(source);
  parsed.erase("--help");  // spelled -h/--help, banner-exempt by custom
  EXPECT_EQ(join(usage_flags(source)), join(parsed));
}

TEST(CliDocDrift, ReadmeTableMatchesParser) {
  const std::string source = read_file("examples/netqosmon.cpp");
  std::set<std::string> parsed = parser_flags(source);
  parsed.erase("--help");
  EXPECT_EQ(join(readme_table_flags(read_file("README.md"))), join(parsed));
}

TEST(CliDocDrift, ProseNeverUsesEqualsSpelling) {
  const std::string source = read_file("examples/netqosmon.cpp");
  const std::set<std::string> parsed = parser_flags(source);
  for (const char* doc : {"README.md", "DESIGN.md", "EXPERIMENTS.md"}) {
    const std::string text = read_file(doc);
    for (const std::string& flag : parsed) {
      EXPECT_EQ(text.find(flag + "="), std::string::npos)
          << doc << " writes " << flag
          << "=VALUE but netqosmon only parses space-separated values";
    }
  }
}

TEST(CliDocDrift, AuditedFlagsDocumentedInReadmeTable) {
  // The flags that drifted once; pin them to the table so examples
  // elsewhere in the docs always have a definition to point at.
  const std::set<std::string> table = readme_table_flags(read_file("README.md"));
  for (const char* flag :
       {"--history-retention", "--forecast-horizon", "--serve", "--modules",
        "--backoff-base", "--backoff-cap", "--probe"}) {
    EXPECT_TRUE(table.count(flag)) << flag << " missing from README table";
  }
}

}  // namespace
