// Shared state between the pattern rules (R1-R5) and the
// flow-sensitive rules (R6-R8): allow-comment suppression, finding
// dedup, and the per-file inputs every rule walks.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze.h"

namespace netqos::analyze {

struct RuleContext {
  const SourceFile& file;
  const Syntax& syntax;
  const EnumRegistry& registry;
  std::vector<Finding> findings;
  // line -> rules allowed by `// netqos-lint: allow(Rn): reason` on the
  // line or the line above.
  std::map<int, std::set<std::string>> allows;

  RuleContext(const SourceFile& f, const Syntax& s, const EnumRegistry& r);

  void report(const std::string& rule, int line, const std::string& message);
  bool in_file(std::initializer_list<const char*> suffixes) const {
    return file.path_ends_with(suffixes);
  }
};

// rules_legacy.cpp — pattern rules.
void check_r1(RuleContext& ctx);
void check_r2(RuleContext& ctx);
void check_r3(RuleContext& ctx);
void check_r4(RuleContext& ctx);
void check_r5(RuleContext& ctx);

// rules_flow.cpp — flow-sensitive rules.
void check_r6(RuleContext& ctx);
void check_r7(RuleContext& ctx);
void check_r8(RuleContext& ctx);

}  // namespace netqos::analyze
