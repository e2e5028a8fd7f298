// Command-line entry point: findings as `path:line: [RULE] message` on
// stdout, exit 0 (clean), 1 (new findings) or 2 (usage error), a
// content-hash baseline gate, SARIF output (--sarif) and a per-file
// result cache (--cache) for warm incremental runs, keyed on the rules'
// code as well as the files.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analyze.h"

namespace fs = std::filesystem;
using namespace netqos::analyze;

namespace {

struct Options {
  std::vector<std::string> paths;
  std::string root = ".";
  std::string baseline_path;
  std::string sarif_path;
  std::string cache_path;
  bool update_baseline = false;
  bool list_rules = false;
};

int usage_error(const std::string& message) {
  std::cerr << "netqos-analyze: error: " << message << "\n"
            << "usage: netqos_analyze [paths...] [--root DIR] "
               "[--baseline FILE] [--update-baseline]\n"
            << "                      [--sarif FILE] [--cache FILE] "
               "[--list-rules]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& opts, int& exit_code) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        exit_code = usage_error(std::string(flag) + " needs a value");
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (v == nullptr) return false;
      opts.root = v;
    } else if (arg == "--baseline") {
      const char* v = value("--baseline");
      if (v == nullptr) return false;
      opts.baseline_path = v;
    } else if (arg == "--sarif") {
      const char* v = value("--sarif");
      if (v == nullptr) return false;
      opts.sarif_path = v;
    } else if (arg == "--cache") {
      const char* v = value("--cache");
      if (v == nullptr) return false;
      opts.cache_path = v;
    } else if (arg == "--update-baseline") {
      opts.update_baseline = true;
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      exit_code = usage_error("unknown option " + arg);
      return false;
    } else {
      opts.paths.push_back(arg);
    }
  }
  if (opts.update_baseline && opts.baseline_path.empty()) {
    exit_code = usage_error("--update-baseline requires --baseline");
    return false;
  }
  return true;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc";
}

/// Expands targets to a sorted, de-duplicated list of lintable files.
std::vector<fs::path> collect_files(const Options& opts, int& exit_code) {
  std::vector<std::string> targets = opts.paths;
  if (targets.empty()) targets.push_back((fs::path(opts.root) / "src").string());
  std::set<fs::path> files;
  for (const std::string& target : targets) {
    std::error_code ec;
    const fs::path path(target);
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.insert(fs::weakly_canonical(it->path()));
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.insert(fs::weakly_canonical(path));
    } else {
      std::cerr << "netqos-analyze: error: no such file or directory: "
                << target << "\n";
      exit_code = 2;
      return {};
    }
  }
  return {files.begin(), files.end()};
}

constexpr const char* kSelfExe = "/proc/self/exe";

/// Folds the running executable's bytes into `seed` (FNV-1a). False when
/// the executable cannot be read.
bool hash_executable(std::uint64_t seed, std::uint64_t& out) {
  std::ifstream in(kSelfExe, std::ios::binary);
  if (!in) return false;
  std::array<char, 1 << 16> chunk;
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    seed = fnv1a(std::string_view(chunk.data(),
                                  static_cast<std::size_t>(in.gcount())),
                 seed);
  }
  out = seed;
  return true;
}

std::string relative_to_root(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel =
      fs::relative(file, fs::weakly_canonical(root, ec), ec);
  std::string out = (ec || rel.empty()) ? file.string() : rel.generic_string();
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  int exit_code = 0;
  if (!parse_args(argc, argv, opts, exit_code)) return exit_code;

  if (opts.list_rules) {
    for (const auto& [rule, description] : rule_catalog()) {
      std::printf("%s  %s\n", rule.c_str(), description.c_str());
    }
    return 0;
  }

  const std::vector<fs::path> files = collect_files(opts, exit_code);
  if (exit_code != 0) return exit_code;

  // Pass 1: load + parse everything — R7 resolves case labels against
  // enums defined in other files (proto.h's MessageType in server.cpp).
  std::vector<SourceFile> sources;
  std::vector<Syntax> syntaxes;
  sources.reserve(files.size());
  syntaxes.reserve(files.size());
  EnumRegistry registry;
  for (const fs::path& file : files) {
    sources.push_back(
        load_source(file.string(), relative_to_root(file, opts.root)));
    syntaxes.push_back(parse_syntax(sources.back()));
    for (const EnumDef& def : syntaxes.back().enums) registry.add(def);
  }
  registry.finalize();

  // Rule-set hash: cache entries die when the catalog text changes, and
  // with the engine binary itself, so a changed matcher never replays
  // the verdicts of the code it replaced.
  std::uint64_t rules_hash = fnv1a("netqos-analyze rules v1");
  for (const auto& [rule, description] : rule_catalog()) {
    rules_hash = fnv1a(rule, rules_hash);
    rules_hash = fnv1a(description, rules_hash);
  }
  if (!opts.cache_path.empty() &&
      !hash_executable(rules_hash, rules_hash)) {
    std::cerr << "netqos-analyze: warning: cannot read " << kSelfExe
              << "; --cache ignored\n";
    opts.cache_path.clear();
  }

  ResultCache cache;
  if (!opts.cache_path.empty()) cache = ResultCache::load(opts.cache_path);

  // Pass 2: run rules per file, via the cache when warm.
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    std::vector<Finding> file_findings;
    const bool cached =
        !opts.cache_path.empty() &&
        cache.lookup(sources[i].path, sources[i].content_hash,
                     registry.content_hash, rules_hash, file_findings);
    if (!cached) {
      file_findings = run_rules(sources[i], syntaxes[i], registry);
      if (!opts.cache_path.empty()) {
        cache.store(sources[i].path, sources[i].content_hash,
                    registry.content_hash, rules_hash, file_findings);
      }
    }
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  if (!opts.cache_path.empty()) {
    cache.save(opts.cache_path);
    std::cerr << "netqos-analyze: cache " << cache.hits() << " hit(s), "
              << cache.misses() << " miss(es)\n";
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     return a.line < b.line;
                   });

  if (!opts.sarif_path.empty()) {
    std::ofstream out(opts.sarif_path);
    out << to_sarif(findings);
  }

  if (opts.update_baseline) {
    Baseline::save(opts.baseline_path, findings);
    std::printf("netqos-analyze: wrote %zu finding(s) to %s\n",
                findings.size(), opts.baseline_path.c_str());
    return 0;
  }

  Baseline baseline;
  if (!opts.baseline_path.empty()) {
    baseline = Baseline::load(opts.baseline_path);
  }
  std::size_t baselined = 0;
  std::size_t fresh = 0;
  for (const Finding& f : findings) {
    if (baseline.contains(f)) {
      ++baselined;
    } else {
      ++fresh;
      std::printf("%s\n", f.render().c_str());
    }
  }
  if (fresh > 0) {
    std::cerr << "netqos-analyze: " << fresh << " new finding(s)";
    if (baselined > 0) std::cerr << " (+" << baselined << " baselined)";
    std::cerr << "\n";
    return 1;
  }
  std::cerr << "netqos-analyze: clean (" << baselined
            << " baselined finding(s) remain)\n";
  return 0;
}
