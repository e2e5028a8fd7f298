// netqos-analyze: flow-sensitive static analysis for the netqos tree.
//
// Pattern rules R1-R5 (decode safety, OID monotonicity, units
// discipline, simulated-time purity, module purity) plus flow-sensitive
// rules that follow a value through a function, which a pattern match
// cannot express:
//
//   R6  taint/bounds       wire-derived lengths/counts/offsets must pass
//                          an upper-bound check (or a BufferUnderflow-
//                          guarded read) before indexing, span
//                          construction, resize/reserve/assign.
//   R7  wire exhaustiveness switches over wire enums (enum class : u8)
//                          cover every enumerator or carry an
//                          error-returning default; BER tag switches
//                          always carry an error default.
//   R8  hot-path isolation  measurement-module hook deliveries are
//                          exception-guarded; the zero-copy ber_view
//                          path stays allocation-free off throw paths.
//
// The engine is three layers:
//   1. source: load + mask (comments/strings blanked, offsets kept).
//   2. syntax: tokenizer, function/try/class/enum/switch discovery —
//      the per-function statement graph rules walk.
//   3. rules + report: findings keyed by a content hash (rule + path +
//      normalized source line), baseline/suppression, SARIF, and a
//      per-file result cache for incremental runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace netqos::analyze {

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string rule;     // "R1".."R8"
  std::string path;     // repo-relative, forward slashes
  int line = 0;         // 1-based
  std::string message;
  std::string source;   // raw source line (content-hash input)

  /// Stable content key: the finding survives unrelated line shifts.
  std::uint64_t hash() const;
  std::string hash_hex() const;
  std::string render() const;  // "path:line: [RULE] message"
};

/// FNV-1a 64-bit over `data`.
std::uint64_t fnv1a(std::string_view data, std::uint64_t seed = 0xcbf29ce484222325ull);

/// Collapses runs of whitespace to single spaces and trims.
std::string normalize(std::string_view line);

// ---------------------------------------------------------------------------
// Source layer

struct SourceFile {
  std::string path;     // repo-relative, forward slashes
  std::string text;     // raw bytes
  std::string masked;   // comments/strings/chars blanked, offsets preserved
  std::vector<std::string> lines;         // raw, split on '\n'
  std::vector<std::string> masked_lines;  // masked, split on '\n'
  std::vector<std::size_t> newline_offsets;
  std::uint64_t content_hash = 0;

  int line_of(std::size_t offset) const;  // 1-based
  const std::string& raw_line(int line) const;
  bool path_ends_with(std::initializer_list<const char*> suffixes) const;
};

/// Blanks //, /* */ comments and string/char literals (raw strings and
/// C++14 digit separators handled), preserving offsets and newlines.
std::string mask_code(std::string_view text);

SourceFile load_source(const std::string& abs_path, const std::string& rel_path);

// ---------------------------------------------------------------------------
// Syntax layer

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string_view text;  // view into SourceFile::masked
  std::size_t pos = 0;    // char offset in masked text
};

std::vector<Token> tokenize(std::string_view masked);

/// Index just past the `}` matching the `{` at open_idx (masked text).
std::size_t match_brace(std::string_view text, std::size_t open_idx);
std::size_t match_paren(std::string_view text, std::size_t open_idx);

struct Function {
  std::string name;        // last :: component
  std::string qualified;   // full A::B::name chain as written
  std::size_t body_start = 0;  // offset of `{`
  std::size_t body_end = 0;    // offset just past `}`
};

struct TryBlock {
  std::size_t body_start = 0;
  std::size_t body_end = 0;
  std::vector<std::string> catch_types;  // "..." or last type identifier
};

struct EnumDef {
  std::string name;        // last component, e.g. "Kind"
  std::string qualified;   // "Event::Kind" when nested in a class
  std::string underlying;  // declared underlying type text ("" if none)
  std::vector<std::string> enumerators;
  bool is_wire() const;    // underlying type is a std::uint8_t flavor
};

struct SwitchStmt {
  std::size_t keyword_pos = 0;
  std::size_t cond_start = 0, cond_end = 0;  // inside the parens
  std::size_t body_start = 0, body_end = 0;  // `{` .. past `}`
  /// Distinct enumerator identifiers used in case labels (last component)
  std::set<std::string> case_enumerators;
  /// Qualifier chain of the first qualified case label ("Event::Kind").
  std::string case_qualifier;
  bool has_default = false;
  std::size_t default_start = 0, default_end = 0;  // default body span
  bool has_ber_tag_cases = false;  // any case label identifier kTag*
  int case_label_count = 0;        // total labels incl. integer ones
};

struct Syntax {
  std::vector<Token> tokens;
  std::vector<Function> functions;
  std::vector<TryBlock> try_blocks;
  std::vector<SwitchStmt> switches;
  std::vector<EnumDef> enums;  // defined in this file

  const Function* innermost_function(std::size_t offset) const;
};

Syntax parse_syntax(const SourceFile& file);

/// Cross-file registry of enum definitions (R7 needs proto.h's enums
/// while checking server.cpp). Keyed by last name component.
struct EnumRegistry {
  std::multimap<std::string, EnumDef> by_name;
  std::uint64_t content_hash = 0;  // stable over definition contents

  void add(const EnumDef& def);
  /// Entry whose qualified name ends with `qualifier` and whose
  /// enumerator set contains every name in `used`.
  const EnumDef* resolve(const std::string& qualifier,
                         const std::set<std::string>& used) const;
  void finalize();  // computes content_hash
};

// ---------------------------------------------------------------------------
// Rules

/// Runs every rule over one file. `registry` spans all files of the
/// invocation.
std::vector<Finding> run_rules(const SourceFile& file, const Syntax& syntax,
                               const EnumRegistry& registry);

/// Rule id -> one-line description, for --list-rules and SARIF metadata.
const std::vector<std::pair<std::string, std::string>>& rule_catalog();

// ---------------------------------------------------------------------------
// Report layer

struct Baseline {
  /// Keys: "RULE hash-hex". Absent file -> empty baseline.
  std::set<std::string> keys;
  static Baseline load(const std::string& path);
  static void save(const std::string& path, const std::vector<Finding>& findings);
  bool contains(const Finding& finding) const;
};

/// Per-file finding cache: (file hash, registry hash) -> findings, so a
/// warm incremental run re-analyzes only changed files.
class ResultCache {
 public:
  static ResultCache load(const std::string& path);
  bool lookup(const std::string& rel_path, std::uint64_t file_hash,
              std::uint64_t registry_hash, std::uint64_t rules_hash,
              std::vector<Finding>& out) const;
  void store(const std::string& rel_path, std::uint64_t file_hash,
             std::uint64_t registry_hash, std::uint64_t rules_hash,
             const std::vector<Finding>& findings);
  void save(const std::string& path) const;
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t file_hash = 0;
    std::uint64_t registry_hash = 0;
    std::uint64_t rules_hash = 0;
    std::vector<Finding> findings;
  };
  std::map<std::string, Entry> entries_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Serializes findings as SARIF 2.1.0 for CI code-scanning upload.
std::string to_sarif(const std::vector<Finding>& findings);

std::string json_escape(std::string_view text);

}  // namespace netqos::analyze
