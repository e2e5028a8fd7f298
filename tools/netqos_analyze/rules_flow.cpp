// Flow-sensitive rules R6-R8 — the reason this engine exists. Each rule
// walks the per-function statement stream in execution order, which
// R1-R5's pattern matches cannot do:
//
//   R6  tracks wire-derived integers (ByteReader reads, view accessors,
//       std::get_if on wire variants) through assignments until either a
//       bounding comparison sanitizes them or they reach indexing /
//       resize / reserve / assign / span construction unchecked.
//   R7  resolves switch case labels against the cross-file wire-enum
//       registry and demands exhaustiveness or an error default; BER tag
//       switches (kTag* labels) always need the error default.
//   R8  demands exception isolation around measurement-module hook
//       deliveries and an allocation-free zero-copy ber_view path.
#include <algorithm>
#include <cctype>
#include <string>

#include "analyze.h"
#include "rules_internal.h"

namespace netqos::analyze {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Token index range [first, last) covering masked offsets [begin, end).
std::pair<std::size_t, std::size_t> token_range(const std::vector<Token>& tokens,
                                                std::size_t begin,
                                                std::size_t end) {
  const auto lo = std::lower_bound(
      tokens.begin(), tokens.end(), begin,
      [](const Token& t, std::size_t pos) { return t.pos < pos; });
  const auto hi = std::lower_bound(
      tokens.begin(), tokens.end(), end,
      [](const Token& t, std::size_t pos) { return t.pos < pos; });
  return {static_cast<std::size_t>(lo - tokens.begin()),
          static_cast<std::size_t>(hi - tokens.begin())};
}

/// Index of the token matching the bracket at `open` ("(" ")", "[" "]",
/// "{" "}"), or `last` if unbalanced.
std::size_t match_token(const std::vector<Token>& tokens, std::size_t open,
                        std::size_t last, std::string_view open_text,
                        std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < last; ++i) {
    if (tokens[i].text == open_text) {
      ++depth;
    } else if (tokens[i].text == close_text) {
      if (--depth == 0) return i;
    }
  }
  return last;
}

}  // namespace

// ===========================================================================
// R6: taint/bounds on wire-derived integers

namespace {

constexpr const char* kIntegerReads[] = {
    "get_u8", "get_u16", "get_u32", "get_u64",
    "peek_u8", "peek_u16", "peek_u32", "peek_u64",
    "to_unsigned", "to_integer"};
constexpr const char* kWireVariantTypes[] = {
    "int64_t", "uint64_t", "int32_t", "uint32_t",
    "Counter32", "Counter64", "Gauge32", "TimeTicks"};

bool in_list(std::string_view name, const char* const* names, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (name == names[i]) return true;
  }
  return false;
}

struct TaintState {
  std::set<std::string> tainted;   // value identifiers
  std::set<std::string> wire_ptr;  // std::get_if results on wire variants

  bool dirty(std::string_view ident) const {
    const std::string key(ident);
    return tainted.count(key) > 0 || wire_ptr.count(key) > 0;
  }
  void sanitize(std::string_view ident) {
    const std::string key(ident);
    tainted.erase(key);
    wire_ptr.erase(key);
  }
};

/// Does [first,last) contain a taint source: a ByteReader integer read /
/// view accessor (`.get_u16(`, `.to_unsigned(`) returning wire data?
bool contains_source(const std::vector<Token>& tokens, std::size_t first,
                     std::size_t last) {
  for (std::size_t i = first; i + 2 < last; ++i) {
    if ((tokens[i].text == "." || tokens[i].text == "->") &&
        tokens[i + 1].kind == Token::Kind::kIdent &&
        in_list(tokens[i + 1].text, kIntegerReads, std::size(kIntegerReads)) &&
        tokens[i + 2].text == "(") {
      return true;
    }
  }
  return false;
}

/// std::get_if<wire-int-type>( anywhere in [first,last).
bool contains_get_if_wire(const std::vector<Token>& tokens, std::size_t first,
                          std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    if (tokens[i].kind != Token::Kind::kIdent || tokens[i].text != "get_if") {
      continue;
    }
    for (std::size_t j = i + 1; j < last && tokens[j].text != "("; ++j) {
      if (tokens[j].kind == Token::Kind::kIdent &&
          in_list(tokens[j].text, kWireVariantTypes,
                  std::size(kWireVariantTypes))) {
        return true;
      }
    }
  }
  return false;
}

bool contains_dirty(const std::vector<Token>& tokens, std::size_t first,
                    std::size_t last, const TaintState& state,
                    std::string* which) {
  for (std::size_t i = first; i < last; ++i) {
    if (tokens[i].kind == Token::Kind::kIdent && state.dirty(tokens[i].text)) {
      *which = std::string(tokens[i].text);
      return true;
    }
  }
  return false;
}

/// true when the span holds nothing but trivial comparands: literals
/// 0 / 1, nullptr / NULL, and punctuation. A comparison against such a
/// span (p == nullptr, *count < 0) is a validity check, not a bound.
bool only_trivial_comparands(const std::vector<Token>& tokens,
                             std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const Token& t = tokens[i];
    if (t.kind == Token::Kind::kNumber) {
      if (t.text != "0" && t.text != "1") return false;
    } else if (t.kind == Token::Kind::kIdent) {
      if (t.text != "nullptr" && t.text != "NULL") return false;
    }
  }
  return true;
}

/// Primary-expression span ending at `idx` (exclusive), walking left
/// over identifier chains, calls, and subscripts.
std::size_t primary_begin(const std::vector<Token>& tokens, std::size_t idx,
                          std::size_t first) {
  std::size_t i = idx;
  while (i > first) {
    const Token& t = tokens[i - 1];
    if (t.kind == Token::Kind::kIdent || t.kind == Token::Kind::kNumber ||
        t.text == "." || t.text == "->" || t.text == "::") {
      --i;
      continue;
    }
    if (t.text == ")" || t.text == "]") {
      // Walk back to the matching opener.
      const std::string_view close = t.text;
      const std::string_view open = close == ")" ? "(" : "[";
      int depth = 0;
      std::size_t j = i - 1;
      while (true) {
        if (tokens[j].text == close) ++depth;
        if (tokens[j].text == open && --depth == 0) break;
        if (j == first) break;
        --j;
      }
      if (depth != 0) return i;
      i = j;
      continue;
    }
    if (t.text == "*" || t.text == "!") {
      // Deref / negation prefix binds only if preceded by a non-operand.
      if (i - 1 == first) {
        --i;
        continue;
      }
      const Token& before = tokens[i - 2];
      if (before.kind == Token::Kind::kIdent ||
          before.kind == Token::Kind::kNumber || before.text == ")" ||
          before.text == "]") {
        break;  // binary multiply, not a prefix
      }
      --i;
      continue;
    }
    break;
  }
  return i;
}

/// Primary-expression span starting at `idx` (inclusive), walking right.
std::size_t primary_end(const std::vector<Token>& tokens, std::size_t idx,
                        std::size_t last) {
  std::size_t i = idx;
  // Optional prefix operators.
  while (i < last && (tokens[i].text == "*" || tokens[i].text == "!" ||
                      tokens[i].text == "-" || tokens[i].text == "&")) {
    ++i;
  }
  while (i < last) {
    const Token& t = tokens[i];
    if (t.kind == Token::Kind::kIdent || t.kind == Token::Kind::kNumber ||
        t.text == "." || t.text == "->" || t.text == "::") {
      ++i;
      continue;
    }
    if (t.text == "(" || t.text == "[") {
      const std::size_t close = match_token(
          tokens, i, last, t.text, t.text == "(" ? ")" : "]");
      if (close >= last) return last;
      i = close + 1;
      continue;
    }
    break;
  }
  return i;
}

}  // namespace

void check_r6(RuleContext& ctx) {
  // The byte-buffer layer IS the bounds check (ByteReader::require);
  // its internal length arithmetic is the sanctioned implementation.
  if (ctx.in_file({"common/byte_buffer.h", "common/byte_buffer.cpp"})) return;
  const std::vector<Token>& tokens = ctx.syntax.tokens;

  auto flag = [&](std::size_t token_idx, const std::string& ident,
                  const std::string& use) {
    ctx.report(
        "R6", ctx.file.line_of(tokens[token_idx].pos),
        "wire-derived value '" + ident + "' reaches " + use +
            " without an upper-bound check; compare it against remaining() "
            "or a sane limit (or clamp via std::min) before trusting it "
            "(PR 3 bug class, flow-sensitive)");
  };

  for (const Function& func : ctx.syntax.functions) {
    const auto [first, last] =
        token_range(tokens, func.body_start, func.body_end);
    TaintState state;
    for (std::size_t i = first; i < last; ++i) {
      const Token& tok = tokens[i];

      // --- assignments: X = rhs / X op= rhs -----------------------------
      if (tok.kind == Token::Kind::kPunct &&
          (tok.text == "=" || tok.text == "+=" || tok.text == "-=" ||
           tok.text == "*=" || tok.text == "/=")) {
        // LHS key: the identifier ending the chain left of the operator.
        std::string key;
        if (i > first) {
          std::size_t b = i - 1;
          if (tokens[b].text == "]") {
            int depth = 0;
            while (b > first) {
              if (tokens[b].text == "]") ++depth;
              if (tokens[b].text == "[" && --depth == 0) break;
              --b;
            }
            if (b > first) --b;
          }
          if (tokens[b].kind == Token::Kind::kIdent) {
            key = std::string(tokens[b].text);
          }
        }
        // RHS span: up to `;` or `,` at bracket depth 0.
        std::size_t end = i + 1;
        int depth = 0;
        while (end < last) {
          const std::string_view text = tokens[end].text;
          if (text == "(" || text == "[" || text == "{") ++depth;
          if (text == ")" || text == "]" || text == "}") --depth;
          if (depth < 0) break;
          if (depth == 0 && (text == ";" || text == ",")) break;
          ++end;
        }
        if (!key.empty()) {
          bool clamped = false;
          for (std::size_t j = i + 1; j < end; ++j) {
            if (tokens[j].kind == Token::Kind::kIdent &&
                (tokens[j].text == "min" || tokens[j].text == "clamp")) {
              clamped = true;
              break;
            }
          }
          std::string which;
          if (clamped) {
            state.sanitize(key);
          } else if (tok.text == "=" &&
                     contains_get_if_wire(tokens, i + 1, end)) {
            state.tainted.erase(key);
            state.wire_ptr.insert(key);
          } else if (contains_source(tokens, i + 1, end) ||
                     contains_dirty(tokens, i + 1, end, state, &which)) {
            state.wire_ptr.erase(key);
            state.tainted.insert(key);
          } else if (tok.text == "=") {
            state.sanitize(key);  // plain reassignment from clean data
          }
        }
        continue;
      }

      // --- comparisons sanitize when bounded by a non-trivial side ------
      if (tok.kind == Token::Kind::kPunct &&
          (tok.text == "<" || tok.text == ">" || tok.text == "<=" ||
           tok.text == ">=" || tok.text == "==" || tok.text == "!=")) {
        const std::size_t lb = primary_begin(tokens, i, first);
        const std::size_t re = primary_end(tokens, i + 1, last);
        std::string which;
        if (contains_dirty(tokens, lb, i, state, &which) &&
            !only_trivial_comparands(tokens, i + 1, re)) {
          state.sanitize(which);
        }
        if (contains_dirty(tokens, i + 1, re, state, &which) &&
            !only_trivial_comparands(tokens, lb, i)) {
          state.sanitize(which);
        }
        continue;
      }

      // --- sanctioned consumers sanitize their argument -----------------
      if ((tok.text == "." || tok.text == "->") && i + 2 < last &&
          tokens[i + 1].kind == Token::Kind::kIdent &&
          (tokens[i + 1].text == "get_bytes" ||
           tokens[i + 1].text == "get_string") &&
          tokens[i + 2].text == "(") {
        const std::size_t close = match_token(tokens, i + 2, last, "(", ")");
        for (std::size_t j = i + 3; j < close; ++j) {
          if (tokens[j].kind == Token::Kind::kIdent) {
            state.sanitize(tokens[j].text);
          }
        }
        i = i + 2;  // still scan args (nested reads taint nothing here)
        continue;
      }

      // --- dangerous use: subscript ------------------------------------
      if (tok.text == "[") {
        const std::size_t close = match_token(tokens, i, last, "[", "]");
        std::string which;
        if (contains_dirty(tokens, i + 1, close, state, &which)) {
          flag(i, which, "indexing");
        } else if (contains_source(tokens, i + 1, close)) {
          flag(i, "(unnamed read)", "indexing");
        }
        continue;
      }

      // --- dangerous use: resize/reserve/assign/span --------------------
      if (tok.kind == Token::Kind::kIdent && i + 1 < last) {
        const bool member = i > first && (tokens[i - 1].text == "." ||
                                          tokens[i - 1].text == "->");
        const std::string_view name = tok.text;
        std::size_t paren = i + 1;
        if (name == "span" && tokens[paren].text == "<") {
          const std::size_t close_angle =
              match_token(tokens, paren, last, "<", ">");
          if (close_angle >= last) continue;
          paren = close_angle + 1;
        }
        if (paren >= last || tokens[paren].text != "(") continue;
        const bool shaping =
            (member && (name == "resize" || name == "reserve" ||
                        name == "subspan" || name == "first" ||
                        name == "last")) ||
            name == "span";
        const bool assigning = member && name == "assign";
        if (!shaping && !assigning) continue;
        std::size_t close = match_token(tokens, paren, last, "(", ")");
        if (assigning) {
          // Only the count argument (first) is a size.
          int depth = 0;
          for (std::size_t j = paren; j < close; ++j) {
            if (tokens[j].text == "(") ++depth;
            if (tokens[j].text == ")") --depth;
            if (depth == 1 && tokens[j].text == ",") {
              close = j;
              break;
            }
          }
        }
        std::string use = "'";
        use += name;
        use += "'";
        std::string which;
        if (contains_dirty(tokens, paren + 1, close, state, &which)) {
          flag(i, which, use);
        } else if (contains_source(tokens, paren + 1, close)) {
          flag(i, "(unnamed read)", use);
        }
        continue;
      }
    }
  }
}

// ===========================================================================
// R7: wire-enum switch exhaustiveness

namespace {

/// An error-ish default: throws, returns, or touches an error path.
bool default_is_error(const std::vector<Token>& tokens, std::size_t first,
                      std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    if (tokens[i].text == "throw" || tokens[i].text == "return") return true;
    const std::string lower = to_lower(tokens[i].text);
    for (const char* needle :
         {"error", "fail", "bad", "invalid", "reject", "unknown", "malformed"}) {
      if (lower.find(needle) != std::string::npos) return true;
    }
  }
  return false;
}

}  // namespace

void check_r7(RuleContext& ctx) {
  const std::vector<Token>& tokens = ctx.syntax.tokens;
  for (const SwitchStmt& sw : ctx.syntax.switches) {
    const int line = ctx.file.line_of(sw.keyword_pos);
    std::pair<std::size_t, std::size_t> def_range{0, 0};
    if (sw.has_default) {
      def_range = token_range(tokens, sw.default_start, sw.default_end);
    }
    const bool error_default =
        sw.has_default &&
        default_is_error(tokens, def_range.first, def_range.second);

    // (a) switches over registered wire enums.
    if (!sw.case_qualifier.empty()) {
      const EnumDef* def =
          ctx.registry.resolve(sw.case_qualifier, sw.case_enumerators);
      if (def != nullptr && def->is_wire()) {
        std::vector<std::string> missing;
        for (const std::string& e : def->enumerators) {
          if (sw.case_enumerators.count(e) == 0) missing.push_back(e);
        }
        if (!missing.empty() && !error_default) {
          std::string list;
          for (const std::string& m : missing) {
            if (!list.empty()) list += ", ";
            list += m;
          }
          ctx.report(
              "R7", line,
              "switch over wire enum '" + def->qualified + "' misses " +
                  list + " and has no error-returning default; a peer can "
                  "put any byte here — cover every enumerator or reject "
                  "unknown values explicitly");
        }
      }
    }

    // (b) switches over raw BER tag constants can never be exhaustive:
    // they always need the error default.
    if (sw.has_ber_tag_cases && !error_default) {
      ctx.report(
          "R7", line,
          "switch over BER tag values without an error-returning default; "
          "a truncated or hostile TLV stream can carry any tag byte — "
          "reject unknown tags explicitly");
    }
  }
}

// ===========================================================================
// R8: hot-path exception isolation

namespace {

constexpr const char* kModuleHooks[] = {
    "init", "produce", "flush", "on_interface_sample", "on_path_sample",
    "on_round_end"};

/// A receiver naming a single Module ("module", "entry.module",
/// "probe_module_") — not the plural ModuleHost members ("modules_"),
/// whose fan-out methods guard internally.
bool names_single_module(std::string_view receiver) {
  const std::string lower = to_lower(receiver);
  std::string_view stem = lower;
  if (!stem.empty() && stem.back() == '_') stem.remove_suffix(1);
  if (stem == "module" || stem == "mod") return true;
  const std::string_view suffix = "_module";
  return stem.size() > suffix.size() &&
         stem.substr(stem.size() - suffix.size()) == suffix;
}

bool catches_isolate(const std::vector<std::string>& types) {
  for (const std::string& t : types) {
    if (t == "..." || t == "exception") return true;
  }
  return false;
}

}  // namespace

void check_r8(RuleContext& ctx) {
  const std::vector<Token>& tokens = ctx.syntax.tokens;

  // (a) module hook deliveries must be exception-isolated: inside the
  // argument list of a guarded(...) call, or under try + catch-all.
  if (!ctx.in_file({"monitor/module.h", "monitor/module.cpp"})) {
    std::vector<std::pair<std::size_t, std::size_t>> guard_spans;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind == Token::Kind::kIdent &&
          to_lower(tokens[i].text).find("guard") != std::string::npos &&
          tokens[i + 1].text == "(") {
        guard_spans.emplace_back(tokens[i + 1].pos,
                                 match_paren(ctx.file.masked, tokens[i + 1].pos));
      }
    }
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].kind != Token::Kind::kIdent) continue;
      if (!names_single_module(tokens[i].text)) continue;
      if (tokens[i + 1].text != "." && tokens[i + 1].text != "->") continue;
      if (tokens[i + 2].kind != Token::Kind::kIdent ||
          !in_list(tokens[i + 2].text, kModuleHooks, std::size(kModuleHooks))) {
        continue;
      }
      if (i + 3 >= tokens.size() || tokens[i + 3].text != "(") continue;
      const std::size_t pos = tokens[i].pos;
      bool isolated = false;
      for (const auto& [begin, end] : guard_spans) {
        if (begin <= pos && pos < end) {
          isolated = true;
          break;
        }
      }
      if (!isolated) {
        for (const TryBlock& block : ctx.syntax.try_blocks) {
          if (block.body_start <= pos && pos < block.body_end &&
              catches_isolate(block.catch_types)) {
            isolated = true;
            break;
          }
        }
      }
      if (!isolated) {
        ctx.report(
            "R8", ctx.file.line_of(pos),
            "module hook '" + std::string(tokens[i + 2].text) +
                "' delivered without exception isolation; a throwing module "
                "would kill the poll loop — route the call through "
                "ModuleHost::guarded or wrap it in try/catch(...)");
      }
    }
  }

  // (b) the zero-copy ber_view path stays allocation-free off throw
  // statements; to_oid/to_value/decode_varbinds are the sanctioned
  // materializing bridges.
  const bool view_file = ctx.file.path.find("ber_view") != std::string::npos;
  for (const Function& func : ctx.syntax.functions) {
    const bool view_method =
        func.qualified.find("BerReader::") != std::string::npos ||
        func.qualified.find("OidView::") != std::string::npos ||
        func.qualified.find("ValueView::") != std::string::npos ||
        func.qualified.find("VarBindView::") != std::string::npos ||
        func.qualified.find("MessageHeadView::") != std::string::npos;
    if (!view_file && !view_method) continue;
    if (func.name == "to_oid" || func.name == "to_value" ||
        func.name == "decode_varbinds") {
      continue;
    }
    const auto [first, last] =
        token_range(tokens, func.body_start, func.body_end);
    for (std::size_t i = first; i < last; ++i) {
      if (tokens[i].kind != Token::Kind::kIdent) continue;
      if (tokens[i].text == "throw") {
        // Allocation while already failing is fine (error messages).
        while (i < last && tokens[i].text != ";") ++i;
        continue;
      }
      const std::string_view name = tokens[i].text;
      const bool alloc_call =
          i + 1 < last && tokens[i + 1].text == "(" &&
          (name == "push_back" || name == "emplace_back" || name == "resize" ||
           name == "reserve" || name == "insert" || name == "append" ||
           name == "to_string" || name == "make_unique" ||
           name == "make_shared");
      const bool alloc_type =
          name == "new" || name == "vector" || name == "string";
      if (alloc_call || alloc_type) {
        ctx.report(
            "R8", ctx.file.line_of(tokens[i].pos),
            "allocation ('" + std::string(name) +
                "') on the zero-copy ber_view path; the hot path must not "
                "carry allocation-throwing patterns — materialize via "
                "to_oid/to_value/decode_varbinds instead");
      }
    }
  }
}

// ===========================================================================
// Dispatcher + catalog

const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"R1",
       "decode-safety: ber/byte-buffer reads need BerError + BufferUnderflow "
       "handlers"},
      {"R2",
       "OID monotonicity: GETNEXT/GETBULK walk loops must reject "
       "non-increasing OIDs"},
      {"R3",
       "units discipline: bit/byte/Mbps conversions only via common/units.h; "
       "counter differencing only in monitor/counter_math"},
      {"R4",
       "sim-time purity: no wall clocks or ambient randomness outside "
       "common/sim_time / common/rng"},
      {"R5",
       "module purity: measurement modules may not reach the SNMP layer or "
       "mutate the StatsDb"},
      {"R6",
       "taint/bounds: wire-derived lengths/counts must pass an upper-bound "
       "check before indexing, resize/reserve/assign, or span construction"},
      {"R7",
       "wire exhaustiveness: switches over wire enums cover every enumerator "
       "or carry an error-returning default; BER tag switches always do"},
      {"R8",
       "hot-path isolation: module hook deliveries are exception-guarded; "
       "the zero-copy ber_view path stays allocation-free"},
  };
  return kCatalog;
}

std::vector<Finding> run_rules(const SourceFile& file, const Syntax& syntax,
                               const EnumRegistry& registry) {
  RuleContext ctx(file, syntax, registry);
  check_r1(ctx);
  check_r2(ctx);
  check_r3(ctx);
  check_r4(ctx);
  check_r5(ctx);
  check_r6(ctx);
  check_r7(ctx);
  check_r8(ctx);
  return std::move(ctx.findings);
}

}  // namespace netqos::analyze
