// Pattern rules R1-R5 over masked source, scoped by the syntax layer's
// function and try-block spans. Each matcher implements the regular
// expression named and quoted in the comment above it (the *_RE names);
// tests/lint/goldens/fixture_verdicts.txt pins the exact line of every
// finding they raise on the fixture corpus.
#include <algorithm>
#include <cctype>
#include <string>

#include "analyze.h"
#include "rules_internal.h"

namespace netqos::analyze {

namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && is_space(s[i])) ++i;
  return i;
}

bool boundary_before(std::string_view s, std::size_t pos) {
  return pos == 0 || !is_word(s[pos - 1]);
}

bool boundary_after(std::string_view s, std::size_t end) {
  return end >= s.size() || !is_word(s[end]);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// --- RELOP_RE: <=|>=|(?<![<>-])<(?![<>=])|(?<![<>-])>(?![<>=]) ----------
bool has_relop(std::string_view line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c != '<' && c != '>') continue;
    if (i + 1 < line.size() && line[i + 1] == '=') return true;  // <= >=
    const char prev = i > 0 ? line[i - 1] : '\0';
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (prev == '<' || prev == '>' || prev == '-') continue;
    if (next == '<' || next == '>' || next == '=') continue;
    return true;
  }
  return false;
}

}  // namespace

RuleContext::RuleContext(const SourceFile& f, const Syntax& s,
                         const EnumRegistry& r)
    : file(f), syntax(s), registry(r) {
  // ALLOW_RE: netqos-lint:\s*allow\(([^)]*)\) — raw lines; a match
  // covers its own line and the next one.
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    const std::size_t tag = line.find("netqos-lint:");
    if (tag == std::string::npos) continue;
    std::size_t p = skip_ws(line, tag + 12);
    if (!starts_with(std::string_view(line).substr(p), "allow(")) continue;
    p += 6;
    const std::size_t close = line.find(')', p);
    if (close == std::string::npos) continue;
    const std::string list = line.substr(p, close - p);
    std::set<std::string> rules;
    std::size_t start = 0;
    while (start <= list.size()) {
      std::size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      std::string rule = normalize(list.substr(start, comma - start));
      std::transform(rule.begin(), rule.end(), rule.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                     });
      if (!rule.empty()) rules.insert(rule);
      start = comma + 1;
    }
    const int lineno = static_cast<int>(i) + 1;
    allows[lineno].insert(rules.begin(), rules.end());
    allows[lineno + 1].insert(rules.begin(), rules.end());
  }
}

void RuleContext::report(const std::string& rule, int line,
                         const std::string& message) {
  const auto it = allows.find(line);
  if (it != allows.end() && it->second.count(rule) > 0) return;
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line && f.message == message) return;
  }
  findings.push_back(Finding{rule, file.path, line, message, file.raw_line(line)});
}

// ===========================================================================
// R1: decode-safety

namespace {

constexpr const char* kR1DecodeNames[] = {
    "decode_message", "decode_pdu", "decode_trap_v1", "decode_message_head",
    "decode_varbinds"};
constexpr const char* kR1MemberNames[] = {
    "get_u8",  "get_u16",  "get_u32",   "get_u64",    "get_bytes",
    "get_string", "peek_u8", "peek_u16", "peek_u32",  "peek_u64",
    "peek_bytes", "peek_string", "read_tlv", "expect_tlv", "to_oid",
    "to_value", "to_unsigned", "to_integer", "to_text"};

bool in_list(std::string_view name, const char* const* names, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (name == names[i]) return true;
  }
  return false;
}

bool catches_cover(const std::vector<std::string>& types,
                   std::string_view wanted) {
  for (const std::string& t : types) {
    if (t == wanted || t == "..." || t == "exception" || t == "runtime_error") {
      return true;
    }
  }
  return false;
}

}  // namespace

void check_r1(RuleContext& ctx) {
  if (ctx.in_file({"common/byte_buffer.h", "common/byte_buffer.cpp",
                   "snmp/ber.h", "snmp/ber.cpp", "snmp/ber_view.h",
                   "snmp/ber_view.cpp", "snmp/pdu.cpp"})) {
    return;
  }
  const std::vector<Token>& tokens = ctx.syntax.tokens;
  // R1_CALL_RE call sites: position/label pairs, each position at the
  // start of the match ('.' included for member calls).
  struct Call {
    std::size_t pos;
    std::string label;
  };
  std::vector<Call> calls;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind == Token::Kind::kIdent && tok.text == "ber" &&
        i + 3 < tokens.size() && tokens[i + 1].text == "::" &&
        tokens[i + 2].kind == Token::Kind::kIdent &&
        (starts_with(tokens[i + 2].text, "read_") ||
         starts_with(tokens[i + 2].text, "expect_")) &&
        tokens[i + 3].text == "(") {
      std::string label = "ber::";
      label += tokens[i + 2].text;
      calls.push_back({tok.pos, std::move(label)});
      i += 3;
      continue;
    }
    if (tok.kind == Token::Kind::kIdent && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(" &&
        (in_list(tok.text, kR1DecodeNames, std::size(kR1DecodeNames)) ||
         tok.text == "next_varbind")) {
      calls.push_back({tok.pos, std::string(tok.text)});
      ++i;
      continue;
    }
    if (tok.text == "." && tok.kind == Token::Kind::kPunct &&
        i + 2 < tokens.size() &&
        tokens[i + 1].kind == Token::Kind::kIdent &&
        in_list(tokens[i + 1].text, kR1MemberNames, std::size(kR1MemberNames)) &&
        tokens[i + 2].text == "(") {
      std::string label = ".";
      label += tokens[i + 1].text;
      calls.push_back({tok.pos, std::move(label)});
      i += 2;
      continue;
    }
  }
  for (const Call& call : calls) {
    const Function* func = ctx.syntax.innermost_function(call.pos);
    if (func == nullptr) continue;  // declaration or namespace scope
    if (starts_with(func->name, "decode_") || starts_with(func->name, "read_") ||
        starts_with(func->name, "parse_") ||
        starts_with(func->name, "expect_") ||
        starts_with(func->name, "peek_")) {
      continue;
    }
    bool covered = false;
    for (const TryBlock& block : ctx.syntax.try_blocks) {
      if (block.body_start <= call.pos && call.pos < block.body_end &&
          catches_cover(block.catch_types, "BerError") &&
          catches_cover(block.catch_types, "BufferUnderflow")) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      ctx.report(
          "R1", ctx.file.line_of(call.pos),
          "decode call '" + call.label +
              "' not guarded by handlers for both BerError and "
              "BufferUnderflow (PR 3 bug class); wrap it in try/catch or "
              "name the enclosing function decode_*/read_*/parse_* to mark "
              "it a propagating decoder");
    }
  }
}

// ===========================================================================
// R2: OID monotonicity

namespace {

bool in_assign_lhs_class(char c) {
  // ASSIGN_RE lhs class: [\w.\[\]>\-]
  return is_word(c) || c == '.' || c == '[' || c == ']' || c == '>' || c == '-';
}

/// First assignment in [begin,end) whose lhs is a substring of the
/// normalized walk-call arguments (the loop-carried cursor).
std::string find_loop_cursor(std::string_view masked, std::size_t begin,
                             std::size_t end, const std::string& args_norm) {
  for (std::size_t pos = begin; pos < end; ++pos) {
    if (masked[pos] != '=') continue;
    if (pos + 1 < masked.size() && masked[pos + 1] == '=') {
      ++pos;
      continue;
    }
    std::size_t q = pos;
    while (q > begin && is_space(masked[q - 1])) --q;
    std::size_t r = q;
    while (r > begin && in_assign_lhs_class(masked[r - 1])) --r;
    if (r == q) continue;
    const std::string lhs(masked.substr(r, q - r));
    if (std::isdigit(static_cast<unsigned char>(lhs[0])) != 0) continue;
    if (lhs.find("==") != std::string::npos) continue;
    const std::string lhs_norm = normalize(lhs);
    if (!lhs_norm.empty() && args_norm.find(lhs_norm) != std::string::npos) {
      return lhs;
    }
  }
  return "";
}

/// Any line of `scope` naming the cursor's trailing identifier next to a
/// relational operator counts as a monotonicity guard.
bool guarded(std::string_view scope, const std::string& cursor) {
  // Last \w+ run in the cursor expression.
  std::string ident;
  for (std::size_t i = 0; i < cursor.size();) {
    if (is_word(cursor[i])) {
      std::size_t j = i + 1;
      while (j < cursor.size() && is_word(cursor[j])) ++j;
      ident = cursor.substr(i, j - i);
      i = j;
    } else {
      ++i;
    }
  }
  if (ident.empty()) ident = cursor;
  std::size_t start = 0;
  while (start <= scope.size()) {
    std::size_t nl = scope.find('\n', start);
    if (nl == std::string_view::npos) nl = scope.size();
    const std::string_view line = scope.substr(start, nl - start);
    if (line.find(ident) != std::string_view::npos && has_relop(line)) {
      return true;
    }
    if (nl == scope.size()) break;
    start = nl + 1;
  }
  return false;
}

/// Loop-body span following for(...)/while(...): the braced block, or
/// the single statement through its `;`.
bool loop_body_span(std::string_view masked, std::size_t paren_open,
                    std::size_t* begin, std::size_t* end) {
  const std::size_t after = match_paren(masked, paren_open);
  std::size_t i = after;
  while (i < masked.size() &&
         (masked[i] == ' ' || masked[i] == '\t' || masked[i] == '\n')) {
    ++i;
  }
  if (i < masked.size() && masked[i] == '{') {
    *begin = i;
    *end = match_brace(masked, i);
    return true;
  }
  *begin = i;
  const std::size_t semi = masked.find(';', i);
  *end = semi == std::string_view::npos ? masked.size() : semi + 1;
  return true;
}

}  // namespace

void check_r2(RuleContext& ctx) {
  const std::string_view masked = ctx.file.masked;
  const std::vector<Token>& tokens = ctx.syntax.tokens;
  // (a) synchronous walk loops: loop body both calls get_next/get_bulk
  // and assigns (part of) the call's argument -> loop-carried cursor.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent ||
        (tokens[i].text != "for" && tokens[i].text != "while") ||
        tokens[i + 1].text != "(") {
      continue;
    }
    std::size_t begin = 0, end = 0;
    if (!loop_body_span(masked, tokens[i + 1].pos, &begin, &end)) continue;
    for (std::size_t j = i + 2; j < tokens.size(); ++j) {
      if (tokens[j].pos < begin) continue;
      if (tokens[j].pos >= end) break;
      if (tokens[j].kind != Token::Kind::kIdent ||
          (tokens[j].text != "get_next" && tokens[j].text != "get_bulk") ||
          j + 1 >= tokens.size() || tokens[j + 1].text != "(") {
        continue;
      }
      const std::size_t args_begin = tokens[j + 1].pos + 1;
      const std::size_t args_end = match_paren(masked, tokens[j + 1].pos) - 1;
      const std::string args_norm =
          normalize(masked.substr(args_begin, args_end - args_begin));
      const std::string cursor = find_loop_cursor(masked, begin, end, args_norm);
      if (cursor.empty()) continue;
      if (!guarded(masked.substr(begin, end - begin), cursor)) {
        ctx.report(
            "R2", ctx.file.line_of(tokens[j].pos),
            "GETNEXT/GETBULK walk advances cursor '" + cursor +
                "' without a monotonicity guard; compare the returned OID "
                "against the cursor and stop on non-increasing results "
                "(RFC 1905 §4.2.3)");
      }
    }
  }
  // (b) asynchronous walk steps: a range-for over varbinds that copies a
  // whole OID into a cursor must be guarded somewhere in the function.
  // R2_RANGE_FOR_RE: for\s*\(\s*(const\s+)?auto\s*&{0,2}\s*(\w+)\s*:
  //                  \s*[\w.\->]*varbinds\s*\)
  std::size_t scan = 0;
  while (true) {
    const std::size_t f = masked.find("for", scan);
    if (f == std::string_view::npos) break;
    scan = f + 3;
    if (!boundary_before(masked, f) || !boundary_after(masked, f + 3)) continue;
    std::size_t p = skip_ws(masked, f + 3);
    if (p >= masked.size() || masked[p] != '(') continue;
    p = skip_ws(masked, p + 1);
    if (starts_with(masked.substr(p), "const") &&
        p + 5 < masked.size() && is_space(masked[p + 5])) {
      p = skip_ws(masked, p + 5);
    }
    if (!starts_with(masked.substr(p), "auto") ||
        !boundary_after(masked, p + 4)) {
      continue;
    }
    p = skip_ws(masked, p + 4);
    int amps = 0;
    while (p < masked.size() && masked[p] == '&' && amps < 2) {
      ++p;
      ++amps;
    }
    p = skip_ws(masked, p);
    const std::size_t vb_start = p;
    while (p < masked.size() && is_word(masked[p])) ++p;
    if (p == vb_start) continue;
    const std::string vb(masked.substr(vb_start, p - vb_start));
    p = skip_ws(masked, p);
    if (p >= masked.size() || masked[p] != ':') continue;
    p = skip_ws(masked, p + 1);
    // Range chain: [\w.\->]* run that must end in "varbinds".
    const std::size_t chain_start = p;
    while (p < masked.size() &&
           (is_word(masked[p]) || masked[p] == '.' || masked[p] == '-' ||
            masked[p] == '>')) {
      ++p;
    }
    const std::string_view chain = masked.substr(chain_start, p - chain_start);
    if (!ends_with(chain, "varbinds")) continue;
    p = skip_ws(masked, p);
    if (p >= masked.size() || masked[p] != ')') continue;
    const std::size_t open_idx = masked.find('{', p + 1);
    if (open_idx == std::string_view::npos) continue;
    const std::size_t body_end = match_brace(masked, open_idx);
    const std::string_view body = masked.substr(open_idx, body_end - open_idx);
    // am: ([\w.\[\]>\-]+)\s*=\s*VB\.oid\s*;
    const std::string needle = vb + ".oid";
    std::string cursor;
    for (std::size_t n = body.find(needle); n != std::string_view::npos;
         n = body.find(needle, n + 1)) {
      std::size_t after = n + needle.size();
      after = skip_ws(body, after);
      if (after >= body.size() || body[after] != ';') continue;
      std::size_t q = n;
      while (q > 0 && is_space(body[q - 1])) --q;
      if (q == 0 || body[q - 1] != '=') continue;
      --q;
      if (q > 0 && (body[q - 1] == '=' || body[q - 1] == '!' ||
                    body[q - 1] == '<' || body[q - 1] == '>')) {
        continue;
      }
      while (q > 0 && is_space(body[q - 1])) --q;
      std::size_t r = q;
      while (r > 0 && in_assign_lhs_class(body[r - 1])) --r;
      if (r == q) continue;
      cursor = std::string(body.substr(r, q - r));
      break;
    }
    if (cursor.empty()) continue;
    const Function* func = ctx.syntax.innermost_function(f);
    const std::string_view scope =
        func != nullptr
            ? masked.substr(func->body_start, func->body_end - func->body_start)
            : masked;
    if (!guarded(scope, cursor)) {
      ctx.report(
          "R2", ctx.file.line_of(f),
          "walk step copies response OID into cursor '" + cursor +
              "' without a monotonicity guard in the enclosing function; a "
              "repeating or regressing agent would walk forever");
    }
  }
}

// ===========================================================================
// R3: units discipline

namespace {

// R3_CONTEXT_RE: bps|bandwidth|octet|[kmg]bps|byte|\bbits?\b|speed|ifspeed
//              |gap|dispersion|probe|spacing
// (case-insensitive; [kmg]bps and ifspeed are subsumed by bps/speed).
// Probe rate vocabulary counts as bandwidth context: packet-pair and
// train estimators turn inter-probe gaps into rates.
bool bandwidth_words(std::string_view text) {
  const std::string lower = to_lower(text);
  for (const char* needle : {"bps", "bandwidth", "octet", "byte", "speed",
                             "gap", "dispersion", "probe", "spacing"}) {
    if (lower.find(needle) != std::string::npos) return true;
  }
  for (std::size_t pos = lower.find("bit"); pos != std::string::npos;
       pos = lower.find("bit", pos + 1)) {
    if (!boundary_before(lower, pos)) continue;
    std::size_t end = pos + 3;
    if (end < lower.size() && lower[end] == 's') ++end;
    if (boundary_after(lower, end)) return true;
  }
  return false;
}

bool in_r3_literal_class(char c) { return is_word(c) || c == '.' || c == '\''; }

// R3_FACTOR8_RE: [*/]\s*8(\.0+)?(?![\w.']) | (?<![\w.'])8(\.0+)?\s*\*
bool factor8(std::string_view line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '*' || line[i] == '/') {
      std::size_t p = skip_ws(line, i + 1);
      if (p < line.size() && line[p] == '8') {
        std::size_t end = p + 1;
        if (end < line.size() && line[end] == '.') {
          std::size_t z = end + 1;
          while (z < line.size() && line[z] == '0') ++z;
          if (z > end + 1) end = z;
        }
        if (end >= line.size() || !in_r3_literal_class(line[end])) return true;
        // Backtrack: bare `8` (no .0+) also satisfies the lookahead.
        if (p + 1 >= line.size() || !in_r3_literal_class(line[p + 1])) {
          return true;
        }
      }
    }
    if (line[i] == '8' && (i == 0 || !in_r3_literal_class(line[i - 1]))) {
      std::size_t end = i + 1;
      if (end < line.size() && line[end] == '.') {
        std::size_t z = end + 1;
        while (z < line.size() && line[z] == '0') ++z;
        if (z > end + 1) {
          const std::size_t after = skip_ws(line, z);
          if (after < line.size() && line[after] == '*') return true;
        }
      }
      const std::size_t after = skip_ws(line, end);
      if (after < line.size() && line[after] == '*') return true;
    }
  }
  return false;
}

// R3_DURATION_RE: \bk(Nano|Micro|Milli)second\b|\bkSecond\b
//               |\b(nano|micro|milli)?seconds\s*\(
// Duration arithmetic like `8 * kMillisecond` or `seconds(8)` is time
// math, not a unit conversion — such lines are exempt from R3(a).
bool duration_math(std::string_view line) {
  for (const char* name :
       {"kNanosecond", "kMicrosecond", "kMillisecond", "kSecond"}) {
    const std::string_view needle(name);
    for (std::size_t pos = line.find(needle); pos != std::string_view::npos;
         pos = line.find(needle, pos + 1)) {
      const bool before_ok = pos == 0 || !is_word(line[pos - 1]);
      const std::size_t end = pos + needle.size();
      const bool after_ok = end >= line.size() || !is_word(line[end]);
      if (before_ok && after_ok) return true;
    }
  }
  for (const char* name :
       {"nanoseconds", "microseconds", "milliseconds", "seconds"}) {
    const std::string_view needle(name);
    for (std::size_t pos = line.find(needle); pos != std::string_view::npos;
         pos = line.find(needle, pos + 1)) {
      if (pos > 0 && is_word(line[pos - 1])) continue;
      const std::size_t after = skip_ws(line, pos + needle.size());
      if (after < line.size() && line[after] == '(') return true;
    }
  }
  return false;
}

// R3_DECIMAL_RE candidates (longest-first), boundaries (?<![\w.'])
// and (?![\w.']).
bool decimal_multiplier(std::string_view line) {
  static const char* kLiterals[] = {
      "1'000'000'000", "1000000000", "10'000'000", "1'000'000", "1000000",
      "1'000", "1000.0", "8.0", "1e3", "1e6", "1e9", "8e3", "8e6", "8e9",
      // Negative exponents scale raw nanosecond gaps in probe rate math.
      "1e-3", "1e-6", "1e-9", "8e-3", "8e-6", "8e-9"};
  for (const char* lit : kLiterals) {
    const std::string_view needle(lit);
    for (std::size_t pos = line.find(needle); pos != std::string_view::npos;
         pos = line.find(needle, pos + 1)) {
      const bool before_ok = pos == 0 || !in_r3_literal_class(line[pos - 1]);
      const std::size_t end = pos + needle.size();
      const bool after_ok = end >= line.size() || !in_r3_literal_class(line[end]);
      if (before_ok && after_ok) return true;
    }
  }
  return false;
}

// R3_COUNTER_ID: \w*(in|out)_(octets|packets|discards)\w* | \bsys_uptime\w*
//              | \bif(HC)?(In|Out)Octets\w*
bool is_counter_ident(std::string_view word) {
  for (const char* needle :
       {"in_octets", "out_octets", "in_packets", "out_packets", "in_discards",
        "out_discards"}) {
    if (word.find(needle) != std::string_view::npos) return true;
  }
  if (starts_with(word, "sys_uptime")) return true;
  for (const char* prefix :
       {"ifInOctets", "ifOutOctets", "ifHCInOctets", "ifHCOutOctets"}) {
    if (starts_with(word, prefix)) return true;
  }
  return false;
}

// R3_COUNTER_SUB_RE: (counter)\s*-(?!>) | (?<!-)-\s*(counter)
bool counter_subtraction(std::string_view line) {
  for (std::size_t i = 0; i < line.size();) {
    if (!is_word(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < line.size() && is_word(line[j])) ++j;
    const std::string_view word = line.substr(i, j - i);
    if (is_counter_ident(word)) {
      const std::size_t after = skip_ws(line, j);
      if (after < line.size() && line[after] == '-' &&
          (after + 1 >= line.size() || line[after + 1] != '>')) {
        return true;
      }
    }
    i = j;
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] != '-' || (i > 0 && line[i - 1] == '-')) continue;
    const std::size_t p = skip_ws(line, i + 1);
    std::size_t j = p;
    while (j < line.size() && is_word(line[j])) ++j;
    if (j > p && is_counter_ident(line.substr(p, j - p))) return true;
  }
  return false;
}

}  // namespace

void check_r3(RuleContext& ctx) {
  const bool units_ok = ctx.in_file({"common/units.h", "common/sim_time.h"});
  const bool counters_ok =
      ctx.in_file({"monitor/counter_math.h", "monitor/counter_math.cpp"});
  std::size_t offset = 0;
  for (std::size_t i = 0; i < ctx.file.masked_lines.size(); ++i) {
    const std::string& mline = ctx.file.masked_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (!units_ok) {
      // Context window: the innermost function's body plus up to 200
      // chars of declaration ahead of it; the line itself otherwise.
      bool in_context = false;
      const Function* func = ctx.syntax.innermost_function(offset);
      if (func == nullptr) {
        in_context = bandwidth_words(mline);
      } else {
        const std::size_t start =
            func->body_start > 200 ? func->body_start - 200 : 0;
        in_context = bandwidth_words(
            std::string_view(ctx.file.masked).substr(start, func->body_end - start));
      }
      if (in_context && mline.find(">>") == std::string::npos &&
          !duration_math(mline) && factor8(mline)) {
        ctx.report("R3", lineno,
                   "raw factor-of-8 bit/byte conversion; use "
                   "to_bits_per_second/to_bytes_per_second/kBitsPerByte from "
                   "common/units.h (ifSpeed is bits/s, ifOctets are bytes — "
                   "paper Table 1)");
      }
      if (in_context && decimal_multiplier(mline)) {
        ctx.report("R3", lineno,
                   "raw decimal bandwidth multiplier; use kKbps/kMbps/kGbps "
                   "or the conversion helpers in common/units.h (gap-to-rate "
                   "math converts via to_seconds/from_seconds)");
      }
    }
    if (!counters_ok && counter_subtraction(mline)) {
      ctx.report("R3", lineno,
                 "naked subtraction of a cumulative MIB counter; "
                 "Counter32/TimeTicks wrap and must be differenced via "
                 "monitor/counter_math (paper §3.1)");
    }
    offset += mline.size() + 1;
  }
}

// ===========================================================================
// R4: sim-time purity

namespace {

/// \bNAME\s*\( — word boundary before, call parens after.
bool word_call(std::string_view line, std::string_view name) {
  for (std::size_t pos = line.find(name); pos != std::string_view::npos;
       pos = line.find(name, pos + 1)) {
    if (!boundary_before(line, pos)) continue;
    const std::size_t p = skip_ws(line, pos + name.size());
    if (p < line.size() && line[p] == '(') return true;
  }
  return false;
}

bool contains_bounded(std::string_view line, std::string_view needle) {
  for (std::size_t pos = line.find(needle); pos != std::string_view::npos;
       pos = line.find(needle, pos + 1)) {
    if (boundary_before(line, pos) &&
        boundary_after(line, pos + needle.size())) {
      return true;
    }
  }
  return false;
}

}  // namespace

void check_r4(RuleContext& ctx) {
  if (ctx.in_file({"common/sim_time.h", "common/sim_time.cpp", "common/rng.h",
                   "common/rng.cpp"})) {
    return;
  }
  for (std::size_t i = 0; i < ctx.file.masked_lines.size(); ++i) {
    const std::string& mline = ctx.file.masked_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    auto flag = [&](const std::string& what) {
      ctx.report("R4", lineno,
                 what + " breaks deterministic, resumable simulation");
    };
    for (const char* clock :
         {"std::chrono::system_clock", "std::chrono::steady_clock",
          "std::chrono::high_resolution_clock"}) {
      if (contains_bounded(mline, clock)) {
        flag("wall clock (use common/sim_time SimTime)");
        break;
      }
    }
    if (word_call(mline, "gettimeofday")) {
      flag("gettimeofday (use common/sim_time)");
    }
    if (word_call(mline, "clock_gettime")) {
      flag("clock_gettime (use common/sim_time)");
    }
    // (?<![\w:.>])time\s*\(\s*(NULL|nullptr|0)?\s*\)
    {
      std::size_t arg = 0;
      bool hit = false;
      for (std::size_t pos = mline.find("time"); pos != std::string::npos;
           pos = mline.find("time", pos + 1)) {
        if (pos > 0) {
          const char prev = mline[pos - 1];
          if (is_word(prev) || prev == ':' || prev == '.' || prev == '>') {
            continue;
          }
        }
        arg = skip_ws(mline, pos + 4);
        if (arg >= mline.size() || mline[arg] != '(') continue;
        std::size_t p = skip_ws(mline, arg + 1);
        for (const char* a : {"NULL", "nullptr", "0"}) {
          const std::string_view sv(a);
          if (starts_with(std::string_view(mline).substr(p), sv)) {
            const std::size_t cand = skip_ws(mline, p + sv.size());
            if (cand < mline.size() && mline[cand] == ')') {
              p = cand;
              break;
            }
          }
        }
        if (p < mline.size() && mline[p] == ')') {
          hit = true;
          break;
        }
      }
      if (hit) flag("time() (use common/sim_time)");
    }
    // (?<![\w:.>])s?rand\s*\( | \bstd::s?rand\b
    {
      bool hit = false;
      for (std::size_t pos = mline.find("rand"); pos != std::string::npos;
           pos = mline.find("rand", pos + 1)) {
        std::size_t start = pos;
        if (start > 0 && mline[start - 1] == 's') --start;
        if (start > 0) {
          const char prev = mline[start - 1];
          if (is_word(prev) || prev == ':' || prev == '.' || prev == '>') {
            continue;
          }
        }
        const std::size_t p = skip_ws(mline, pos + 4);
        if (p < mline.size() && mline[p] == '(') {
          hit = true;
          break;
        }
      }
      if (!hit) {
        for (const char* name : {"std::rand", "std::srand"}) {
          if (contains_bounded(mline, name)) {
            hit = true;
            break;
          }
        }
      }
      if (hit) flag("rand()/srand() (use common/rng Xoshiro256)");
    }
    if (contains_bounded(mline, "std::random_device")) {
      flag("std::random_device (use an explicit seed and common/rng)");
    }
    if (contains_bounded(mline, "std::mt19937_64") ||
        contains_bounded(mline, "std::mt19937") ||
        contains_bounded(mline, "std::default_random_engine")) {
      flag("implicit std RNG (use common/rng Xoshiro256)");
    }
  }
  // Including the headers at all is suspicious enough to flag in raw text.
  for (std::size_t i = 0; i < ctx.file.lines.size(); ++i) {
    const std::string& line = ctx.file.lines[i];
    std::size_t p = skip_ws(line, 0);
    if (p >= line.size() || line[p] != '#') continue;
    p = skip_ws(line, p + 1);
    if (!starts_with(std::string_view(line).substr(p), "include")) continue;
    p = skip_ws(line, p + 7);
    if (p >= line.size() || line[p] != '<') continue;
    const std::string_view rest = std::string_view(line).substr(p + 1);
    if (starts_with(rest, "ctime>") || starts_with(rest, "random>") ||
        starts_with(rest, "sys/time.h>")) {
      ctx.report("R4", static_cast<int>(i) + 1,
                 "wall-clock/ambient-randomness header include; only "
                 "common/sim_time and common/rng may provide time and "
                 "randomness");
    }
  }
}

// ===========================================================================
// R5: module purity

namespace {

/// R5_MODULE_CLASS_RE over the token stream: a Module base-clause or a
/// constructor-initialiser delegating to Module(...).
bool defines_module_subclass(const std::vector<Token>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == Token::Kind::kIdent && tokens[i].text == "class" &&
        i + 2 < tokens.size() && tokens[i + 1].kind == Token::Kind::kIdent) {
      std::size_t j = i + 2;
      if (j < tokens.size() && tokens[j].text == "final") ++j;
      if (j < tokens.size() && tokens[j].text == ":") {
        ++j;
        if (j < tokens.size() && (tokens[j].text == "public" ||
                                  tokens[j].text == "private" ||
                                  tokens[j].text == "protected")) {
          ++j;
        }
        if (j + 1 < tokens.size() && tokens[j].text == "mon" &&
            tokens[j + 1].text == "::") {
          j += 2;
        }
        if (j < tokens.size() && tokens[j].text == "Module") return true;
      }
    }
    if (tokens[i].text == ")" && i + 2 < tokens.size() &&
        tokens[i + 1].text == ":") {
      std::size_t j = i + 2;
      if (j + 1 < tokens.size() && tokens[j].text == "mon" &&
          tokens[j + 1].text == "::") {
        j += 2;
      }
      if (j + 1 < tokens.size() && tokens[j].text == "Module" &&
          tokens[j + 1].text == "(") {
        return true;
      }
    }
  }
  return false;
}

// \bsnmp\s*:: | \bSnmpClient\b
bool touches_snmp(std::string_view line) {
  for (std::size_t pos = line.find("snmp"); pos != std::string_view::npos;
       pos = line.find("snmp", pos + 1)) {
    if (!boundary_before(line, pos)) continue;
    const std::size_t p = skip_ws(line, pos + 4);
    if (p + 1 < line.size() && line[p] == ':' && line[p + 1] == ':') {
      return true;
    }
  }
  return contains_bounded(line, "SnmpClient");
}

// \bStatsDb\s*[&*] (and the const-qualified variant)
bool db_handle(std::string_view line, bool* has_const) {
  *has_const = false;
  bool found = false;
  for (std::size_t pos = line.find("StatsDb"); pos != std::string_view::npos;
       pos = line.find("StatsDb", pos + 1)) {
    if (!boundary_before(line, pos)) continue;
    const std::size_t p = skip_ws(line, pos + 7);
    if (p >= line.size() || (line[p] != '&' && line[p] != '*')) continue;
    found = true;
    // const\s+StatsDb — the const must directly precede.
    std::size_t q = pos;
    while (q > 0 && is_space(line[q - 1])) --q;
    if (q >= 5 && line.substr(q - 5, 5) == "const" &&
        boundary_before(line, q - 5) && q != pos) {
      *has_const = true;
    }
  }
  return found;
}

// \bconst_cast\s*<\s*(mon\s*::\s*)?StatsDb\b
bool db_const_cast(std::string_view line) {
  for (std::size_t pos = line.find("const_cast");
       pos != std::string_view::npos; pos = line.find("const_cast", pos + 1)) {
    if (!boundary_before(line, pos)) continue;
    std::size_t p = skip_ws(line, pos + 10);
    if (p >= line.size() || line[p] != '<') continue;
    p = skip_ws(line, p + 1);
    if (starts_with(line.substr(p), "mon")) {
      const std::size_t q = skip_ws(line, p + 3);
      if (q + 1 < line.size() && line[q] == ':' && line[q + 1] == ':') {
        p = skip_ws(line, q + 2);
      }
    }
    if (starts_with(line.substr(p), "StatsDb") &&
        boundary_after(line, p + 7)) {
      return true;
    }
  }
  return false;
}

// (samples\(\)|\w*stats_db\w*|\w*_db)\s*(\.|->)\s*(update|attach_metrics)\s*\(
bool db_mutator_call(std::string_view line) {
  for (const char* method : {"update", "attach_metrics"}) {
    const std::string_view m(method);
    for (std::size_t pos = line.find(m); pos != std::string_view::npos;
         pos = line.find(m, pos + 1)) {
      if (!boundary_before(line, pos)) continue;
      const std::size_t after = skip_ws(line, pos + m.size());
      if (after >= line.size() || line[after] != '(') continue;
      // Walk back over \s* then `.` or `->` then \s* to the receiver.
      std::size_t q = pos;
      while (q > 0 && is_space(line[q - 1])) --q;
      if (q >= 1 && line[q - 1] == '.') {
        --q;
      } else if (q >= 2 && line[q - 2] == '-' && line[q - 1] == '>') {
        q -= 2;
      } else {
        continue;
      }
      while (q > 0 && is_space(line[q - 1])) --q;
      // Receiver: samples() …
      if (q >= 1 && line[q - 1] == ')') {
        std::size_t r = q - 1;
        while (r > 0 && is_space(line[r - 1])) --r;
        if (r >= 1 && line[r - 1] == '(') {
          std::size_t s = r - 1;
          while (s > 0 && is_space(line[s - 1])) --s;
          if (s >= 7 && line.substr(s - 7, 7) == "samples") return true;
        }
        continue;
      }
      // … or an identifier containing stats_db / ending in _db.
      std::size_t r = q;
      while (r > 0 && is_word(line[r - 1])) --r;
      if (r == q) continue;
      const std::string_view receiver = line.substr(r, q - r);
      if (receiver.find("stats_db") != std::string_view::npos ||
          ends_with(receiver, "_db")) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void check_r5(RuleContext& ctx) {
  if (ctx.in_file({"monitor/module.h", "monitor/module.cpp", "monitor/qos.h",
                   "monitor/qos.cpp", "monitor/distributed.h",
                   "monitor/distributed.cpp"})) {
    return;
  }
  const bool is_subject =
      ctx.file.path.find("monitor/modules/") != std::string::npos ||
      defines_module_subclass(ctx.syntax.tokens);
  if (!is_subject) return;
  for (std::size_t i = 0; i < ctx.file.lines.size(); ++i) {
    // \s*#\s*include\s*"snmp/ (anchored, raw line)
    const std::string& line = ctx.file.lines[i];
    std::size_t p = skip_ws(line, 0);
    if (p < line.size() && line[p] == '#') {
      p = skip_ws(line, p + 1);
      if (starts_with(std::string_view(line).substr(p), "include")) {
        p = skip_ws(line, p + 7);
        if (starts_with(std::string_view(line).substr(p), "\"snmp/")) {
          ctx.report("R5", static_cast<int>(i) + 1,
                     "measurement module includes an SNMP header; modules "
                     "consume the sample stream, polling belongs to the core");
        }
      }
    }
  }
  for (std::size_t i = 0; i < ctx.file.masked_lines.size(); ++i) {
    const std::string& mline = ctx.file.masked_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (touches_snmp(mline)) {
      ctx.report("R5", lineno,
                 "measurement module reaches the SNMP layer; modules consume "
                 "the sample stream, polling belongs to the core");
    }
    bool has_const = false;
    if (db_handle(mline, &has_const) && !has_const) {
      ctx.report("R5", lineno,
                 "measurement module holds a mutable StatsDb handle; modules "
                 "read rates via the const ModuleCore::samples() surface "
                 "only");
    }
    if (db_const_cast(mline)) {
      ctx.report("R5", lineno,
                 "const_cast around the StatsDb; the core ingests counters, "
                 "modules never write them back");
    }
    if (db_mutator_call(mline)) {
      ctx.report("R5", lineno,
                 "measurement module calls a StatsDb mutator; sample "
                 "ingestion is the core's job");
    }
  }
}

}  // namespace netqos::analyze
