// Syntax layer: tokenizer plus best-effort discovery of function bodies,
// try/catch blocks, switch statements, and enum definitions over masked
// text. Function discovery does not recognise a constructor with a
// parenthesized member-initialiser list as a function body; R1-R5 scope
// their checks by these spans, so changing that moves verdicts pinned in
// tests/lint/goldens/fixture_verdicts.txt.
#include "analyze.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>

namespace netqos::analyze {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

const std::array<std::string_view, 22> kMultiCharPunct = {
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};

constexpr std::array<std::string_view, 16> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "new", "delete", "throw", "do", "else", "case", "static_assert",
    "decltype"};

bool is_control_keyword(std::string_view name) {
  return std::find(kControlKeywords.begin(), kControlKeywords.end(), name) !=
         kControlKeywords.end();
}

}  // namespace

std::vector<Token> tokenize(std::string_view masked) {
  std::vector<Token> tokens;
  tokens.reserve(masked.size() / 4);
  std::size_t i = 0;
  const std::size_t n = masked.size();
  while (i < n) {
    const char c = masked[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(masked[j])) ++j;
      tokens.push_back({Token::Kind::kIdent, masked.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (is_digit(c)) {
      // pp-number: digits, idents, dots, digit separators, exponent signs.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = masked[j];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (masked[j - 1] == 'e' || masked[j - 1] == 'E' ||
                    masked[j - 1] == 'p' || masked[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      tokens.push_back({Token::Kind::kNumber, masked.substr(i, j - i), i});
      i = j;
      continue;
    }
    std::size_t len = 1;
    for (const std::string_view op : kMultiCharPunct) {
      if (masked.substr(i, op.size()) == op) {
        len = op.size();
        break;
      }
    }
    tokens.push_back({Token::Kind::kPunct, masked.substr(i, len), i});
    i += len;
  }
  return tokens;
}

std::size_t match_brace(std::string_view text, std::size_t open_idx) {
  int depth = 0;
  for (std::size_t i = open_idx; i < text.size(); ++i) {
    if (text[i] == '{') {
      ++depth;
    } else if (text[i] == '}') {
      if (--depth == 0) return i + 1;
    }
  }
  return text.size();
}

std::size_t match_paren(std::string_view text, std::size_t open_idx) {
  int depth = 0;
  for (std::size_t i = open_idx; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return text.size();
}

const Function* Syntax::innermost_function(std::size_t offset) const {
  const Function* best = nullptr;
  for (const Function& f : functions) {
    if (f.body_start <= offset && offset < f.body_end) {
      if (best == nullptr ||
          (f.body_end - f.body_start) < (best->body_end - best->body_start)) {
        best = &f;
      }
    }
  }
  return best;
}

namespace {

/// NAME(args) chains followed (within 400 chars of decoration that never
/// hits `;,)=}`) by `{`.
void find_functions(const SourceFile& file, const std::vector<Token>& tokens,
                    std::vector<Function>& out) {
  const std::string_view masked = file.masked;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent) continue;
    // Maximal qualified chain: IDENT (:: ~? IDENT)*
    std::size_t last = t;
    std::string qualified(tokens[t].text);
    while (last + 1 < tokens.size() && tokens[last + 1].text == "::") {
      std::size_t next = last + 2;
      if (next < tokens.size() && tokens[next].text == "~") ++next;
      if (next >= tokens.size() || tokens[next].kind != Token::Kind::kIdent) break;
      qualified += "::";
      if (tokens[last + 2].text == "~") qualified += "~";
      qualified += tokens[next].text;
      last = next;
    }
    if (last + 1 >= tokens.size() || tokens[last + 1].text != "(") continue;
    const std::string name(tokens[last].text);
    if (is_control_keyword(name)) {
      t = last;
      continue;
    }
    const std::size_t close = match_paren(masked, tokens[last + 1].pos);
    if (close >= masked.size()) continue;
    const std::size_t limit = std::min(masked.size(), close + 400);
    for (std::size_t i = close; i < limit; ++i) {
      const char c = masked[i];
      if (c == '{') {
        out.push_back(Function{name, qualified, i, match_brace(masked, i)});
        break;
      }
      if (c == ';' || c == ',' || c == ')' || c == '=' || c == '}') break;
    }
    t = last + 1;  // resume after the `(`, like finditer
  }
}

void find_try_blocks(const SourceFile& file, std::vector<TryBlock>& out) {
  const std::string_view masked = file.masked;
  std::size_t pos = 0;
  while (true) {
    const std::size_t t = masked.find("try", pos);
    if (t == std::string_view::npos) break;
    pos = t + 3;
    if (t > 0 && is_ident_char(masked[t - 1])) continue;
    if (t + 3 < masked.size() && is_ident_char(masked[t + 3])) continue;
    // Only whitespace may separate `try` from its `{`.
    std::size_t open_idx = t + 3;
    while (open_idx < masked.size() &&
           std::isspace(static_cast<unsigned char>(masked[open_idx])) != 0) {
      ++open_idx;
    }
    if (open_idx >= masked.size() || masked[open_idx] != '{') continue;
    TryBlock block;
    block.body_start = open_idx;
    block.body_end = match_brace(masked, open_idx);
    std::size_t scan = block.body_end;
    while (true) {
      std::size_t c = scan;
      while (c < masked.size() &&
             std::isspace(static_cast<unsigned char>(masked[c])) != 0) {
        ++c;
      }
      if (masked.substr(c, 5) != "catch" ||
          (c + 5 < masked.size() && is_ident_char(masked[c + 5]))) {
        break;
      }
      std::size_t paren = c + 5;
      while (paren < masked.size() &&
             std::isspace(static_cast<unsigned char>(masked[paren])) != 0) {
        ++paren;
      }
      if (paren >= masked.size() || masked[paren] != '(') break;
      const std::size_t paren_end = match_paren(masked, paren);
      std::string decl(masked.substr(paren + 1, paren_end - paren - 2));
      const std::string trimmed = normalize(decl);
      if (trimmed == "...") {
        block.catch_types.push_back("...");
      } else {
        // Last identifier is usually the variable; the type is the one
        // before it (or the only one), const/volatile/std filtered out.
        std::vector<std::string> ids;
        for (std::size_t i = 0; i < decl.size();) {
          if (is_ident_start(decl[i])) {
            std::size_t j = i + 1;
            while (j < decl.size() && is_ident_char(decl[j])) ++j;
            const std::string id = decl.substr(i, j - i);
            if (id != "const" && id != "volatile" && id != "std") {
              ids.push_back(id);
            }
            i = j;
          } else {
            ++i;
          }
        }
        if (ids.size() >= 2) {
          block.catch_types.push_back(ids[ids.size() - 2]);
        } else if (!ids.empty()) {
          block.catch_types.push_back(ids.back());
        } else {
          block.catch_types.push_back("");
        }
      }
      const std::size_t body_open = masked.find('{', paren_end);
      if (body_open == std::string_view::npos) break;
      scan = match_brace(masked, body_open);
    }
    out.push_back(std::move(block));
  }
}

struct ClassSpan {
  std::string name;
  std::size_t body_start = 0;
  std::size_t body_end = 0;
};

/// class/struct definitions, for qualifying nested enums (Event::Kind).
void find_classes(const SourceFile& file, const std::vector<Token>& tokens,
                  std::vector<ClassSpan>& out) {
  const std::string_view masked = file.masked;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent ||
        (tokens[t].text != "class" && tokens[t].text != "struct")) {
      continue;
    }
    if (t > 0 && tokens[t - 1].text == "enum") continue;
    if (tokens[t + 1].kind != Token::Kind::kIdent) continue;
    const std::string name(tokens[t + 1].text);
    // Scan forward for `{` before any `;` / `(` (fwd decls, fn params).
    for (std::size_t j = t + 2; j < tokens.size(); ++j) {
      const std::string_view text = tokens[j].text;
      if (text == "{") {
        out.push_back(
            ClassSpan{name, tokens[j].pos, match_brace(masked, tokens[j].pos)});
        break;
      }
      if (text == ";" || text == "(" || text == ")" || text == "=") break;
    }
  }
}

void find_enums(const SourceFile& file, const std::vector<Token>& tokens,
                const std::vector<ClassSpan>& classes,
                std::vector<EnumDef>& out) {
  const std::string_view masked = file.masked;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent || tokens[t].text != "enum") {
      continue;
    }
    std::size_t j = t + 1;
    if (j < tokens.size() &&
        (tokens[j].text == "class" || tokens[j].text == "struct")) {
      ++j;
    }
    if (j >= tokens.size() || tokens[j].kind != Token::Kind::kIdent) continue;
    EnumDef def;
    def.name = std::string(tokens[j].text);
    const std::size_t name_pos = tokens[j].pos;
    ++j;
    if (j < tokens.size() && tokens[j].text == ":") {
      ++j;
      while (j < tokens.size() && tokens[j].text != "{" &&
             tokens[j].text != ";") {
        if (!def.underlying.empty()) def.underlying += " ";
        def.underlying += std::string(tokens[j].text);
        ++j;
      }
    }
    if (j >= tokens.size() || tokens[j].text != "{") continue;  // fwd decl
    const std::size_t body_end = match_brace(masked, tokens[j].pos);
    // Enumerators: identifiers at comma positions, initialisers skipped.
    bool expect_name = true;
    int depth = 0;
    for (std::size_t k = j + 1; k < tokens.size() && tokens[k].pos < body_end;
         ++k) {
      const std::string_view text = tokens[k].text;
      if (text == "(" || text == "{" || text == "<") ++depth;
      if (text == ")" || text == "}" || text == ">") --depth;
      if (depth < 0) break;
      if (expect_name && tokens[k].kind == Token::Kind::kIdent) {
        def.enumerators.push_back(std::string(text));
        expect_name = false;
      } else if (text == "," && depth == 0) {
        expect_name = true;
      }
    }
    def.qualified = def.name;
    // Qualify with the innermost enclosing class chain, outermost first.
    std::vector<std::string> scopes;
    for (const ClassSpan& cls : classes) {
      if (cls.body_start <= name_pos && name_pos < cls.body_end) {
        scopes.push_back(cls.name);
      }
    }
    if (!scopes.empty()) {
      std::string qualified;
      for (const std::string& scope : scopes) qualified += scope + "::";
      def.qualified = qualified + def.name;
    }
    out.push_back(std::move(def));
  }
}

void find_switches(const SourceFile& file, const std::vector<Token>& tokens,
                   std::vector<SwitchStmt>& out) {
  const std::string_view masked = file.masked;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].kind != Token::Kind::kIdent || tokens[t].text != "switch" ||
        tokens[t + 1].text != "(") {
      continue;
    }
    SwitchStmt sw;
    sw.keyword_pos = tokens[t].pos;
    sw.cond_start = tokens[t + 1].pos + 1;
    sw.cond_end = match_paren(masked, tokens[t + 1].pos) - 1;
    std::size_t open_idx = sw.cond_end + 1;
    while (open_idx < masked.size() &&
           std::isspace(static_cast<unsigned char>(masked[open_idx])) != 0) {
      ++open_idx;
    }
    if (open_idx >= masked.size() || masked[open_idx] != '{') continue;
    sw.body_start = open_idx;
    sw.body_end = match_brace(masked, open_idx);
    out.push_back(sw);
  }
  // Label scan: a label belongs to this switch unless a nested switch's
  // body contains it.
  for (SwitchStmt& sw : out) {
    auto in_nested = [&](std::size_t pos) {
      for (const SwitchStmt& other : out) {
        if (&other == &sw) continue;
        if (other.body_start > sw.body_start && other.body_end <= sw.body_end &&
            other.body_start <= pos && pos < other.body_end) {
          return true;
        }
      }
      return false;
    };
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      const std::size_t pos = tokens[t].pos;
      if (pos <= sw.body_start || pos >= sw.body_end || in_nested(pos)) continue;
      if (tokens[t].kind == Token::Kind::kIdent && tokens[t].text == "case") {
        ++sw.case_label_count;
        // Label tokens run to the single `:` terminator.
        std::vector<std::string_view> idents;
        std::size_t k = t + 1;
        for (; k < tokens.size() && tokens[k].pos < sw.body_end; ++k) {
          if (tokens[k].text == ":") break;
          if (tokens[k].kind == Token::Kind::kIdent) {
            idents.push_back(tokens[k].text);
          }
        }
        for (const std::string_view id : idents) {
          if (id.substr(0, 4) == "kTag") sw.has_ber_tag_cases = true;
        }
        if (idents.size() >= 2) {
          std::string qualifier;
          for (std::size_t q = 0; q + 1 < idents.size(); ++q) {
            if (!qualifier.empty()) qualifier += "::";
            qualifier += std::string(idents[q]);
          }
          if (sw.case_qualifier.empty()) sw.case_qualifier = qualifier;
          sw.case_enumerators.insert(std::string(idents.back()));
        }
        t = k;
      } else if (tokens[t].kind == Token::Kind::kIdent &&
                 tokens[t].text == "default" && t + 1 < tokens.size() &&
                 tokens[t + 1].text == ":") {
        sw.has_default = true;
        sw.default_start = tokens[t + 1].pos + 1;
        sw.default_end = sw.body_end;
        for (std::size_t k = t + 2; k < tokens.size(); ++k) {
          const std::size_t kpos = tokens[k].pos;
          if (kpos >= sw.body_end) break;
          if (in_nested(kpos)) continue;
          if (tokens[k].kind == Token::Kind::kIdent &&
              (tokens[k].text == "case" || tokens[k].text == "default")) {
            sw.default_end = kpos;
            break;
          }
        }
      }
    }
  }
}

}  // namespace

bool EnumDef::is_wire() const {
  return underlying.find("uint8_t") != std::string::npos;
}

Syntax parse_syntax(const SourceFile& file) {
  Syntax syntax;
  syntax.tokens = tokenize(file.masked);
  find_functions(file, syntax.tokens, syntax.functions);
  find_try_blocks(file, syntax.try_blocks);
  std::vector<ClassSpan> classes;
  find_classes(file, syntax.tokens, classes);
  find_enums(file, syntax.tokens, classes, syntax.enums);
  find_switches(file, syntax.tokens, syntax.switches);
  return syntax;
}

void EnumRegistry::add(const EnumDef& def) {
  by_name.emplace(def.name, def);
}

const EnumDef* EnumRegistry::resolve(const std::string& qualifier,
                                     const std::set<std::string>& used) const {
  if (qualifier.empty()) return nullptr;
  // Last qualifier component is the enum name ("Event::Kind" -> "Kind").
  const std::size_t sep = qualifier.rfind("::");
  const std::string last =
      sep == std::string::npos ? qualifier : qualifier.substr(sep + 2);
  const EnumDef* best = nullptr;
  for (auto [it, end] = by_name.equal_range(last); it != end; ++it) {
    const EnumDef& def = it->second;
    const std::string& q = def.qualified;
    const bool suffix_match =
        q == qualifier ||
        (q.size() > qualifier.size() &&
         q.compare(q.size() - qualifier.size(), qualifier.size(), qualifier) ==
             0 &&
         q[q.size() - qualifier.size() - 1] == ':');
    if (!suffix_match) continue;
    bool covers_used = true;
    for (const std::string& name : used) {
      if (std::find(def.enumerators.begin(), def.enumerators.end(), name) ==
          def.enumerators.end()) {
        covers_used = false;
        break;
      }
    }
    if (!covers_used) continue;
    // Prefer a wire enum when several match (distinct types sharing a
    // last name, e.g. Event::Kind vs QosEvent::Kind).
    if (best == nullptr || (def.is_wire() && !best->is_wire())) best = &it->second;
  }
  return best;
}

void EnumRegistry::finalize() {
  std::uint64_t h = fnv1a("enum-registry-v1");
  for (const auto& [name, def] : by_name) {
    h = fnv1a(def.qualified, h);
    h = fnv1a("|", h);
    h = fnv1a(def.underlying, h);
    for (const std::string& e : def.enumerators) {
      h = fnv1a(e, h);
      h = fnv1a(",", h);
    }
    h = fnv1a(";", h);
  }
  content_hash = h;
}

}  // namespace netqos::analyze
