// Source layer: file loading, comment/string masking, line mapping, and
// the FNV-1a content hashing behind baseline keys and the result cache.
//
// mask_code keeps every offset and newline, so a position in the masked
// text is the same line and column in the raw text.
#include "analyze.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace netqos::analyze {

namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string normalize(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  bool in_space = true;  // leading whitespace dropped
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::uint64_t Finding::hash() const {
  std::uint64_t h = fnv1a(rule);
  h = fnv1a("|", h);
  h = fnv1a(path, h);
  h = fnv1a("|", h);
  h = fnv1a(normalize(source), h);
  return h;
}

std::string Finding::hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

std::string Finding::render() const {
  std::ostringstream out;
  out << path << ":" << line << ": [" << rule << "] " << message;
  return out.str();
}

std::string mask_code(std::string_view text) {
  std::string out(text);
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    const char nxt = i + 1 < n ? text[i + 1] : '\0';
    if (c == '/' && nxt == '/') {
      while (i < n && text[i] != '\n') out[i++] = ' ';
    } else if (c == '/' && nxt == '*') {
      out[i] = out[i + 1] = ' ';
      i += 2;
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        if (text[i] != '\n') out[i] = ' ';
        ++i;
      }
      if (i < n) {
        out[i] = out[i + 1] = ' ';
        i += 2;
      }
    } else if (c == '"' || c == '\'') {
      // A ' preceded by an identifier/number char is a C++14 digit
      // separator (1'000'000), not a char literal.
      if (c == '\'' && i > 0 && is_word(text[i - 1])) {
        ++i;
        continue;
      }
      const char quote = c;
      // Raw string literal R"delim( ... )delim"
      if (quote == '"' && i > 0 && text[i - 1] == 'R' &&
          (i < 2 || !is_word(text[i - 2]))) {
        std::size_t d = i + 1;
        while (d < n && text[d] != '(' && text[d] != ' ' && text[d] != ')' &&
               text[d] != '\\' && text[d] != '\n') {
          ++d;
        }
        if (d < n && text[d] == '(') {
          const std::string delim(text.substr(i + 1, d - i - 1));
          const std::string closer = ")" + delim + "\"";
          const std::size_t found = text.find(closer, i);
          const std::size_t end =
              found == std::string_view::npos ? n : found + closer.size();
          for (std::size_t j = i; j < std::min(end, n); ++j) {
            if (text[j] != '\n') out[j] = ' ';
          }
          i = end;
          continue;
        }
      }
      out[i] = ' ';
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') {
          out[i] = ' ';
          ++i;
          if (i < n && text[i] != '\n') out[i] = ' ';
          ++i;
          continue;
        }
        if (text[i] != '\n') out[i] = ' ';
        ++i;
      }
      if (i < n) {
        out[i] = ' ';
        ++i;
      }
    } else {
      ++i;
    }
  }
  return out;
}

int SourceFile::line_of(std::size_t offset) const {
  const auto it = std::upper_bound(newline_offsets.begin(),
                                   newline_offsets.end(), offset);
  return static_cast<int>(it - newline_offsets.begin()) + 1;
}

const std::string& SourceFile::raw_line(int line) const {
  static const std::string kEmpty;
  if (line < 1 || line > static_cast<int>(lines.size())) return kEmpty;
  return lines[static_cast<std::size_t>(line - 1)];
}

bool SourceFile::path_ends_with(
    std::initializer_list<const char*> suffixes) const {
  for (const char* suffix : suffixes) {
    const std::string_view s(suffix);
    if (path.size() >= s.size() &&
        std::string_view(path).substr(path.size() - s.size()) == s) {
      return true;
    }
  }
  return false;
}

namespace {

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

SourceFile load_source(const std::string& abs_path, const std::string& rel_path) {
  SourceFile file;
  file.path = rel_path;
  std::replace(file.path.begin(), file.path.end(), '\\', '/');
  std::ifstream in(abs_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  file.text = buffer.str();
  file.masked = mask_code(file.text);
  file.lines = split_lines(file.text);
  file.masked_lines = split_lines(file.masked);
  for (std::size_t i = 0; i < file.text.size(); ++i) {
    if (file.text[i] == '\n') file.newline_offsets.push_back(i);
  }
  file.content_hash = fnv1a(file.text);
  return file;
}

}  // namespace netqos::analyze
