#include "util/strings.h"

namespace webre {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::string AsciiUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToUpper(c);
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

namespace {

// Returns the index of the first case-insensitive occurrence of `needle`
// in `haystack` at or after `from`, or npos.
size_t FindIgnoreCase(std::string_view haystack, std::string_view needle,
                      size_t from) {
  if (needle.empty()) return from <= haystack.size() ? from : std::string_view::npos;
  if (needle.size() > haystack.size()) return std::string_view::npos;
  for (size_t i = from; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           AsciiToLower(haystack[i + j]) == AsciiToLower(needle[j])) {
      ++j;
    }
    if (j == needle.size()) return i;
  }
  return std::string_view::npos;
}

}  // namespace

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  return FindIgnoreCase(haystack, needle, 0) != std::string_view::npos;
}

bool ContainsWordIgnoreCase(std::string_view haystack,
                            std::string_view needle) {
  if (needle.empty()) return true;
  size_t pos = 0;
  while (true) {
    pos = FindIgnoreCase(haystack, needle, pos);
    if (pos == std::string_view::npos) return false;
    const bool left_ok = pos == 0 || !IsAsciiAlnum(haystack[pos - 1]);
    const size_t end = pos + needle.size();
    const bool right_ok = end >= haystack.size() || !IsAsciiAlnum(haystack[end]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string CollapseWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = true;  // true at start: drops leading whitespace.
  for (char c : s) {
    if (IsAsciiSpace(c)) {
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

std::vector<std::string> SplitAny(std::string_view s, std::string_view delims,
                                  bool keep_empty) {
  std::vector<std::string> pieces;
  std::string current;
  for (char c : s) {
    if (delims.find(c) != std::string_view::npos) {
      if (keep_empty || !current.empty()) pieces.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (keep_empty || !current.empty()) pieces.push_back(current);
  return pieces;
}

void SplitAnyViews(std::string_view s, std::string_view delims,
                   std::vector<std::string_view>& out, bool keep_empty) {
  size_t begin = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (delims.find(s[i]) != std::string_view::npos) {
      if (keep_empty || i > begin) out.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (keep_empty || s.size() > begin) out.push_back(s.substr(begin));
}

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> words;
  std::string current;
  for (char c : s) {
    if (IsAsciiSpace(c)) {
      if (!current.empty()) words.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

}  // namespace webre
