#ifndef WEBRE_UTIL_STRINGS_H_
#define WEBRE_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace webre {

/// ASCII-lowercases `c`; non-letters pass through unchanged.
inline char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII-uppercases `c`; non-letters pass through unchanged.
inline char AsciiToUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

/// True for space, tab, CR, LF, FF and VT.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

/// True for ASCII letters.
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// True for ASCII digits.
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

/// True for ASCII letters or digits.
inline bool IsAsciiAlnum(char c) { return IsAsciiAlpha(c) || IsAsciiDigit(c); }

/// Returns a lowercase copy of `s` (ASCII only).
std::string AsciiLower(std::string_view s);

/// Returns an uppercase copy of `s` (ASCII only).
std::string AsciiUpper(std::string_view s);

/// Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True iff `haystack` contains `needle` ignoring ASCII case. An empty
/// needle matches everywhere.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// True iff `haystack` contains `needle` ignoring ASCII case and only at
/// word boundaries (neighbouring characters must not be alphanumeric).
/// E.g. "BS" matches in "BS, Computer Science" but not in "JOBS".
bool ContainsWordIgnoreCase(std::string_view haystack, std::string_view needle);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Collapses internal whitespace runs to a single space and trims the ends.
std::string CollapseWhitespace(std::string_view s);

/// Splits `s` on any character in `delims`. Empty pieces are dropped when
/// `keep_empty` is false (the default).
std::vector<std::string> SplitAny(std::string_view s, std::string_view delims,
                                  bool keep_empty = false);

/// Appends the pieces of `s` between delimiter characters to `out` as
/// views into `s` (valid only while the underlying buffer lives). Lets
/// hot loops reuse one scratch vector instead of allocating per call.
void SplitAnyViews(std::string_view s, std::string_view delims,
                   std::vector<std::string_view>& out,
                   bool keep_empty = false);

/// Splits `s` into whitespace-delimited words.
std::vector<std::string> SplitWords(std::string_view s);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// True iff `s` starts with `prefix`.
inline bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// True iff `s` ends with `suffix`.
inline bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace webre

#endif  // WEBRE_UTIL_STRINGS_H_
