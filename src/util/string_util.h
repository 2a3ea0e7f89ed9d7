// Small string helpers used by the tokenizer, CSV codec and HTML renderer.
#ifndef BANKS_UTIL_STRING_UTIL_H_
#define BANKS_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace banks {

/// ASCII lower-casing (keyword matching in BANKS is case-insensitive).
std::string ToLower(std::string_view s);

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if lower(haystack) contains lower(needle) as a substring.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Levenshtein edit distance with early exit; returns limit+1 when the
/// distance exceeds `limit` (used by approximate keyword matching). Any
/// `limit` is accepted: one of at least max(|a|, |b|) yields the exact
/// distance (also for INT_MAX), and a negative one yields limit+1.
int BoundedEditDistance(std::string_view a, std::string_view b, int limit);

}  // namespace banks

#endif  // BANKS_UTIL_STRING_UTIL_H_
