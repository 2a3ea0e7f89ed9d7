#include "util/string_util.h"

#include <algorithm>
#include <cctype>

namespace banks {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           lower(static_cast<unsigned char>(haystack[i + j])) ==
               lower(static_cast<unsigned char>(needle[j]))) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

int BoundedEditDistance(std::string_view a, std::string_view b, int limit) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  // The distance never exceeds the longer length, so a larger limit
  // changes no result; clamping keeps `limit + 1` representable when a
  // caller passes INT_MAX.
  limit = std::min(limit, std::max(n, m));
  if (std::abs(n - m) > limit) return limit + 1;
  // Two DP rows; keywords are short, so they usually fit on the stack.
  constexpr int kInlineRow = 32;
  int inline_rows[2][kInlineRow] = {};
  std::vector<int> heap_rows;
  int* prev = inline_rows[0];
  int* cur = inline_rows[1];
  if (m + 1 > kInlineRow) {
    heap_rows.resize(2 * static_cast<size_t>(m + 1));
    prev = heap_rows.data();
    cur = prev + m + 1;
  }
  for (int j = 0; j <= m; ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    cur[0] = i;
    int row_min = cur[0];
    for (int j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > limit) return limit + 1;
    std::swap(prev, cur);
  }
  return std::min(prev[m], limit + 1);
}

}  // namespace banks
