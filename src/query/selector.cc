#include "query/selector.h"

namespace nyqmon::qry {

bool match_glob(std::string_view pattern, std::string_view text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos;  // last '*' seen in pattern
  std::size_t star_t = 0;                     // text position it matched to
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;  // '*' provisionally matches the empty span
    } else if (star != std::string_view::npos) {
      // Mismatch past a '*': grow its span by one character and retry.
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string_view glob_prefix(std::string_view pattern) {
  return pattern.substr(0, pattern.find_first_of("*?"));
}

bool is_exact(std::string_view pattern) {
  return pattern.find_first_of("*?") == std::string_view::npos;
}

}  // namespace nyqmon::qry
