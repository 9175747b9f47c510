// Stream selectors: glob patterns over "device/metric" stream IDs.
//
// A fleet query names its population by pattern — `rack3-*/temperature`,
// `*/drops`, `pod1-rack?-tor/cpu_util` — the way fleet-telemetry read APIs
// (PromQL-style matchers, gNMI path wildcards) address thousands of
// device/metric pairs at once. Only `*` (any span, including empty) and
// `?` (exactly one character) are special; both match across `/`, so one
// pattern can range over whole device groups.
#pragma once

#include <string_view>

namespace nyqmon::qry {

/// True when `text` matches glob `pattern` (`*` = any span, `?` = one
/// char, everything else literal). Iterative two-pointer matcher: linear
/// in practice, no recursion, no regex engine.
bool match_glob(std::string_view pattern, std::string_view text);

/// The literal prefix of `pattern`: every character before its first `*`
/// or `?` (the whole pattern when it has none). Every name the pattern
/// matches starts with it, so a name-ordered store need only walk that
/// prefix's key range; an empty prefix means the whole store.
std::string_view glob_prefix(std::string_view pattern);

/// True when the pattern contains no wildcards (matches at most one
/// stream); the query engine's fast path addresses that stream directly
/// instead of scanning fleet metadata.
bool is_exact(std::string_view pattern);

}  // namespace nyqmon::qry
