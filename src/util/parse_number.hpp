// Strict whole-value number parsing, shared by the text-format reader
// (util/line_reader) and the CLI flag getters (util/cli).
//
// std::from_chars rejects leading whitespace and a leading '+' on its own;
// requiring the whole text to be consumed also rejects trailing junk ("8x",
// "1.5e") that strtoll/strtod or stream extraction silently accept. An empty
// text is malformed.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace datastage {

enum class NumberParse { kOk, kMalformed, kOutOfRange };

/// Parses all of `text` into `out` (integral or floating-point `T`); `out` is
/// written only on kOk.
template <class T>
NumberParse parse_number(std::string_view text, T& out) {
  T parsed{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, parsed);
  if (ec == std::errc::result_out_of_range) return NumberParse::kOutOfRange;
  if (ec != std::errc() || ptr != last) return NumberParse::kMalformed;
  out = parsed;
  return NumberParse::kOk;
}

}  // namespace datastage
