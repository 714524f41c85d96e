// The one reader behind the line-oriented text formats: scenarios
// (model/scenario_io), fault specs (model/fault_io) and schedules
// (core/schedule_io). Each format is a `<magic> <version>` header and one
// directive per line; a format module supplies only its directive dispatch.
// The rules all three share:
//   - `#` starts a comment that runs to the end of the line; blank and
//     comment-only lines are skipped anywhere, before the header too;
//   - the header is exactly the two tokens `<magic> <version>`;
//   - numbers are whole tokens (util/parse_number): "12x" is malformed, an
//     overflow is out of range, neither is truncated or defaulted;
//   - a directive's fields end the line: a trailing token is an error;
//   - the first error wins and is reported as "line N: <message>".
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace datastage {

class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Reads the first non-blank line and checks it is `magic version`.
  bool read_header(std::string_view magic, std::string_view version);

  /// Advances to the next non-blank line, comments stripped. False at the
  /// end of input and once an error has been recorded.
  bool next_line();

  /// The next whitespace-separated token of the current line; empty at its
  /// end. The view is valid until the next call to next_line().
  std::string_view next_token();

  /// Tokens left on the current line, without consuming them.
  std::size_t fields_left() const;

  /// Required fields. A missing one fails with "expected <what>", a bad
  /// integer with "malformed <what> '<token>'" or "<what> '<token>' out of
  /// range".
  bool read_name(std::string& out, std::string_view what);
  bool read_int(std::int32_t& out, std::string_view what);
  bool read_int(std::int64_t& out, std::string_view what);
  /// An optional last field: absent leaves `out` as it is.
  bool read_optional_int(std::int64_t& out, std::string_view what);

  /// Fails on a token left after a directive's fields.
  bool at_line_end();

  /// Records `message` for the current line unless an error is already
  /// recorded. Always returns false.
  bool fail(std::string_view message);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  template <class Int>
  bool parse_int(std::string_view token, Int& out, std::string_view what);

  std::istream& is_;
  std::string line_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// Reads a whole file in a format into a default-constructed T: the header,
/// then `on_directive(in, directive, out)` for each line with `in` positioned
/// after the directive token. On failure returns nullopt and stores the first
/// error in *error (if non-null).
template <class T>
std::optional<T> read_lines(std::istream& is, std::string_view magic,
                            std::string_view version, std::string* error,
                            void (*on_directive)(LineReader&, std::string_view, T&)) {
  T out;
  LineReader in(is);
  if (in.read_header(magic, version)) {
    while (in.next_line()) on_directive(in, in.next_token(), out);
  }
  if (!in.failed()) return out;
  if (error != nullptr) *error = in.error();
  return std::nullopt;
}

/// The string and path front ends of a format's `read(istream&, error)`. A
/// file that cannot be opened is reported as "cannot open file: <path>".
template <class T>
std::optional<T> read_string(const std::string& text, std::string* error,
                             std::optional<T> (*read)(std::istream&, std::string*)) {
  std::istringstream is(text);
  return read(is, error);
}

template <class T>
std::optional<T> read_file(const std::string& path, std::string* error,
                           std::optional<T> (*read)(std::istream&, std::string*)) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open file: " + path;
    return std::nullopt;
  }
  return read(in, error);
}

}  // namespace datastage
