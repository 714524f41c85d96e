#include "util/line_reader.hpp"

#include <algorithm>
#include <istream>

#include "util/parse_number.hpp"

namespace datastage {
namespace {

constexpr std::string_view kSpace = " \t\r\v\f";

}  // namespace

bool LineReader::read_header(std::string_view magic, std::string_view version) {
  if (next_line() && next_token() == magic && next_token() == version &&
      fields_left() == 0) {
    return true;
  }
  return fail("missing or malformed header (expected '" + std::string(magic) + ' ' +
              std::string(version) + "')");
}

bool LineReader::next_line() {
  if (failed_) return false;
  while (std::getline(is_, line_)) {
    ++line_no_;
    const auto hash = line_.find('#');
    if (hash != std::string::npos) line_.erase(hash);
    pos_ = 0;
    if (line_.find_first_not_of(kSpace) != std::string::npos) return true;
  }
  return false;
}

std::string_view LineReader::next_token() {
  const std::size_t begin = std::min(line_.find_first_not_of(kSpace, pos_), line_.size());
  pos_ = std::min(line_.find_first_of(kSpace, begin), line_.size());
  return std::string_view(line_).substr(begin, pos_ - begin);
}

std::size_t LineReader::fields_left() const {
  std::size_t count = 0;
  for (std::size_t at = line_.find_first_not_of(kSpace, pos_); at != std::string::npos;
       at = line_.find_first_not_of(kSpace, line_.find_first_of(kSpace, at))) {
    ++count;
  }
  return count;
}

bool LineReader::read_name(std::string& out, std::string_view what) {
  const std::string_view token = next_token();
  if (token.empty()) return fail("expected " + std::string(what));
  out.assign(token);
  return true;
}

template <class Int>
bool LineReader::parse_int(std::string_view token, Int& out, std::string_view what) {
  if (token.empty()) return fail("expected " + std::string(what));
  const NumberParse result = parse_number(token, out);
  if (result == NumberParse::kOk) return true;
  const std::string quoted = " '" + std::string(token) + "'";
  return fail(result == NumberParse::kOutOfRange
                  ? std::string(what) + quoted + " out of range"
                  : "malformed " + std::string(what) + quoted);
}

bool LineReader::read_int(std::int32_t& out, std::string_view what) {
  return parse_int(next_token(), out, what);
}

bool LineReader::read_int(std::int64_t& out, std::string_view what) {
  return parse_int(next_token(), out, what);
}

bool LineReader::read_optional_int(std::int64_t& out, std::string_view what) {
  const std::string_view token = next_token();
  return token.empty() || parse_int(token, out, what);
}

bool LineReader::at_line_end() {
  const std::string_view token = next_token();
  return token.empty() ||
         fail("unexpected trailing token '" + std::string(token) + "'");
}

bool LineReader::fail(std::string_view message) {
  if (!failed_) {
    failed_ = true;
    error_ = "line " + std::to_string(line_no_) + ": ";
    error_ += message;
  }
  return false;
}

}  // namespace datastage
