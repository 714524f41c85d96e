#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace datastage::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan; clamp defensively
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void json_key(std::string& out, std::string_view key) {
  if (!out.empty() && out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

void json_field(std::string& out, std::string_view key, double value) {
  json_key(out, key);
  out += json_number(value);
}

void json_field(std::string& out, std::string_view key, bool value) {
  json_key(out, key);
  out += value ? "true" : "false";
}

void json_field(std::string& out, std::string_view key, std::string_view value) {
  json_key(out, key);
  out += '"';
  out += json_escape(value);
  out += '"';
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after value");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const char* msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        if (!literal("true")) break;
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!literal("false")) break;
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!literal("null")) break;
        out.kind = JsonValue::Kind::kNull;
        return true;
      default: return parse_number(out);
    }
    fail("malformed value");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number");
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected string");
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          const auto [p, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != text_.data() + pos_ + 4) {
            fail("malformed \\u escape");
            return false;
          }
          pos_ += 4;
          // Only the BMP subset our escaper produces (control chars).
          out += static_cast<char>(code & 0x7f);
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_array(JsonValue& out) {
    consume('[');
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return false;
      }
    }
  }

  bool parse_object(JsonValue& out) {
    consume('{');
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' in object");
        return false;
      }
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return false;
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

}  // namespace datastage::obs
