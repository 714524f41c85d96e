// Minimal JSON value, writer helpers and recursive-descent parser.
//
// The observability layer emits machine-readable artifacts (metrics
// documents, trace event lines) and the tests parse them back to assert
// round-trip fidelity. Scope is deliberately small: the subset of JSON these
// artifacts use (objects, arrays, finite numbers, strings, booleans, null) —
// not a general-purpose JSON library.
#pragma once

#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace datastage::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; metrics documents keep keys sorted by construction.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses `text` into a value. On failure returns nullopt and, when `error`
/// is non-null, stores a message with the byte offset of the problem.
std::optional<JsonValue> json_parse(std::string_view text, std::string* error = nullptr);

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Renders a double as JSON: shortest round-trip form, integral values
/// without a trailing ".0" mantissa are kept exact.
std::string json_number(double v);

/// Appends one `"key":value` member to a JSON object being built in `out`,
/// preceded by a comma unless `out` ends with the object's opening brace;
/// json_key appends `"key":` alone for a nested value the caller writes.
/// Keys are written as given (escape any that are not fixed ASCII names);
/// string values are escaped and doubles rendered by json_number.
void json_field(std::string& out, std::string_view key, double value);
void json_field(std::string& out, std::string_view key, bool value);
void json_field(std::string& out, std::string_view key, std::string_view value);
/// C-string literals must land in the string overload — without this,
/// overload resolution prefers the pointer-to-bool standard conversion over
/// the user-defined conversion to string_view.
inline void json_field(std::string& out, std::string_view key, const char* value) {
  json_field(out, key, std::string_view(value));
}
void json_key(std::string& out, std::string_view key);
template <typename T>
  requires(std::integral<T> && !std::same_as<T, bool>)
void json_field(std::string& out, std::string_view key, T value) {
  json_key(out, key);
  out += std::to_string(value);
}

}  // namespace datastage::obs
