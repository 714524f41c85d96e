// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name`. Unrecognized
// flags are an error so typos surface immediately; positional arguments are
// collected for callers that want them. `--help` prints the known flags to
// stdout and exits 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace datastage {

class CliFlags {
 public:
  /// Parses argv. On error prints a message to stderr and returns false.
  /// `--help` prints the known flags to stdout and exits 0.
  bool parse(int argc, const char* const* argv, const std::vector<std::string>& known);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;
  /// Numeric getters parse strictly (whole value, no trailing junk). A present
  /// but malformed or out-of-range value prints a clear error and exits with
  /// status 2 — a typo like `--jobs=8x` or `--seed=abc` must never silently
  /// run with a different configuration than the user asked for.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace datastage
