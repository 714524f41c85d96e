#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/parse_number.hpp"

namespace datastage {

bool CliFlags::parse(int argc, const char* const* argv,
                     const std::vector<std::string>& known) {
  auto is_known = [&](const std::string& name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--flag value` form when the next token is not itself a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (name == "help") {
      std::printf("usage: %s [--flag[=value] ...]\nknown flags:", argv[0]);
      for (const auto& k : known) std::printf(" --%s", k.c_str());
      std::printf("\n");
      std::exit(0);
    }
    if (!is_known(name)) {
      std::fprintf(stderr, "unknown flag --%s; known flags:", name.c_str());
      for (const auto& k : known) std::fprintf(stderr, " --%s", k.c_str());
      std::fprintf(stderr, "\n");
      return false;
    }
    values_[name] = value;
  }
  return true;
}

bool CliFlags::has(const std::string& name) const { return values_.count(name) != 0; }

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

template <class T>
T parse_numeric_or_die(const std::string& name, const std::string& value,
                       const char* kind) {
  T parsed{};
  switch (parse_number(value, parsed)) {
    case NumberParse::kOk:
      return parsed;
    case NumberParse::kOutOfRange:
      std::fprintf(stderr, "invalid value for --%s: '%s' (out of range for %s)\n",
                   name.c_str(), value.c_str(), kind);
      break;
    case NumberParse::kMalformed:
      std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
                   name.c_str(), value.c_str(), kind);
      break;
  }
  std::exit(2);
}

}  // namespace

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_numeric_or_die<std::int64_t>(name, it->second, "an integer");
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_numeric_or_die<double>(name, it->second, "a number");
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace datastage
