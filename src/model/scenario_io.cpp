#include "model/scenario_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace datastage {
namespace {

constexpr const char* kMagic = "datastage-scenario";
constexpr const char* kVersion = "v1";

}  // namespace

void write_scenario(std::ostream& os, const Scenario& s) {
  os << kMagic << ' ' << kVersion << '\n';
  os << "horizon " << s.horizon.usec() << '\n';
  os << "gamma " << s.gc_gamma.usec() << '\n';
  for (const Machine& m : s.machines) {
    os << "machine " << m.name << ' ' << m.capacity_bytes << '\n';
  }
  for (const PhysicalLink& pl : s.phys_links) {
    os << "plink " << pl.from.value() << ' ' << pl.to.value() << ' '
       << pl.bandwidth_bps << ' ' << pl.latency.usec() << '\n';
  }
  for (const VirtualLink& vl : s.virt_links) {
    os << "vlink " << vl.phys.value() << ' ' << vl.window.begin.usec() << ' '
       << vl.window.end.usec();
    // A degraded window (fault masking) runs below the physical rate; the
    // optional fourth field keeps undegraded scenarios in the original form.
    if (vl.bandwidth_bps != s.phys_links[vl.phys.index()].bandwidth_bps) {
      os << ' ' << vl.bandwidth_bps;
    }
    os << '\n';
  }
  for (const DataItem& item : s.items) {
    os << "item " << item.name << ' ' << item.size_bytes << '\n';
    for (const SourceLocation& src : item.sources) {
      os << "source " << src.machine.value() << ' ' << src.available_at.usec();
      // The hold end is only written when finite (static scenarios stay in
      // the original two-field form).
      if (!src.hold_until.is_infinite()) os << ' ' << src.hold_until.usec();
      os << '\n';
    }
    for (const Request& r : item.requests) {
      os << "request " << r.destination.value() << ' ' << r.deadline.usec() << ' '
         << r.priority << '\n';
    }
  }
}

std::string scenario_to_string(const Scenario& scenario) {
  std::ostringstream os;
  write_scenario(os, scenario);
  return os.str();
}

void save_scenario(const std::string& path, const Scenario& scenario) {
  std::ofstream out(path);
  DS_ASSERT_MSG(out.good(), "cannot open scenario output file");
  write_scenario(out, scenario);
}

namespace {

class Parser {
 public:
  explicit Parser(std::istream& is) : is_(is) {}

  std::optional<Scenario> run(std::string* error) {
    Scenario s;
    std::string line;
    if (!next_line(line) || !parse_header(line)) {
      fail("missing or malformed header (expected 'datastage-scenario v1')");
    }
    while (!failed_ && next_line(line)) {
      parse_line(line, s);
    }
    if (failed_) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    const std::vector<std::string> defects = s.validate();
    if (!defects.empty()) {
      if (error != nullptr) *error = "scenario invalid after parse: " + defects.front();
      return std::nullopt;
    }
    return s;
  }

 private:
  bool next_line(std::string& line) {
    while (std::getline(is_, line)) {
      ++line_no_;
      // Strip comments and whitespace-only lines.
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  }

  bool parse_header(const std::string& line) {
    std::istringstream ss(line);
    std::string magic;
    std::string version;
    ss >> magic >> version;
    return magic == kMagic && version == kVersion;
  }

  void fail(const std::string& msg) {
    if (failed_) return;
    failed_ = true;
    error_ = "line " + std::to_string(line_no_) + ": " + msg;
  }

  bool read_name(std::istringstream& ss, std::string& out, const char* what) {
    if (!(ss >> out)) {
      fail(std::string("expected ") + what);
      return false;
    }
    return true;
  }

  /// Whole-token integer parse, same contract as the hardened CliFlags
  /// numeric getters: a partial parse like "12x" or an overflow is an error,
  /// never a silent truncation or fallback.
  template <class Int>
  bool parse_token(const std::string& token, Int& out, const char* what) {
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, out);
    if (ec != std::errc() || ptr != last) {
      fail(std::string("malformed ") + what + " '" + token + "'");
      return false;
    }
    return true;
  }

  template <class Int>
  bool read_int(std::istringstream& ss, Int& out, const char* what) {
    std::string token;
    if (!(ss >> token)) {
      fail(std::string("expected ") + what);
      return false;
    }
    return parse_token(token, out, what);
  }

  /// Directives carry a fixed field list; anything after it is an error
  /// (trailing junk used to be silently ignored).
  bool at_line_end(std::istringstream& ss) {
    std::string junk;
    if (ss >> junk) {
      fail("unexpected trailing token '" + junk + "'");
      return false;
    }
    return true;
  }

  void parse_line(const std::string& line, Scenario& s) {
    std::istringstream ss(line);
    std::string directive;
    ss >> directive;
    if (directive == "horizon") {
      std::int64_t usec = 0;
      if (read_int(ss, usec, "horizon usec") && at_line_end(ss)) {
        s.horizon = SimTime::from_usec(usec);
      }
    } else if (directive == "gamma") {
      std::int64_t usec = 0;
      if (read_int(ss, usec, "gamma usec") && at_line_end(ss)) {
        s.gc_gamma = SimDuration::from_usec(usec);
      }
    } else if (directive == "machine") {
      Machine m;
      if (read_name(ss, m.name, "machine name") &&
          read_int(ss, m.capacity_bytes, "machine capacity") && at_line_end(ss)) {
        s.machines.push_back(std::move(m));
      }
    } else if (directive == "plink") {
      std::int32_t from = 0;
      std::int32_t to = 0;
      std::int64_t bw = 0;
      std::int64_t lat = 0;
      if (read_int(ss, from, "from") && read_int(ss, to, "to") &&
          read_int(ss, bw, "bandwidth") && read_int(ss, lat, "latency") &&
          at_line_end(ss)) {
        s.phys_links.push_back(PhysicalLink{MachineId(from), MachineId(to), bw,
                                            SimDuration::from_usec(lat)});
      }
    } else if (directive == "vlink") {
      std::int32_t phys = 0;
      std::int64_t begin = 0;
      std::int64_t end = 0;
      if (!read_int(ss, phys, "phys id") || !read_int(ss, begin, "begin") ||
          !read_int(ss, end, "end")) {
        return;
      }
      if (phys < 0 || static_cast<std::size_t>(phys) >= s.phys_links.size()) {
        fail("vlink references unknown physical link");
        return;
      }
      const PhysicalLink& pl = s.phys_links[static_cast<std::size_t>(phys)];
      // Optional fourth field: a degraded bandwidth below the physical rate.
      std::int64_t bw = pl.bandwidth_bps;
      std::string token;
      if (ss >> token) {
        if (!parse_token(token, bw, "vlink bandwidth") || !at_line_end(ss)) return;
      }
      s.virt_links.push_back(VirtualLink{
          PhysLinkId(phys), bw,
          Interval{SimTime::from_usec(begin), SimTime::from_usec(end)}});
    } else if (directive == "item") {
      DataItem item;
      if (read_name(ss, item.name, "item name") &&
          read_int(ss, item.size_bytes, "item size") && at_line_end(ss)) {
        s.items.push_back(std::move(item));
      }
    } else if (directive == "source") {
      if (s.items.empty()) {
        fail("source before any item");
        return;
      }
      std::int32_t machine = 0;
      std::int64_t at = 0;
      if (!read_int(ss, machine, "machine") || !read_int(ss, at, "available time")) {
        return;
      }
      SourceLocation src{MachineId(machine), SimTime::from_usec(at),
                         SimTime::infinity()};
      // Optional third field: a finite hold end. A token that is present but
      // malformed must fail — falling back to infinity would silently turn
      // an expiring staged copy into a permanent one.
      std::int64_t hold_until = 0;
      std::string token;
      if (ss >> token) {
        if (!parse_token(token, hold_until, "source hold end") || !at_line_end(ss)) {
          return;
        }
        src.hold_until = SimTime::from_usec(hold_until);
      }
      s.items.back().sources.push_back(src);
    } else if (directive == "request") {
      if (s.items.empty()) {
        fail("request before any item");
        return;
      }
      std::int32_t machine = 0;
      std::int64_t deadline = 0;
      Priority priority = 0;
      if (read_int(ss, machine, "machine") && read_int(ss, deadline, "deadline") &&
          read_int(ss, priority, "priority") && at_line_end(ss)) {
        s.items.back().requests.push_back(
            Request{MachineId(machine), SimTime::from_usec(deadline), priority});
      }
    } else {
      fail("unknown directive '" + directive + "'");
    }
  }

  std::istream& is_;
  int line_no_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace

std::optional<Scenario> read_scenario(std::istream& is, std::string* error) {
  return Parser(is).run(error);
}

std::optional<Scenario> scenario_from_string(const std::string& text,
                                             std::string* error) {
  std::istringstream ss(text);
  return read_scenario(ss, error);
}

std::optional<Scenario> load_scenario(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open file: " + path;
    return std::nullopt;
  }
  return read_scenario(in, error);
}

}  // namespace datastage
