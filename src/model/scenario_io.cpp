#include "model/scenario_io.hpp"

#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/line_reader.hpp"

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

void parse_directive(LineReader& in, std::string_view directive, Scenario& s) {
  if (directive == "horizon") {
    std::int64_t usec = 0;
    if (in.read_int(usec, "horizon usec") && in.at_line_end()) {
      s.horizon = SimTime::from_usec(usec);
    }
  } else if (directive == "gamma") {
    std::int64_t usec = 0;
    if (in.read_int(usec, "gamma usec") && in.at_line_end()) {
      s.gc_gamma = SimDuration::from_usec(usec);
    }
  } else if (directive == "machine") {
    Machine m;
    if (in.read_name(m.name, "machine name") &&
        in.read_int(m.capacity_bytes, "machine capacity") && in.at_line_end()) {
      s.machines.push_back(std::move(m));
    }
  } else if (directive == "plink") {
    std::int32_t from = 0;
    std::int32_t to = 0;
    std::int64_t bw = 0;
    std::int64_t lat = 0;
    if (in.read_int(from, "from") && in.read_int(to, "to") &&
        in.read_int(bw, "bandwidth") && in.read_int(lat, "latency") &&
        in.at_line_end()) {
      s.phys_links.push_back(PhysicalLink{MachineId(from), MachineId(to), bw,
                                          SimDuration::from_usec(lat)});
    }
  } else if (directive == "vlink") {
    std::int32_t phys = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    if (!in.read_int(phys, "phys id") || !in.read_int(begin, "begin") ||
        !in.read_int(end, "end")) {
      return;
    }
    if (phys < 0 || static_cast<std::size_t>(phys) >= s.phys_links.size()) {
      in.fail("vlink references unknown physical link");
      return;
    }
    // Optional fourth field: a degraded bandwidth below the physical rate.
    std::int64_t bw = s.phys_links[static_cast<std::size_t>(phys)].bandwidth_bps;
    if (in.read_optional_int(bw, "vlink bandwidth") && in.at_line_end()) {
      s.virt_links.push_back(VirtualLink{
          PhysLinkId(phys), bw,
          Interval{SimTime::from_usec(begin), SimTime::from_usec(end)}});
    }
  } else if (directive == "item") {
    DataItem item;
    if (in.read_name(item.name, "item name") &&
        in.read_int(item.size_bytes, "item size") && in.at_line_end()) {
      s.items.push_back(std::move(item));
    }
  } else if (directive == "source") {
    if (s.items.empty()) {
      in.fail("source before any item");
      return;
    }
    std::int32_t machine = 0;
    std::int64_t at = 0;
    // Optional third field: a finite hold end. A token that is present but
    // malformed must fail — falling back to infinity would silently turn
    // an expiring staged copy into a permanent one.
    std::int64_t hold_until = SimTime::infinity().usec();
    if (in.read_int(machine, "machine") && in.read_int(at, "available time") &&
        in.read_optional_int(hold_until, "source hold end") && in.at_line_end()) {
      s.items.back().sources.push_back(SourceLocation{
          MachineId(machine), SimTime::from_usec(at), SimTime::from_usec(hold_until)});
    }
  } else if (directive == "request") {
    if (s.items.empty()) {
      in.fail("request before any item");
      return;
    }
    std::int32_t machine = 0;
    std::int64_t deadline = 0;
    Priority priority = 0;
    if (in.read_int(machine, "machine") && in.read_int(deadline, "deadline") &&
        in.read_int(priority, "priority") && in.at_line_end()) {
      s.items.back().requests.push_back(
          Request{MachineId(machine), SimTime::from_usec(deadline), priority});
    }
  } else {
    in.fail("unknown directive '" + std::string(directive) + "'");
  }
}

}  // namespace

std::optional<Scenario> read_scenario(std::istream& is, std::string* error) {
  std::optional<Scenario> s = read_lines(is, kMagic, kVersion, error, parse_directive);
  if (!s.has_value()) return s;
  const std::vector<std::string> defects = s->validate();
  if (!defects.empty()) {
    if (error != nullptr) *error = "scenario invalid after parse: " + defects.front();
    return std::nullopt;
  }
  return s;
}

std::optional<Scenario> scenario_from_string(const std::string& text,
                                             std::string* error) {
  return read_string(text, error, read_scenario);
}

std::optional<Scenario> load_scenario(const std::string& path, std::string* error) {
  return read_file(path, error, read_scenario);
}

}  // namespace datastage
