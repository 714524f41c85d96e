#include "model/fault_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/line_reader.hpp"

namespace datastage {
namespace {

constexpr const char* kMagic = "datastage-faults";
constexpr const char* kVersion = "v1";
constexpr double kFactorScale = 1'000'000.0;

std::int64_t factor_to_ppm(double factor) {
  return std::llround(factor * kFactorScale);
}

}  // namespace

double quantize_factor(double factor) {
  return static_cast<double>(factor_to_ppm(factor)) / kFactorScale;
}

void write_faults(std::ostream& os, const FaultSpec& faults) {
  os << kMagic << ' ' << kVersion << '\n';
  for (const LinkOutage& o : faults.outages) {
    os << "outage " << o.link.value() << ' ' << o.window.begin.usec() << ' '
       << o.window.end.usec() << '\n';
  }
  for (const LinkDegradation& d : faults.degradations) {
    os << "degrade " << d.link.value() << ' ' << d.window.begin.usec() << ' '
       << d.window.end.usec() << ' ' << factor_to_ppm(d.factor) << '\n';
  }
  for (const CopyLoss& loss : faults.copy_losses) {
    os << "copyloss " << loss.item_name << ' ' << loss.machine.value() << ' '
       << loss.at.usec() << '\n';
  }
}

std::string faults_to_string(const FaultSpec& faults) {
  std::ostringstream os;
  write_faults(os, faults);
  return os.str();
}

void save_faults(const std::string& path, const FaultSpec& faults) {
  std::ofstream out(path);
  DS_ASSERT_MSG(out.good(), "cannot open fault output file");
  write_faults(out, faults);
}

namespace {

void parse_directive(LineReader& in, std::string_view directive, FaultSpec& f) {
  if (directive == "outage") {
    std::int32_t link = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    if (in.read_int(link, "link") && in.read_int(begin, "begin") &&
        in.read_int(end, "end") && in.at_line_end()) {
      f.outages.push_back(LinkOutage{
          PhysLinkId(link),
          Interval{SimTime::from_usec(begin), SimTime::from_usec(end)}});
    }
  } else if (directive == "degrade") {
    std::int32_t link = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t ppm = 0;
    if (in.read_int(link, "link") && in.read_int(begin, "begin") &&
        in.read_int(end, "end") && in.read_int(ppm, "factor ppm") &&
        in.at_line_end()) {
      f.degradations.push_back(LinkDegradation{
          PhysLinkId(link),
          Interval{SimTime::from_usec(begin), SimTime::from_usec(end)},
          static_cast<double>(ppm) / kFactorScale});
    }
  } else if (directive == "copyloss") {
    std::string item;
    std::int32_t machine = 0;
    std::int64_t at = 0;
    if (in.read_name(item, "item name") && in.read_int(machine, "machine") &&
        in.read_int(at, "time") && in.at_line_end()) {
      f.copy_losses.push_back(
          CopyLoss{std::move(item), MachineId(machine), SimTime::from_usec(at)});
    }
  } else {
    in.fail("unknown directive '" + std::string(directive) + "'");
  }
}

}  // namespace

std::optional<FaultSpec> read_faults(std::istream& is, std::string* error) {
  return read_lines(is, kMagic, kVersion, error, parse_directive);
}

std::optional<FaultSpec> faults_from_string(const std::string& text,
                                            std::string* error) {
  return read_string(text, error, read_faults);
}

std::optional<FaultSpec> load_faults(const std::string& path, std::string* error) {
  return read_file(path, error, read_faults);
}

}  // namespace datastage
