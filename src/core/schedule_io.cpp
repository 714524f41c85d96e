#include "core/schedule_io.hpp"

#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/line_reader.hpp"

namespace datastage {
namespace {

constexpr const char* kMagic = "datastage-schedule";
constexpr const char* kVersion = "v1";

}  // namespace

void write_schedule(std::ostream& os, const Schedule& schedule) {
  os << kMagic << ' ' << kVersion << '\n';
  for (const CommStep& step : schedule.steps()) {
    os << "step " << step.item.value() << ' ' << step.from.value() << ' '
       << step.to.value() << ' ' << step.link.value() << ' ' << step.start.usec()
       << ' ' << step.arrival.usec() << '\n';
  }
}

std::string schedule_to_string(const Schedule& schedule) {
  std::ostringstream os;
  write_schedule(os, schedule);
  return os.str();
}

void save_schedule(const std::string& path, const Schedule& schedule) {
  std::ofstream out(path);
  DS_ASSERT_MSG(out.good(), "cannot open schedule output file");
  write_schedule(out, schedule);
}

namespace {

void parse_directive(LineReader& in, std::string_view directive, Schedule& schedule) {
  if (directive != "step") {
    in.fail("unknown directive '" + std::string(directive) + "'");
    return;
  }
  if (in.fields_left() < 6) {
    in.fail("expected: step <item> <from> <to> <link> <start> <arrival>");
    return;
  }
  std::int32_t item = 0;
  std::int32_t from = 0;
  std::int32_t to = 0;
  std::int32_t link = 0;
  std::int64_t start = 0;
  std::int64_t arrival = 0;
  if (!in.read_int(item, "item") || !in.read_int(from, "from") ||
      !in.read_int(to, "to") || !in.read_int(link, "link") ||
      !in.read_int(start, "start") || !in.read_int(arrival, "arrival") ||
      !in.at_line_end()) {
    return;
  }
  if (arrival < start) {
    in.fail("arrival precedes start");
    return;
  }
  schedule.add(CommStep{ItemId(item), MachineId(from), MachineId(to), VirtLinkId(link),
                        SimTime::from_usec(start), SimTime::from_usec(arrival)});
}

}  // namespace

std::optional<Schedule> read_schedule(std::istream& is, std::string* error) {
  return read_lines(is, kMagic, kVersion, error, parse_directive);
}

std::optional<Schedule> schedule_from_string(const std::string& text,
                                             std::string* error) {
  return read_string(text, error, read_schedule);
}

std::optional<Schedule> load_schedule(const std::string& path, std::string* error) {
  return read_file(path, error, read_schedule);
}

}  // namespace datastage
