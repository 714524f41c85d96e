// Plain-text schedule serialization.
//
// Lets the CLI tools persist a computed schedule next to its scenario file,
// diff schedules between runs, and replay a saved schedule through the
// simulator later. Versioned (`datastage-schedule v1`) and line-oriented, read
// by the shared util/line_reader: its rules for comments, blank lines,
// whole-token numbers, trailing tokens and line-numbered errors apply here.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "core/schedule.hpp"

namespace datastage {

void write_schedule(std::ostream& os, const Schedule& schedule);
std::string schedule_to_string(const Schedule& schedule);
void save_schedule(const std::string& path, const Schedule& schedule);

/// Parses the v1 format. On failure returns nullopt and stores a message
/// (with line number) in *error if non-null. Id ranges are not validated
/// here; replaying through sim/simulator validates against a scenario.
std::optional<Schedule> read_schedule(std::istream& is, std::string* error);
std::optional<Schedule> schedule_from_string(const std::string& text,
                                             std::string* error);
std::optional<Schedule> load_schedule(const std::string& path, std::string* error);

}  // namespace datastage
