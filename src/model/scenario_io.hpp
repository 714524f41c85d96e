// Plain-text scenario serialization.
//
// A stable, diff-friendly, line-oriented format so that generated test cases
// can be saved, inspected, replayed and shipped as regression fixtures. The
// format is versioned (`datastage-scenario v1`). It is read by the shared
// util/line_reader, which sets the rules for comments, blank lines,
// whole-token numbers, trailing tokens and line-numbered errors; this module
// adds its directives and validates the parsed scenario.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "model/scenario.hpp"

namespace datastage {

/// Serializes `scenario` in the v1 text format.
void write_scenario(std::ostream& os, const Scenario& scenario);
std::string scenario_to_string(const Scenario& scenario);
void save_scenario(const std::string& path, const Scenario& scenario);

/// Parses the v1 text format. On failure returns nullopt and stores a
/// human-readable message (with line number) in *error if non-null.
std::optional<Scenario> read_scenario(std::istream& is, std::string* error);
std::optional<Scenario> scenario_from_string(const std::string& text, std::string* error);
std::optional<Scenario> load_scenario(const std::string& path, std::string* error);

}  // namespace datastage
