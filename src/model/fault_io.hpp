// Plain-text fault-spec serialization.
//
// A stable, diff-friendly, line-oriented, versioned format
// (`datastage-faults v1`), read by the shared util/line_reader: its rules for
// comments, blank lines, whole-token numbers, trailing tokens and
// line-numbered errors apply here. A FaultSpec file travels alongside a scenario
// file; validation against the scenario happens at use time via
// FaultSpec::validate. Degradation factors are serialized as integer parts
// per million, so write -> read -> write is byte-identical and no float
// formatting is involved.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "model/fault.hpp"

namespace datastage {

/// Serializes `faults` in the v1 text format.
void write_faults(std::ostream& os, const FaultSpec& faults);
std::string faults_to_string(const FaultSpec& faults);
void save_faults(const std::string& path, const FaultSpec& faults);

/// Parses the v1 text format. On failure returns nullopt and stores a
/// human-readable message (with line number) in *error if non-null.
std::optional<FaultSpec> read_faults(std::istream& is, std::string* error);
std::optional<FaultSpec> faults_from_string(const std::string& text, std::string* error);
std::optional<FaultSpec> load_faults(const std::string& path, std::string* error);

/// Quantizes a degradation factor to the serialized resolution (parts per
/// million). The fault generator emits pre-quantized factors so an in-memory
/// FaultSpec and its write -> read image behave identically.
double quantize_factor(double factor);

}  // namespace datastage
