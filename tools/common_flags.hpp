// Flag plumbing shared by the datastage_* CLI tools.
//
// Every tool used to hand-roll the same handful of flags (--seed,
// --weighting, --jobs, --metrics-out, --trace-out, --paranoid); this module
// centralizes their names, parsing and the observability file plumbing so a
// new cross-cutting flag lands in exactly one place. Tools register the
// groups they support:
//
//   CliFlags flags;
//   flags.parse(argc, argv, toolflags::with_common_flags({"report", "save"}));
//   const auto weighting = toolflags::parse_weighting(flags);
//   toolflags::apply_jobs_flag(flags);
//
// Flag semantics:
//   --seed=N            base RNG seed (tool-specific default)
//   --weighting=W       "1,10,100" (default) or "1,5,10"
//   --jobs=N            worker threads for experiment fan-out (0/default:
//                       hardware concurrency; output is jobs-independent)
//   --engine-jobs=N     worker threads *inside* each engine for parallel plan
//                       refresh (default 1 = serial; 0 = hardware
//                       concurrency; output is engine-jobs-independent)
//   --paranoid          disable the engine's route-tree cache
//   --metrics-out=F     write a metrics document to F
//   --metrics-format=X  "json" (default) or "openmetrics" (Prometheus text)
//   --trace-out=F       write a JSON-lines structured run trace to F
//   --chrome-trace-out=F write a Chrome Trace Event JSON file to F (only
//                       tools that produce a schedule emit content)
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "model/priority.hpp"
#include "obs/observer.hpp"
#include "util/cli.hpp"

namespace datastage::toolflags {

/// The shared flag names plus `extra`, for CliFlags::parse.
std::vector<std::string> with_common_flags(std::vector<std::string> extra = {});

/// Parses --weighting. nullopt (with a stderr message) on an unknown scheme.
std::optional<PriorityWeighting> parse_weighting(const CliFlags& flags);

/// --seed with a tool-specific default.
std::uint64_t seed_flag(const CliFlags& flags, std::uint64_t fallback);

/// Applies --jobs to the process-wide parallel executor
/// (harness/parallel.hpp) and returns the resolved worker count.
std::size_t apply_jobs_flag(const CliFlags& flags);

/// Applies --engine-jobs to the process-wide engine default
/// (core/engine.hpp), so every EngineOptions constructed afterwards —
/// including those built deep inside the harness — inherits it. Returns the
/// resolved per-engine worker count (1 = serial).
std::size_t apply_engine_jobs_flag(const CliFlags& flags);

/// --metrics-out/--trace-out plumbing: owns the registry, phase timer and
/// trace sink, and exposes the observer EngineOptions wants. Inactive (all
/// accessors nullptr) when neither flag was given.
class Observability {
 public:
  /// Opens every output file named by the flags — including --metrics-out,
  /// eagerly, so a bad path (missing directory, unwritable file) fails the
  /// run up front instead of after minutes of scheduling. Returns false with
  /// a stderr message naming the path and the OS error; tools exit 2 on it.
  bool open(const CliFlags& flags);

  bool active() const { return active_; }
  /// nullptr when inactive — assign directly to EngineOptions::observer.
  obs::RunObserver* observer() { return active_ ? &observer_ : nullptr; }
  /// nullptr when inactive — pass to obs::ScopedTimer for free no-op scopes.
  obs::PhaseTimer* phases() { return active_ ? &phases_ : nullptr; }
  obs::MetricsRegistry& registry() { return registry_; }

  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& chrome_trace_path() const { return chrome_trace_path_; }
  std::uint64_t trace_events_written() const;

  /// Exports phase gauges and log counters, then writes the metrics document
  /// (JSON or OpenMetrics per --metrics-format) to the file opened by
  /// open(). No-op (true) when --metrics-out was absent; false with a stderr
  /// message when the write fails.
  bool write_metrics();

  /// Writes a caller-supplied registry (JSON or OpenMetrics per
  /// --metrics-format) to the opened metrics file, *without* exporting phase
  /// gauges or log counters — for tools whose document must stay
  /// byte-identical across runs (wall-clock phase timings are not). No-op
  /// (true) when --metrics-out was absent.
  bool write_metrics_document(const obs::MetricsRegistry& registry);

  /// Writes a prebuilt Chrome Trace Event JSON document to the file opened
  /// for --chrome-trace-out. No-op (true) when the flag was absent; false
  /// with a stderr message naming the path when the write fails.
  bool write_chrome_trace(const std::string& json);

 private:
  bool active_ = false;
  std::string metrics_path_;
  std::string trace_path_;
  std::string chrome_trace_path_;
  bool openmetrics_ = false;
  obs::MetricsRegistry registry_;
  obs::PhaseTimer phases_;
  std::ofstream metrics_file_;
  std::ofstream trace_file_;
  std::ofstream chrome_trace_file_;
  std::optional<obs::RunTrace> run_trace_;
  obs::RunObserver observer_;
};

/// The one place observability/guard/paranoid wiring turns into
/// EngineOptions: weighting from the caller (already parsed), --ratio (the
/// paper's mid-axis 10^1 when absent), --paranoid, and the Observability
/// observer. Tools set their own knobs on the returned struct.
EngineOptions make_engine_options(const CliFlags& flags,
                                  const PriorityWeighting& weighting,
                                  Observability& observability);

/// Opens `path` for writing, eagerly. Returns false and prints a stderr
/// message of the form "cannot open <what> <path>: <strerror>" on failure.
/// Shared by Observability and the tools' own output files (--chrome-trace-out,
/// schedule/scenario outputs) so every bad path fails the same way.
bool open_output_file(std::ofstream& out, const std::string& path,
                      const char* what);

/// C-stream twin of open_output_file for fprintf-style writers (bench CSV
/// emitters). Returns nullptr and prints the same "cannot open <what>
/// <path>: <strerror>" message on failure; the caller owns the FILE and
/// closes it with std::fclose.
std::FILE* open_output_cfile(const std::string& path, const char* what);

}  // namespace datastage::toolflags
