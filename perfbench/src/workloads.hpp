// The benchmark's three workloads. Each builds its inputs from a seed, runs
// the scheduler in one process on one thread, checks the outputs, and
// returns either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). README.md in this directory defines every metric.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Minimum measured time of an untraced run; at least one full pass over
  /// the inputs always runs.
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own tests.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures that depend only on the inputs: output digests, value_frac,
  /// admit_frac, program counters. Identical across runs of one seed.
  std::vector<std::pair<std::string, std::string>> deterministic;
  /// Timing-dependent notes: sample counts, the percentile a tail reports.
  std::vector<std::pair<std::string, std::string>> notes;

  bool correct() const { return failed == 0 && attempted > 0; }
  /// The named metric's value; throws std::out_of_range when absent.
  double metric(const std::string& name) const;
  /// The named deterministic figure; throws std::out_of_range when absent.
  const std::string& figure(const std::string& name) const;
};

/// Runs one workload (paper_grid, scale_huge_shape or serve_congested).
/// Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
