// Named access to every scheduler the paper evaluates: the eleven
// heuristic/cost-criterion pairs, the two random lower bounds and the
// priority-first scheme. The experiment harness and the bench binaries drive
// everything through this registry so figure code never hard-codes schedulers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/engine.hpp"
#include "core/heuristics.hpp"
#include "core/satisfaction.hpp"

namespace datastage {

const char* heuristic_name(HeuristicKind kind);

/// A heuristic/cost-criterion pairing (a "series" in the figures).
struct SchedulerSpec {
  HeuristicKind heuristic;
  CostCriterion criterion;

  std::string name() const;  ///< e.g. "partial/C4"
  friend bool operator==(const SchedulerSpec&, const SchedulerSpec&) = default;
};

/// The eleven pairs the paper evaluates (full_all + C1 excluded, §4.8).
std::vector<SchedulerSpec> paper_pairs();

/// The paper pairs plus the C5 extension (the §5.4 future-work criterion)
/// for each heuristic: fourteen pairs.
std::vector<SchedulerSpec> extended_pairs();

/// Pairs for one heuristic (the per-figure series sets).
std::vector<SchedulerSpec> pairs_for(HeuristicKind kind);

/// Parses "partial/C4" etc. nullopt on unknown names.
std::optional<SchedulerSpec> parse_spec(const std::string& name);

/// True iff the pair is one the paper admits (rejects full_all + C1).
bool is_valid_pair(const SchedulerSpec& spec);

/// Runs the pair on a scenario: builds an engine under `options` with the
/// pair's criterion, runs run_heuristic on it and finishes it.
StagingResult run_spec(const SchedulerSpec& spec, const Scenario& scenario,
                       const EngineOptions& options);

/// Everything the experiment layer needs from one (scheduler, scenario) run:
/// the raw staging result plus the evaluation numbers every figure and table
/// derives from it, computed once under options.weighting.
struct CaseResult {
  StagingResult staging;
  double weighted_value = 0.0;        ///< Σ W[priority] over satisfied requests
  std::size_t satisfied = 0;          ///< satisfied request count
  std::vector<std::size_t> by_class;  ///< satisfied per priority class
                                      ///< (size = weighting.num_classes())
};

/// The single entry point for evaluating one scheduler on one scenario — the
/// unit of work the parallel executor dispatches. Wraps run_spec and derives
/// the standard evaluation numbers so harness and bench code never hand-roll
/// engine/bounds/baseline plumbing per call site.
CaseResult run_case(const SchedulerSpec& spec, const Scenario& scenario,
                    const EngineOptions& options);

}  // namespace datastage
