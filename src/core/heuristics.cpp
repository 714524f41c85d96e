// The one greedy loop behind the paper's three heuristics (§4.5-§4.7), and
// the two schemes the paper compares them with that run it under a
// single-criterion cost: the §5.4 "simplified scheme" (all highest-priority
// requests scheduled, full path, before any medium-priority one, and so on)
// and earliest-deadline-first.
#include "core/heuristics.hpp"

#include "util/assert.hpp"

namespace datastage {

void run_heuristic(HeuristicKind kind, StagingEngine& engine) {
  // The paper excludes full_all + C1: a per-destination cost cannot express
  // sending one item to multiple destinations (§4.8).
  DS_ASSERT_MSG(kind != HeuristicKind::kFullAll || !is_per_destination(engine.criterion()),
                "full path/all destinations requires an aggregate cost criterion");
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply(kind, *best);
  }
}

namespace {

/// Full path/one destination under a cost that is not one of the paper's
/// heuristic pairs.
StagingResult run_single_criterion(const Scenario& scenario,
                                   const PriorityWeighting& weighting,
                                   CostCriterion criterion) {
  EngineOptions options;
  options.weighting = weighting;
  options.criterion = criterion;
  StagingEngine engine(scenario, options);
  run_heuristic(HeuristicKind::kFullOne, engine);
  return engine.finish();
}

}  // namespace

StagingResult run_priority_first(const Scenario& scenario,
                                 const PriorityWeighting& weighting) {
  return run_single_criterion(scenario, weighting, CostCriterion::kPriorityOnly);
}

StagingResult run_earliest_deadline_first(const Scenario& scenario,
                                          const PriorityWeighting& weighting) {
  return run_single_criterion(scenario, weighting, CostCriterion::kEdf);
}

}  // namespace datastage
