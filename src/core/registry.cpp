#include "core/registry.hpp"

#include "util/assert.hpp"

namespace datastage {

const char* heuristic_name(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kPartial: return "partial";
    case HeuristicKind::kFullOne: return "full_one";
    case HeuristicKind::kFullAll: return "full_all";
  }
  DS_UNREACHABLE("bad heuristic kind");
}

std::string SchedulerSpec::name() const {
  return std::string(heuristic_name(heuristic)) + "/" + cost_name(criterion);
}

bool is_valid_pair(const SchedulerSpec& spec) {
  if (spec.criterion == CostCriterion::kPriorityOnly) return false;
  if (spec.heuristic == HeuristicKind::kFullAll && is_per_destination(spec.criterion)) {
    return false;  // full_all + C1 "did not make sense" (§6)
  }
  return true;
}

std::vector<SchedulerSpec> pairs_for(HeuristicKind kind) {
  std::vector<SchedulerSpec> pairs;
  for (const CostCriterion criterion :
       {CostCriterion::kC1, CostCriterion::kC2, CostCriterion::kC3,
        CostCriterion::kC4}) {
    const SchedulerSpec spec{kind, criterion};
    if (is_valid_pair(spec)) pairs.push_back(spec);
  }
  return pairs;
}

std::vector<SchedulerSpec> paper_pairs() {
  std::vector<SchedulerSpec> pairs;
  for (const HeuristicKind kind :
       {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
    for (const SchedulerSpec& spec : pairs_for(kind)) pairs.push_back(spec);
  }
  DS_ASSERT_MSG(pairs.size() == 11,
                "paper pair set must list 11 scheduler/criterion pairs");
  return pairs;
}

std::vector<SchedulerSpec> extended_pairs() {
  std::vector<SchedulerSpec> pairs = paper_pairs();
  for (const HeuristicKind kind :
       {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll}) {
    pairs.push_back(SchedulerSpec{kind, CostCriterion::kC5});
  }
  return pairs;
}

std::optional<SchedulerSpec> parse_spec(const std::string& name) {
  for (const SchedulerSpec& spec : extended_pairs()) {
    if (spec.name() == name) return spec;
  }
  return std::nullopt;
}

StagingResult run_spec(const SchedulerSpec& spec, const Scenario& scenario,
                       const EngineOptions& base_options) {
  DS_ASSERT_MSG(is_valid_pair(spec), "scheduler pair not admitted by the paper");
  EngineOptions options = base_options;
  options.criterion = spec.criterion;
  switch (spec.heuristic) {
    case HeuristicKind::kPartial: return run_partial_path(scenario, options);
    case HeuristicKind::kFullOne: return run_full_path_one(scenario, options);
    case HeuristicKind::kFullAll: return run_full_path_all(scenario, options);
  }
  DS_UNREACHABLE("bad heuristic kind");
}

void run_heuristic(HeuristicKind kind, StagingEngine& engine) {
  switch (kind) {
    case HeuristicKind::kPartial: return run_partial_path(engine);
    case HeuristicKind::kFullOne: return run_full_path_one(engine);
    case HeuristicKind::kFullAll: return run_full_path_all(engine);
  }
  DS_UNREACHABLE("bad heuristic kind");
}

CaseResult run_case(const SchedulerSpec& spec, const Scenario& scenario,
                    const EngineOptions& options) {
  CaseResult result;
  result.staging = run_spec(spec, scenario, options);
  result.weighted_value =
      weighted_value(scenario, options.weighting, result.staging.outcomes);
  result.satisfied = satisfied_count(result.staging.outcomes);
  result.by_class = satisfied_by_class(scenario, options.weighting.num_classes(),
                                       result.staging.outcomes);
  return result;
}

}  // namespace datastage
