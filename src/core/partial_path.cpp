#include "core/heuristics.hpp"

namespace datastage {

void run_partial_path(StagingEngine& engine) {
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply_hop(*best);
  }
}

StagingResult run_partial_path(const Scenario& scenario, const EngineOptions& options) {
  StagingEngine engine(scenario, options);
  run_partial_path(engine);
  return engine.finish();
}

}  // namespace datastage
