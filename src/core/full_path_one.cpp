#include "core/heuristics.hpp"

namespace datastage {

void run_full_path_one(StagingEngine& engine) {
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply_full_path_one(*best);
  }
}

StagingResult run_full_path_one(const Scenario& scenario,
                                const EngineOptions& options) {
  StagingEngine engine(scenario, options);
  run_full_path_one(engine);
  return engine.finish();
}

}  // namespace datastage
