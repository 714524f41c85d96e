#include "core/heuristics.hpp"

#include "util/assert.hpp"

namespace datastage {

void run_full_path_all(StagingEngine& engine) {
  // The paper excludes full_all + C1: a per-destination cost cannot express
  // sending one item to multiple destinations (§4.8).
  DS_ASSERT_MSG(!is_per_destination(engine.criterion()),
                "full path/all destinations requires an aggregate cost criterion");
  while (std::optional<Candidate> best = engine.best_candidate()) {
    engine.apply_full_path_all(*best);
  }
}

StagingResult run_full_path_all(const Scenario& scenario,
                                const EngineOptions& options) {
  StagingEngine engine(scenario, options);
  run_full_path_all(engine);
  return engine.finish();
}

}  // namespace datastage
