// The one loop of the paper's three heuristics, the two random lower-bound
// procedures (§5.2), and the priority-first simplified scheme (§5.4) and
// earliest-deadline-first, which run that loop under their own costs. Named
// heuristic/criterion pairs run through run_spec (core/registry.hpp).
//
// The functions that take a scenario return a StagingResult whose schedule
// can be independently replayed and verified by the simulator in src/sim.
#pragma once

#include "core/engine.hpp"
#include "core/satisfaction.hpp"
#include "model/scenario.hpp"
#include "util/rng.hpp"

namespace datastage {

/// The greedy loop of the paper's three heuristics (§4.5-§4.7) on a
/// caller-built engine whose options carry the cost criterion: while
/// best_candidate() returns a step, commit what `kind` takes of it
/// (StagingEngine::apply). Does not finish the engine. run_spec
/// (core/registry.hpp) builds an engine, runs this loop and finishes it;
/// DynamicStager runs it on one engine it resets per replan. Full path/all
/// destinations with a per-destination criterion (C1) asserts: the paper
/// excludes the pair (§4.8).
void run_heuristic(HeuristicKind kind, StagingEngine& engine);

/// Lower bound 1 (§5.2, "single_Dij_random"): one Dijkstra per item on the
/// pristine network, paths replayed in random item order, conflicting
/// requests dropped. `rng` drives the item order.
StagingResult run_single_dijkstra_random(const Scenario& scenario,
                                         const PriorityWeighting& weighting, Rng& rng);

/// Lower bound 2 (§5.2, "random_Dijkstra"): the partial path machinery but
/// choosing a uniformly random valid communication step each iteration.
StagingResult run_random_dijkstra(const Scenario& scenario,
                                  const PriorityWeighting& weighting, Rng& rng);

/// The §5.4 simplified scheme: all highest-priority requests scheduled before
/// any lower class, ignoring urgency: the full path/one destination loop
/// under the priority-only cost.
StagingResult run_priority_first(const Scenario& scenario,
                                 const PriorityWeighting& weighting);

/// Related-work baseline (§2): earliest-deadline-first — requests completed
/// (full path/one destination loop) strictly by absolute deadline, ignoring
/// priority and slack.
StagingResult run_earliest_deadline_first(const Scenario& scenario,
                                          const PriorityWeighting& weighting);

}  // namespace datastage
