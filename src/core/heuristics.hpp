// Entry points for the paper's three heuristics, the two random lower-bound
// procedures (§5.2) and the priority-first simplified scheme (§5.4).
//
// All functions take the scenario by const reference and return a
// StagingResult whose schedule can be independently replayed and verified by
// the simulator in src/sim.
#pragma once

#include "core/engine.hpp"
#include "core/satisfaction.hpp"
#include "model/scenario.hpp"
#include "util/rng.hpp"

namespace datastage {

/// Partial path heuristic (§4.5): each iteration commits the single cheapest
/// next hop among all items.
StagingResult run_partial_path(const Scenario& scenario, const EngineOptions& options);

/// Full path/one destination heuristic (§4.6): each iteration commits the
/// whole path of the cheapest candidate to one destination.
StagingResult run_full_path_one(const Scenario& scenario, const EngineOptions& options);

/// Full path/all destinations heuristic (§4.7): each iteration commits the
/// tree paths to every satisfiable destination sharing the first hop.
/// C1 is rejected (the paper excludes the pair; asserts).
StagingResult run_full_path_all(const Scenario& scenario, const EngineOptions& options);

/// The loops of the three heuristics above on a caller-built engine: each
/// runs until no candidate is left and does not finish the engine. The
/// functions above construct an engine, run its loop and finish it;
/// DynamicStager runs them on one engine it resets per replan.
void run_partial_path(StagingEngine& engine);
void run_full_path_one(StagingEngine& engine);
void run_full_path_all(StagingEngine& engine);

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
/// any lower class, ignoring urgency (full-path completion per request).
StagingResult run_priority_first(const Scenario& scenario,
                                 const PriorityWeighting& weighting);

/// Related-work baseline (§2): earliest-deadline-first — requests completed
/// (full path) strictly by absolute deadline, ignoring priority and slack.
StagingResult run_earliest_deadline_first(const Scenario& scenario,
                                          const PriorityWeighting& weighting);

}  // namespace datastage
