// RCD-style quick admission estimate: a cheap feasibility-plus-value check
// run before the full replan.
//
// The estimate answers "could this request possibly be satisfied?" with one
// deadline-pruned, target-limited Dijkstra over the stager's residual
// scenario — the "alone in the residual system" relaxation of the bounds
// module (core/bounds.cpp): no other outstanding request consumes links,
// only existing copies consume storage, and the residual's hold ends do not
// limit departures (admitting the request keeps its item's copies until at
// least its deadline + γ). The relaxation is safe in exactly one direction,
// which is the one admission control needs:
//
//   quick-infeasible  =>  no schedule on the residual can satisfy the
//                         request  =>  reject without replanning.
//
// A quick-feasible verdict is only an estimate (contention with other
// outstanding requests can still sink it); the service then runs the full
// bounded replan to decide. See docs/SERVING.md for the two-stage path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/priority.hpp"
#include "model/scenario.hpp"
#include "net/network_state.hpp"
#include "net/storage_timeline.hpp"
#include "net/topology.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace datastage {

/// Result of the quick admission check for one (item, request) pair.
struct QuickEstimate {
  /// The item exists in the residual and a deadline-meeting route exists
  /// when the request runs alone in the residual system.
  bool feasible = false;
  /// Earliest arrival of that alone-in-the-system route (infinity when
  /// infeasible). A lower bound on any achievable arrival.
  SimTime earliest_arrival = SimTime::infinity();
  /// The weighted value the request contributes if admitted and satisfied.
  double value = 0.0;
};

/// Runs the quick check for a request for `item_name` against `residual`
/// (a DynamicStager::residual_scenario(), optionally with a brand-new item
/// appended). An unknown item or an item with no surviving copies is
/// infeasible.
QuickEstimate quick_admission_estimate(const Scenario& residual,
                                       const std::string& item_name,
                                       const Request& request,
                                       const PriorityWeighting& weighting);

/// The same check on a residual whose topology and pristine NetworkState
/// the caller already holds (SchedulerService reuses the stager's residual
/// world): `topology` is built from `pristine.scenario()`, `pristine` has no
/// transfer applied, and `item` indexes that scenario (invalid: unknown
/// item). The Scenario form builds both and calls this.
QuickEstimate quick_admission_estimate(const NetworkState& pristine,
                                       const Topology& topology, ItemId item,
                                       const Request& request,
                                       const PriorityWeighting& weighting);

/// Appends a brand-new item to `residual` for the quick check, its requests
/// dropped, and charges its sources' hold windows to `storage`, the
/// residual's per-machine source timelines: afterwards `storage` is what
/// NetworkState(residual) sweeps. The sources must fit (new_item_sources_fit).
void append_probe_item(Scenario& residual, std::vector<StorageTimeline>& storage,
                       DataItem probe);

/// True when `item`'s source copies fit their machines' storage on top of
/// `storage`, the residual's per-machine source timelines (ResidualWorld::
/// storage). The new copies hold forever, like any original source, on
/// distinct machines (Scenario::validate). Must
/// pass before a new item is injected into a stager — the resource trackers
/// assert, rather than check, that initial copies fit.
bool new_item_sources_fit(std::span<const StorageTimeline> storage, const DataItem& item);

}  // namespace datastage
