// Request satisfaction accounting and result metrics.
//
// OutcomeTracker is the single source of truth, shared by the heuristics and
// the baselines, for which requests are still pending and which have been
// satisfied: a request (i, k) is satisfied the moment a copy of Rq[i] lands
// on machine Request[i,k] at or before Rft[i,k]. Late arrivals are recorded
// (the destination now holds a stale copy) but the request stays pending —
// a later, faster path could still beat the deadline.
#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "model/priority.hpp"
#include "model/scenario.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace datastage {

/// Final state of one request.
struct RequestOutcome {
  bool satisfied = false;
  /// Earliest recorded arrival of the item at the destination;
  /// SimTime::infinity() if it never arrived.
  SimTime arrival = SimTime::infinity();

  friend bool operator==(const RequestOutcome&, const RequestOutcome&) = default;
};

/// [item][k] -> outcome.
using OutcomeMatrix = std::vector<std::vector<RequestOutcome>>;

class OutcomeTracker {
 public:
  explicit OutcomeTracker(const Scenario& scenario);

  /// Starts over on `scenario` with every request pending, reusing the
  /// per-item buffers.
  void reset(const Scenario& scenario);

  /// Records that `item` arrived at `machine` at `arrival`; resolves any
  /// pending request of `item` at that machine whose deadline is met.
  void note_arrival(ItemId item, MachineId machine, SimTime arrival);

  /// Requests of `item` not yet satisfied, by k, ascending.
  std::span<const std::int32_t> pending_of(ItemId item) const {
    return pending_[item.index()];
  }
  bool any_pending(ItemId item) const { return !pending_[item.index()].empty(); }
  std::size_t pending_count() const { return pending_count_; }

  /// Latest deadline among pending requests of `item` (Dijkstra prune bound);
  /// SimTime::zero() if none pending.
  SimTime latest_pending_deadline(ItemId item) const;

  const OutcomeMatrix& outcomes() const { return outcomes_; }
  OutcomeMatrix take_outcomes() { return std::move(outcomes_); }

 private:
  const Scenario* scenario_ = nullptr;
  OutcomeMatrix outcomes_;
  std::vector<std::vector<std::int32_t>> pending_;  // [item] -> pending ks
  std::size_t pending_count_ = 0;
};

/// Everything a scheduler run produces.
struct StagingResult {
  Schedule schedule;
  OutcomeMatrix outcomes;
  std::size_t dijkstra_runs = 0;  ///< heuristic-cost observability (paper TR)
  std::size_t iterations = 0;     ///< scheduling decisions taken
};

/// The paper's optimization objective, negated to be a maximization value:
/// Σ W[Priority[i,k]] over satisfied requests.
double weighted_value(const Scenario& scenario, const PriorityWeighting& weighting,
                      const OutcomeMatrix& outcomes);

/// Satisfied request count per priority class (index = class).
std::vector<std::size_t> satisfied_by_class(const Scenario& scenario,
                                            std::size_t num_classes,
                                            const OutcomeMatrix& outcomes);

std::size_t satisfied_count(const OutcomeMatrix& outcomes);

}  // namespace datastage
