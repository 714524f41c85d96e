#include "core/exact.hpp"

#include <algorithm>
#include <map>

#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "util/assert.hpp"

namespace datastage {
namespace {

/// One branchable choice: commit this hop for this item.
struct Choice {
  ItemId item;
  TreeEdge hop;
};

/// Valid next steps plus the optimistic bound.
struct Frontier {
  std::vector<Choice> choices;
  /// The weighted value of every pending request still individually
  /// satisfiable on the state.
  double optimistic = 0.0;
};

/// The frontier of a search state from one route tree per pending item: a
/// pending request is satisfiable when the tree reaches its destination by
/// a transfer by its deadline, and the choices are each item's distinct
/// first hops towards its satisfiable destinations, in ascending item and
/// receiver order.
Frontier frontier_of(const Scenario& scenario, const Topology& topology,
                     const PriorityWeighting& weighting, const NetworkState& state,
                     const OutcomeTracker& tracker) {
  Frontier f;
  for (std::size_t i = 0; i < scenario.item_count(); ++i) {
    const ItemId item(static_cast<std::int32_t>(i));
    if (!tracker.any_pending(item)) continue;
    DijkstraOptions dopt;
    dopt.prune_after = tracker.latest_pending_deadline(item);
    const RouteTree tree = compute_route_tree(state, topology, item, dopt);

    std::map<std::int32_t, TreeEdge> hops;
    const DataItem& it = scenario.item(item);
    for (const std::int32_t k : tracker.pending_of(item)) {
      const Request& request = it.requests[static_cast<std::size_t>(k)];
      if (!tree.reached(request.destination)) continue;
      if (!tree.has_parent(request.destination)) continue;
      if (tree.arrival(request.destination) > request.deadline) continue;
      f.optimistic += weighting.weight(request.priority);
      const TreeEdge& hop = tree.first_hop(request.destination);
      hops.emplace(hop.to.value(), hop);
    }
    for (const auto& [to, hop] : hops) {
      (void)to;
      f.choices.push_back(Choice{item, hop});
    }
  }
  return f;
}

class Searcher {
 public:
  Searcher(const Scenario& scenario, const SearchOptions& options)
      : scenario_(scenario), options_(options), topology_(scenario) {}

  SearchReport run() {
    NetworkState state(scenario_);
    OutcomeTracker tracker(scenario_);
    Schedule schedule;
    report_.complete = true;   // cleared if the cap trips
    report_.best_value = -1.0;  // so the root (value 0) becomes the incumbent
    dfs(state, tracker, schedule, 0.0);
    DS_ASSERT_MSG(report_.best_value >= 0.0,
                  "search must at least visit the empty root schedule");
    return std::move(report_);
  }

 private:
  void dfs(NetworkState& state, OutcomeTracker& tracker, Schedule& schedule,
           double value) {
    if (report_.nodes >= options_.max_nodes) {
      report_.complete = false;
      return;
    }
    ++report_.nodes;

    const Frontier f =
        frontier_of(scenario_, topology_, options_.weighting, state, tracker);
    if (value > report_.best_value) {
      report_.best_value = value;
      report_.best.schedule = schedule;
      report_.best.outcomes = tracker.outcomes();
      report_.best.iterations = schedule.size();
    }
    // Bound: even satisfying every still-satisfiable pending request cannot
    // beat the incumbent.
    if (value + f.optimistic <= report_.best_value) return;
    if (f.choices.empty()) return;

    for (const Choice& choice : f.choices) {
      // Copy-on-branch: tiny instances make the copies affordable and keep
      // the resource accounting trivially correct (no undo logic).
      NetworkState next_state = state;
      OutcomeTracker next_tracker = tracker;
      Schedule next_schedule = schedule;

      const AppliedTransfer applied =
          next_state.apply_transfer(choice.item, choice.hop.link, choice.hop.start);
      next_schedule.add(CommStep{choice.item, choice.hop.from, choice.hop.to,
                                 choice.hop.link, applied.start, applied.arrival});
      next_tracker.note_arrival(choice.item, choice.hop.to, applied.arrival);
      const double next_value =
          weighted_value(scenario_, options_.weighting, next_tracker.outcomes());

      dfs(next_state, next_tracker, next_schedule, next_value);
      if (report_.nodes >= options_.max_nodes) {
        report_.complete = false;
        return;
      }
    }
  }

  const Scenario& scenario_;
  const SearchOptions& options_;
  Topology topology_;
  SearchReport report_;
};

/// One partial schedule in the beam.
struct BeamState {
  NetworkState state;
  OutcomeTracker tracker;
  Schedule schedule;
  double value = 0.0;
  /// Its next steps, and the upper bound on additional value.
  Frontier frontier;

  double score() const { return value + frontier.optimistic; }
};

class BeamSearcher {
 public:
  BeamSearcher(const Scenario& scenario, const BeamOptions& options)
      : scenario_(scenario), options_(options), topology_(scenario) {}

  StagingResult run() {
    std::vector<BeamState> beam;
    beam.push_back(BeamState{NetworkState(scenario_), OutcomeTracker(scenario_),
                             Schedule{}, 0.0, {}});
    beam.front().frontier = frontier(beam.front());
    BeamState best = beam.front();
    std::size_t expansions = 0;

    while (!beam.empty() && expansions < options_.max_expansions) {
      std::vector<BeamState> next;
      for (const BeamState& state : beam) {
        for (const Choice& choice : state.frontier.choices) {
          if (++expansions > options_.max_expansions) break;
          BeamState successor{state.state, state.tracker, state.schedule, 0.0, {}};
          const AppliedTransfer applied = successor.state.apply_transfer(
              choice.item, choice.hop.link, choice.hop.start);
          successor.schedule.add(CommStep{choice.item, choice.hop.from,
                                          choice.hop.to, choice.hop.link,
                                          applied.start, applied.arrival});
          successor.tracker.note_arrival(choice.item, choice.hop.to,
                                         applied.arrival);
          successor.value = weighted_value(scenario_, options_.weighting,
                                           successor.tracker.outcomes());
          successor.frontier = frontier(successor);
          if (successor.value > best.value) best = successor;
          next.push_back(std::move(successor));
        }
      }
      if (next.empty()) break;
      // Keep the `width` most promising states (deterministic tie order).
      std::stable_sort(next.begin(), next.end(),
                       [](const BeamState& a, const BeamState& b) {
                         return a.score() > b.score();
                       });
      if (next.size() > options_.width) {
        next.erase(next.begin() + static_cast<std::ptrdiff_t>(options_.width),
                   next.end());
      }
      beam = std::move(next);
    }

    StagingResult result;
    result.schedule = std::move(best.schedule);
    result.outcomes = best.tracker.take_outcomes();
    result.iterations = result.schedule.size();
    return result;
  }

 private:
  Frontier frontier(const BeamState& bs) const {
    return frontier_of(scenario_, topology_, options_.weighting, bs.state, bs.tracker);
  }

  const Scenario& scenario_;
  const BeamOptions& options_;
  Topology topology_;
};

}  // namespace

SearchReport exhaustive_step_search(const Scenario& scenario,
                                    const SearchOptions& options) {
  return Searcher(scenario, options).run();
}

StagingResult run_beam_search(const Scenario& scenario, const BeamOptions& options) {
  return BeamSearcher(scenario, options).run();
}

}  // namespace datastage
