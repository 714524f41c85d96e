#include "serve/admission.hpp"

#include <array>

#include "net/network_state.hpp"
#include "net/storage_timeline.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "util/ids.hpp"

namespace datastage {

QuickEstimate quick_admission_estimate(const Scenario& residual,
                                       const std::string& item_name,
                                       const Request& request,
                                       const PriorityWeighting& weighting) {
  ItemId item = ItemId::invalid();
  for (std::size_t i = 0; i < residual.items.size(); ++i) {
    if (residual.items[i].name == item_name) {
      item = ItemId(static_cast<std::int32_t>(i));
      break;
    }
  }
  const Topology topology(residual);
  const NetworkState pristine(residual);
  return quick_admission_estimate(pristine, topology, item, request, weighting);
}

QuickEstimate quick_admission_estimate(const NetworkState& pristine,
                                       const Topology& topology, ItemId item,
                                       const Request& request,
                                       const PriorityWeighting& weighting) {
  QuickEstimate estimate;
  estimate.value = weighting.weight(request.priority);
  // The state registers a copy for every source with a nonempty hold window.
  if (!item.valid() || pristine.copies(item).empty()) return estimate;

  // One deadline-pruned Dijkstra, stopping as soon as the destination
  // settles. The pristine NetworkState charges only the residual's copies —
  // the "alone in the system" relaxation — with no hold end (see the header).
  DijkstraOptions options;
  options.prune_after = request.deadline;
  options.ignore_hold_ends = true;
  const std::array<MachineId, 1> targets{request.destination};
  options.targets = targets;
  const RouteTree tree = compute_route_tree(pristine, topology, item, options);

  if (tree.reached(request.destination) &&
      tree.arrival(request.destination) <= request.deadline) {
    estimate.feasible = true;
    estimate.earliest_arrival = tree.arrival(request.destination);
  }
  return estimate;
}

void append_probe_item(Scenario& residual, std::vector<StorageTimeline>& storage,
                       DataItem probe) {
  probe.requests.clear();
  for (const SourceLocation& src : probe.sources) {
    storage[src.machine.index()].allocate(probe.size_bytes, src.hold_window());
  }
  residual.items.push_back(std::move(probe));
}

bool new_item_sources_fit(std::span<const StorageTimeline> storage, const DataItem& item) {
  for (const SourceLocation& src : item.sources) {
    const Interval hold{src.available_at, SimTime::infinity()};
    if (!storage[src.machine.index()].fits(item.size_bytes, hold)) return false;
  }
  return true;
}

}  // namespace datastage
