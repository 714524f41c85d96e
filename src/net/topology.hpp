// Immutable network topology view over a Scenario.
//
// Builds the adjacency structure the routing layer scans: per machine, one
// contiguous run of out-edges (each carrying its virtual link's window,
// bandwidth, physical latency and id inline, so the scan never chases the
// scenario), split into one group per distinct receiver. Also holds simple
// degree statistics, and the physical strong-connectivity check the paper's
// generator guarantees (a free function: it needs no virtual-link adjacency).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/scenario.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

/// One outgoing virtual link, with everything a relaxation reads inline.
struct OutEdge {
  Interval window;  ///< [Lst, Let) of the virtual link
  std::int64_t bandwidth_bps = 0;
  SimDuration latency;  ///< of the underlying physical link
  VirtLinkId link;
};

/// The out-edges of one sender towards one receiver: edges [begin, end) of
/// the topology's edge array, ascending by (window begin, link id).
struct ReceiverGroup {
  MachineId to;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

class Topology {
 public:
  explicit Topology(const Scenario& scenario);

  std::size_t machine_count() const { return out_degree_.size(); }

  /// Receiver groups of `machine`, ascending by receiver. Each receiver
  /// appears once; its edges come in (window begin, link id) order. Stable
  /// order keeps Dijkstra deterministic.
  std::span<const ReceiverGroup> receivers(MachineId machine) const {
    const std::uint32_t first = group_start_[machine.index()];
    return {groups_.data() + first, group_start_[machine.index() + 1] - first};
  }

  /// The out-edges of one receiver group.
  std::span<const OutEdge> edges(const ReceiverGroup& group) const {
    return {edges_.data() + group.begin, group.end - group.begin};
  }

  /// Every out-edge of `machine`, ordered by (receiver, window begin, link
  /// id): the concatenation of its receiver groups.
  std::span<const OutEdge> out_edges(MachineId machine) const {
    const std::span<const ReceiverGroup> groups = receivers(machine);
    if (groups.empty()) return {};
    return {edges_.data() + groups.front().begin, groups.back().end - groups.front().begin};
  }

  /// Distinct machines reachable via at least one physical link (the paper's
  /// "outbound degree"). Precomputed: one sorted flat pass over the physical
  /// links at construction instead of a std::set per query (allocation-heavy
  /// at 5k+ machines).
  std::int32_t out_degree(MachineId machine) const {
    return out_degree_[machine.index()];
  }

 private:
  std::vector<OutEdge> edges_;             // grouped by sender, then receiver
  std::vector<ReceiverGroup> groups_;      // grouped by sender
  std::vector<std::uint32_t> group_start_;  // [machine] -> first group; +1 sentinel
  std::vector<std::int32_t> out_degree_;   // distinct physical neighbors
};

/// True iff the *physical* digraph of `scenario` is strongly connected
/// (§5.1: the test generation program guarantees this).
bool strongly_connected(const Scenario& scenario);

}  // namespace datastage
