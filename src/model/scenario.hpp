// The static data-staging problem instance (paper §3).
//
// A Scenario aggregates machines, physical/virtual links, data items with
// their initial sources, and the requests (destination, deadline, priority).
// It is immutable input to every scheduler; all mutable resource state lives
// in net::NetworkState.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/priority.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

/// A machine M[i]: storage server, client and/or intermediate node.
struct Machine {
  std::string name;
  std::int64_t capacity_bytes = 0;  ///< Cap[i]: total storage capacity.
};

/// A unidirectional physical transmission link.
struct PhysicalLink {
  MachineId from;
  MachineId to;
  std::int64_t bandwidth_bps = 0;            ///< bits per second
  SimDuration latency = SimDuration::zero();  ///< per-transfer fixed overhead
};

/// A virtual link L[i,j][k]: one contiguous availability window of a physical
/// link (paper §3: a link available in nl disjoint intervals is modeled as nl
/// virtual links). Its endpoints and latency are always the physical link's
/// (`Scenario::vlink_from`, `Scenario::vlink_to`); only its bandwidth may be
/// lower (a degraded window). 32 bytes: a scenario holds many of them.
struct VirtualLink {
  PhysLinkId phys;
  std::int64_t bandwidth_bps = 0;
  Interval window;  ///< [Lst, Let)
};

/// One initial location of a data item: Source[i,j] and δst[i,j].
struct SourceLocation {
  MachineId machine;
  SimTime available_at;
  /// When this copy disappears from the machine. Infinity (the default) is
  /// the static model: sources hold their data for the whole simulation.
  /// The dynamic extension uses finite values for staged copies carried into
  /// a residual problem, whose garbage collection is already scheduled.
  SimTime hold_until = SimTime::infinity();

  /// Storage hold window of this initial copy. validate() rejects empty
  /// windows, but unchecked residual/faulted scenarios may carry them (a
  /// copy lost the instant it appears); every consumer must skip a source
  /// whose hold_window() is empty — it never materializes a copy.
  constexpr Interval hold_window() const { return Interval{available_at, hold_until}; }
};

/// One request for a data item: Request[i,k], Rft[i,k], Priority[i,k].
struct Request {
  Request() = default;
  Request(MachineId destination_, SimTime deadline_, Priority priority_ = kPriorityLow)
      : destination(destination_), priority(priority_), deadline(deadline_) {}

  // The two 4-byte fields sit together so a request takes 16 bytes, not 24;
  // the constructor keeps the (destination, deadline, priority) order.
  MachineId destination;
  Priority priority = kPriorityLow;
  SimTime deadline;
};

/// A requested data item Rq[i] with its initial sources and requests.
struct DataItem {
  std::string name;
  std::int64_t size_bytes = 0;
  std::vector<SourceLocation> sources;
  std::vector<Request> requests;

  /// Latest deadline over all requests; drives garbage collection (§4.4).
  SimTime latest_deadline() const;
};

/// A full problem instance.
struct Scenario {
  std::vector<Machine> machines;
  std::vector<PhysicalLink> phys_links;
  std::vector<VirtualLink> virt_links;
  std::vector<DataItem> items;

  /// End of the scheduling period (paper: two hours of effective duration).
  SimTime horizon = SimTime::zero();
  /// γ: how long intermediates keep an item past its latest deadline (§4.4).
  SimDuration gc_gamma = SimDuration::zero();

  std::size_t machine_count() const { return machines.size(); }
  std::size_t item_count() const { return items.size(); }
  /// Total number of individual requests across all items.
  std::size_t request_count() const;

  const Machine& machine(MachineId id) const { return machines[id.index()]; }
  const DataItem& item(ItemId id) const { return items[id.index()]; }
  const VirtualLink& vlink(VirtLinkId id) const { return virt_links[id.index()]; }
  const PhysicalLink& plink(PhysLinkId id) const { return phys_links[id.index()]; }
  /// Sender and receiver of a virtual link: its physical link's endpoints.
  MachineId vlink_from(VirtLinkId id) const { return plink(vlink(id).phys).from; }
  MachineId vlink_to(VirtLinkId id) const { return plink(vlink(id).phys).to; }

  const Request& request(RequestRef ref) const {
    return items[ref.item.index()].requests[static_cast<std::size_t>(ref.k)];
  }

  /// Garbage-collection time for an item: latest deadline + γ (§4.4).
  SimTime gc_time(ItemId id) const {
    return item(id).latest_deadline() + gc_gamma;
  }

  /// Structural validation. Returns a list of human-readable defects; an
  /// empty list means the scenario is well-formed. Checks index ranges,
  /// window sanity, positive sizes/bandwidths/capacities, deadline ordering,
  /// source/destination disjointness and duplicate requests per machine.
  std::vector<std::string> validate() const;

  /// Convenience: validate() and abort with a message on the first defect.
  void check_valid() const;
};

/// End of the storage hold window for a copy of `item` staged on `machine`
/// (§4.4): a destination keeps its data to the end of the simulation, an
/// initial source until its hold_until, any other machine until gc_time
/// (latest deadline + γ). `is_destination` is supplied by the caller because
/// each resource tracker derives it differently; `gc_time` is
/// `scenario.gc_time(item)`, which a caller asking for many machines computes
/// once. Shared by NetworkState, the routing scan, the replay simulator and
/// the fault replay so the hold rules cannot diverge.
SimTime copy_hold_end(const Scenario& scenario, ItemId item, MachineId machine,
                      bool is_destination, SimTime gc_time);
inline SimTime copy_hold_end(const Scenario& scenario, ItemId item, MachineId machine,
                             bool is_destination) {
  return copy_hold_end(scenario, item, machine, is_destination, scenario.gc_time(item));
}

}  // namespace datastage
