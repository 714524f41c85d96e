// Deterministic fault model layered on top of a Scenario.
//
// A FaultSpec describes how the network misbehaves relative to the nominal
// scenario: link outage windows (no capacity at all), bandwidth degradation
// windows (the link runs at a fraction of its physical rate), and losses of
// staged copies (a machine drops an item it was holding). Faults are data,
// not events: the same FaultSpec can mask a scenario a priori (apply_faults,
// the clairvoyant view), score a committed schedule a posteriori
// (replay_under_faults in sim/), or drive the dynamic stager's recovery path
// (fault_events in dynamic/). All three views are deterministic functions of
// (Scenario, FaultSpec).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/scenario.hpp"
#include "util/interval.hpp"

namespace datastage {

/// A physical link carries no traffic at all during `window`.
struct LinkOutage {
  PhysLinkId link;
  Interval window;

  friend bool operator==(const LinkOutage&, const LinkOutage&) = default;
};

/// A physical link runs at `factor` (in (0, 1)) of its nominal bandwidth
/// during `window`. Overlapping degradations of one link compound by taking
/// the minimum factor (the worst brownout wins).
struct LinkDegradation {
  PhysLinkId link;
  Interval window;
  double factor = 1.0;

  friend bool operator==(const LinkDegradation&, const LinkDegradation&) = default;
};

/// The copy of `item_name` held by `machine` is destroyed at time `at`.
/// A copy that materializes after `at` (a later re-delivery) is unaffected.
struct CopyLoss {
  std::string item_name;
  MachineId machine;
  SimTime at;

  friend bool operator==(const CopyLoss&, const CopyLoss&) = default;
};

/// A full fault scenario. Order within each vector is not semantically
/// meaningful but is preserved by serialization (write -> read -> write is
/// byte-identical).
struct FaultSpec {
  std::vector<LinkOutage> outages;
  std::vector<LinkDegradation> degradations;
  std::vector<CopyLoss> copy_losses;

  bool empty() const {
    return outages.empty() && degradations.empty() && copy_losses.empty();
  }

  /// Structural validation against the scenario the faults apply to. Returns
  /// human-readable defects; empty means well-formed.
  std::vector<std::string> validate(const Scenario& scenario) const;

  /// validate() and abort with a message on the first defect.
  void check_valid(const Scenario& scenario) const;
};

/// Fraction of the scenario's total virtual-link window time removed by the
/// outage windows (the x-axis of a degradation curve). 0 when there are no
/// links or no outages.
double outage_fraction(const FaultSpec& faults, const Scenario& scenario);

/// Splits `window` at the degradation boundaries of `link` and returns the
/// fragments with their effective bandwidth: base_bps outside every
/// degradation, floor(base_bps * min factor) (at least 1 bps) inside. With no
/// overlapping degradation the result is {(window, base_bps)}.
std::vector<std::pair<Interval, std::int64_t>> degraded_fragments(
    const Interval& window, std::int64_t base_bps, PhysLinkId link,
    const std::vector<LinkDegradation>& degradations);

/// Appends what survives of virtual link `link` to `out`: its window minus
/// `removed` (a set of down periods of its physical link), each remaining
/// piece split at the link's degradations by degraded_fragments() at `link`'s
/// own bandwidth. Pieces come in window order. apply_faults and the dynamic
/// stager's link views are all built with it.
void append_surviving_links(const VirtualLink& link, const IntervalSet& removed,
                            const std::vector<LinkDegradation>& degradations,
                            std::vector<VirtualLink>& out);

/// The clairvoyant view: the scenario a scheduler that knew every fault in
/// advance would plan against. Outage windows are subtracted from virtual
/// links, degradation windows split them into fragments carrying the reduced
/// bandwidth, and copy losses clamp source hold windows (a source whose hold
/// window becomes empty is dropped). With an empty FaultSpec the result is
/// identical to `scenario`. The result is structurally sound but may violate
/// check_valid() (an item can lose all sources); schedulers consume it
/// unchecked, exactly like the dynamic stager's residual scenarios.
Scenario apply_faults(const Scenario& scenario, const FaultSpec& faults);

}  // namespace datastage
