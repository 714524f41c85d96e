// Fluent builders for hand-crafted test scenarios.
//
// Hand-built networks keep unit tests readable: machines are referenced by
// index in declaration order, every physical link gets explicit windows, and
// build() runs full validation so malformed fixtures fail loudly at the
// construction site rather than deep inside a scheduler.
#pragma once

#include <string>
#include <vector>

#include "model/scenario.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace datastage::testing {

/// Shorthand absolute times/durations in minutes and seconds.
inline SimTime at_min(std::int64_t minutes) {
  return SimTime::zero() + SimDuration::minutes(minutes);
}
inline SimTime at_sec(std::int64_t seconds) {
  return SimTime::zero() + SimDuration::seconds(seconds);
}

class ScenarioBuilder {
 public:
  ScenarioBuilder();

  ScenarioBuilder& machine(std::int64_t capacity_bytes);

  /// Adds a physical link and one virtual window. Additional windows for the
  /// same physical link via window().
  ScenarioBuilder& link(std::int32_t from, std::int32_t to, std::int64_t bandwidth_bps,
                        Interval window, SimDuration latency = SimDuration::zero());
  /// Adds another availability window to the most recent physical link.
  ScenarioBuilder& window(Interval window);

  ScenarioBuilder& item(std::int64_t size_bytes);
  ScenarioBuilder& source(std::int32_t machine, SimTime available_at,
                          SimTime hold_until = SimTime::infinity());
  ScenarioBuilder& request(std::int32_t machine, SimTime deadline,
                           Priority priority = kPriorityHigh);

  ScenarioBuilder& horizon(SimTime horizon);
  ScenarioBuilder& gamma(SimDuration gamma);

  /// Validates and returns the scenario (aborts on malformed fixtures).
  Scenario build() const;
  /// Returns without validating (for tests of validate() itself).
  Scenario build_unchecked() const { return scenario_; }

 private:
  Scenario scenario_;
};

/// Canonical 3-machine chain A->B->C with one always-on 8 Mbit/s link per
/// hop, one 1 MB item sourced at A (t=0) and requested at C (deadline 30min,
/// high priority). Many tests start from this and perturb it.
Scenario chain_scenario();

/// One request of a batch scenario moved to an online arrival.
struct OnlineRequest {
  SimTime at;
  std::string item;
  Request request;
};

/// The serve_congested split: the first half of each item's requests (a
/// single request: all of it) stays in `batch`, the rest arrives at
/// instants drawn from `rng` in the first half of its time to deadline, one
/// draw per moved request in item and request order. Sorted stably by
/// arrival time.
std::vector<OnlineRequest> split_online(Scenario& batch, Rng& rng);

}  // namespace datastage::testing
