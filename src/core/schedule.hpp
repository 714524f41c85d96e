// Communication schedules: the output of every scheduling heuristic.
//
// A schedule S_h is an ordered list of communication steps; each step moves
// one data item over one virtual link at a fixed time. Schedules are plain
// data — they can be rendered, serialized, diffed and (crucially) replayed by
// the independent simulator in src/sim to verify that every resource
// constraint holds and to recompute the satisfied request set.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/scenario.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace datastage {

/// One scheduled transfer: `item` moves from `from` to `to` over `link`,
/// occupying the link during [start, arrival).
struct CommStep {
  ItemId item;
  MachineId from;
  MachineId to;
  VirtLinkId link;
  SimTime start;
  SimTime arrival;

  friend bool operator==(const CommStep&, const CommStep&) = default;
};

class Schedule {
 public:
  void add(const CommStep& step) { steps_.push_back(step); }
  /// Removes every step, keeping the buffer.
  void clear() { steps_.clear(); }

  std::span<const CommStep> steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  /// Total time the schedule keeps links busy.
  SimDuration total_link_time() const;

  /// One line per step, sorted by start time (for traces and examples).
  std::string to_string(const Scenario& scenario) const;

 private:
  std::vector<CommStep> steps_;
};

}  // namespace datastage
