#include "core/satisfaction.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

OutcomeTracker::OutcomeTracker(const Scenario& scenario) { reset(scenario); }

void OutcomeTracker::reset(const Scenario& scenario) {
  scenario_ = &scenario;
  outcomes_.resize(scenario.item_count());
  pending_.resize(scenario.item_count());
  pending_count_ = 0;
  for (std::size_t i = 0; i < scenario.item_count(); ++i) {
    const std::size_t nrq = scenario.items[i].requests.size();
    outcomes_[i].assign(nrq, RequestOutcome{});
    pending_[i].clear();
    pending_[i].reserve(nrq);
    for (std::size_t k = 0; k < nrq; ++k) {
      pending_[i].push_back(static_cast<std::int32_t>(k));
    }
    pending_count_ += nrq;
  }
}

void OutcomeTracker::note_arrival(ItemId item, MachineId machine, SimTime arrival) {
  const DataItem& it = scenario_->item(item);
  auto& pending = pending_[item.index()];
  // Checked scenarios carry at most one request per (item, machine), but the
  // dynamic stager legally replays unchecked effective scenarios where an
  // original and an ad-hoc request share a destination. Resolve *every*
  // pending request the arrival serves; stopping at the first would leave a
  // duplicate pending and score the replay differently from the stager's own
  // records. The deadline is closed: arriving exactly at the deadline counts
  // (the delivery window is [start, deadline + 1µs) at µs resolution).
  for (auto cursor = pending.begin(); cursor != pending.end();) {
    const auto k = static_cast<std::size_t>(*cursor);
    const Request& request = it.requests[k];
    if (request.destination != machine) {
      ++cursor;
      continue;
    }
    RequestOutcome& outcome = outcomes_[item.index()][k];
    outcome.arrival = min(outcome.arrival, arrival);
    if (arrival <= request.deadline) {
      outcome.satisfied = true;
      cursor = pending.erase(cursor);
      --pending_count_;
    } else {
      ++cursor;
    }
  }
}

SimTime OutcomeTracker::latest_pending_deadline(ItemId item) const {
  SimTime latest = SimTime::zero();
  const DataItem& it = scenario_->item(item);
  for (const std::int32_t k : pending_[item.index()]) {
    latest = max(latest, it.requests[static_cast<std::size_t>(k)].deadline);
  }
  return latest;
}

double weighted_value(const Scenario& scenario, const PriorityWeighting& weighting,
                      const OutcomeMatrix& outcomes) {
  DS_ASSERT_MSG(outcomes.size() == scenario.item_count(),
                "outcome matrix rows must match scenario items");
  double total = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const DataItem& item = scenario.items[i];
    DS_ASSERT_MSG(outcomes[i].size() == item.requests.size(),
                  "outcome row width must match the item's request count");
    for (std::size_t k = 0; k < outcomes[i].size(); ++k) {
      if (outcomes[i][k].satisfied) {
        total += weighting.weight(item.requests[k].priority);
      }
    }
  }
  return total;
}

std::vector<std::size_t> satisfied_by_class(const Scenario& scenario,
                                            std::size_t num_classes,
                                            const OutcomeMatrix& outcomes) {
  std::vector<std::size_t> counts(num_classes, 0);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    for (std::size_t k = 0; k < outcomes[i].size(); ++k) {
      if (!outcomes[i][k].satisfied) continue;
      const auto cls = static_cast<std::size_t>(scenario.items[i].requests[k].priority);
      DS_ASSERT_MSG(cls < num_classes, "request priority outside the class range");
      ++counts[cls];
    }
  }
  return counts;
}

std::size_t satisfied_count(const OutcomeMatrix& outcomes) {
  std::size_t n = 0;
  for (const auto& row : outcomes) {
    for (const RequestOutcome& o : row) n += o.satisfied ? 1 : 0;
  }
  return n;
}

}  // namespace datastage
