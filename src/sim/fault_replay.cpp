#include "sim/fault_replay.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {
namespace {

// ceil(a * b / c) for non-negative operands without int64 overflow.
std::int64_t ceil_mul_div(std::int64_t a, std::int64_t b, std::int64_t c) {
  DS_ASSERT(a >= 0 && b >= 0 && c > 0);
  __extension__ using Wide = unsigned __int128;
  const Wide num = static_cast<Wide>(a) * static_cast<Wide>(b);
  const Wide q = (num + static_cast<Wide>(c) - 1) / static_cast<Wide>(c);
  return static_cast<std::int64_t>(q);
}

// floor(a * b / c) for non-negative operands without int64 overflow.
std::int64_t floor_mul_div(std::int64_t a, std::int64_t b, std::int64_t c) {
  DS_ASSERT(a >= 0 && b >= 0 && c > 0);
  __extension__ using Wide = unsigned __int128;
  return static_cast<std::int64_t>(static_cast<Wide>(a) * static_cast<Wide>(b) /
                                   static_cast<Wide>(c));
}

class FaultReplay {
 public:
  FaultReplay(const Scenario& scenario, const Schedule& schedule,
              const FaultSpec& faults)
      : scenario_(scenario), schedule_(schedule), faults_(faults) {
    const std::size_t n = scenario.item_count();
    const std::size_t m = scenario.machine_count();
    avail_.assign(n, std::vector<SimTime>(m, SimTime::infinity()));
    outcomes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      outcomes_[i].resize(scenario.items[i].requests.size());
      for (const SourceLocation& src : scenario.items[i].sources) {
        if (src.hold_window().empty()) continue;
        avail_[i][src.machine.index()] = src.available_at;
      }
    }
    for (std::size_t p = 0; p < scenario.phys_links.size(); ++p) {
      outage_by_link_.emplace_back();
    }
    for (const LinkOutage& outage : faults.outages) {
      outage_by_link_[outage.link.index()].insert_merge(outage.window);
    }
  }

  FaultReplayReport run() {
    // Steps ordered by start; at equal instants arrivals are applied before
    // losses and losses before starts (a copy arriving at t can be destroyed
    // by a loss at t; a sender hit by a loss at t cannot depart at t).
    std::vector<std::size_t> order(schedule_.size());
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    const auto steps = schedule_.steps();
    std::sort(order.begin(), order.end(), [&steps](std::size_t a, std::size_t b) {
      if (steps[a].start != steps[b].start) return steps[a].start < steps[b].start;
      if (steps[a].arrival != steps[b].arrival) {
        return steps[a].arrival < steps[b].arrival;
      }
      return a < b;
    });

    std::vector<std::size_t> losses(faults_.copy_losses.size());
    for (std::size_t l = 0; l < losses.size(); ++l) losses[l] = l;
    std::sort(losses.begin(), losses.end(), [this](std::size_t a, std::size_t b) {
      if (faults_.copy_losses[a].at != faults_.copy_losses[b].at) {
        return faults_.copy_losses[a].at < faults_.copy_losses[b].at;
      }
      return a < b;
    });

    std::size_t next_loss = 0;
    for (const std::size_t s : order) {
      const CommStep& step = steps[s];
      drain_until(step.start, losses, next_loss);
      on_step(step);
    }
    drain_until(SimTime::infinity(), losses, next_loss);

    report_.outcomes = std::move(outcomes_);
    return std::move(report_);
  }

 private:
  struct PendingArrival {
    SimTime at;
    ItemId item;
    MachineId machine;
  };

  // Applies every realized arrival with time <= now and every copy loss with
  // time <= now, interleaved chronologically (arrivals first at equal times).
  void drain_until(SimTime now, const std::vector<std::size_t>& losses,
                   std::size_t& next_loss) {
    for (;;) {
      const PendingArrival* arrival = next_arrival();
      const CopyLoss* loss = next_loss < losses.size()
                                 ? &faults_.copy_losses[losses[next_loss]]
                                 : nullptr;
      const bool take_arrival =
          arrival != nullptr && arrival->at <= now &&
          (loss == nullptr || loss->at > now || arrival->at <= loss->at);
      if (take_arrival) {
        apply_arrival(*arrival);
        pop_arrival();
        continue;
      }
      if (loss != nullptr && loss->at <= now) {
        apply_loss(*loss);
        ++next_loss;
        continue;
      }
      return;
    }
  }

  const PendingArrival* next_arrival() {
    // Arrivals are produced in step-start order but realized out of order
    // (stretching); a sorted drain keeps the timeline chronological.
    if (arrival_cursor_ >= arrivals_.size()) return nullptr;
    auto best = arrivals_.begin() + static_cast<std::ptrdiff_t>(arrival_cursor_);
    for (auto it = best + 1; it != arrivals_.end(); ++it) {
      if (it->at < best->at) best = it;
    }
    std::iter_swap(arrivals_.begin() + static_cast<std::ptrdiff_t>(arrival_cursor_),
                   best);
    return &arrivals_[arrival_cursor_];
  }
  void pop_arrival() { ++arrival_cursor_; }

  void apply_arrival(const PendingArrival& arrival) {
    const std::size_t i = arrival.item.index();
    SimTime& avail = avail_[i][arrival.machine.index()];
    avail = min(avail, arrival.at);
    const DataItem& item = scenario_.item(arrival.item);
    for (std::size_t k = 0; k < item.requests.size(); ++k) {
      const Request& request = item.requests[k];
      if (request.destination != arrival.machine) continue;
      RequestOutcome& outcome = outcomes_[i][k];
      outcome.arrival = min(outcome.arrival, arrival.at);
      if (arrival.at <= request.deadline) outcome.satisfied = true;
    }
  }

  void apply_loss(const CopyLoss& loss) {
    const DataItem* item = nullptr;
    std::size_t i = 0;
    for (; i < scenario_.item_count(); ++i) {
      if (scenario_.items[i].name == loss.item_name) {
        item = &scenario_.items[i];
        break;
      }
    }
    DS_ASSERT_MSG(item != nullptr, "copy loss for unknown item");
    SimTime& avail = avail_[i][loss.machine.index()];
    if (avail > loss.at) return;  // nothing was there (or it arrives later)
    avail = SimTime::infinity();
    ++report_.copy_losses_applied;
    // The destination lost the data inside the delivery window: the request
    // is only satisfied if a later arrival re-delivers it by the deadline.
    for (std::size_t k = 0; k < item->requests.size(); ++k) {
      const Request& request = item->requests[k];
      if (request.destination != loss.machine) continue;
      if (request.deadline < loss.at) continue;  // window already closed
      outcomes_[i][k].satisfied = false;
    }
  }

  void on_step(const CommStep& step) {
    DS_ASSERT_MSG(step.item.valid() && step.item.index() < scenario_.item_count() &&
                      step.link.valid() &&
                      step.link.index() < scenario_.virt_links.size() &&
                      step.from.valid() &&
                      step.from.index() < scenario_.machine_count() &&
                      step.to.valid() && step.to.index() < scenario_.machine_count(),
                  "fault replay requires a structurally valid schedule");
    const std::size_t i = step.item.index();
    if (avail_[i][step.from.index()] > step.start) {
      ++report_.dropped_missing_copy;
      return;
    }
    const VirtualLink& vl = scenario_.vlink(step.link);

    // Realized transmission: walk the degraded fragments of the remaining
    // link window, spending the nominal transmission budget at each
    // fragment's reduced rate. The trailing latency is rate-independent.
    const std::int64_t bytes = scenario_.item(step.item).size_bytes;
    std::int64_t remaining = transfer_duration(bytes, vl.bandwidth_bps).usec();
    SimTime finish = step.start;
    bool fits = remaining == 0;
    for (const auto& [frag, bps] :
         degraded_fragments(Interval{step.start, vl.window.end}, vl.bandwidth_bps,
                            vl.phys, faults_.degradations)) {
      if (fits) break;
      const std::int64_t len = frag.length().usec();
      const std::int64_t needed =
          bps == vl.bandwidth_bps ? remaining
                                  : ceil_mul_div(remaining, vl.bandwidth_bps, bps);
      if (needed <= len) {
        finish = frag.begin + SimDuration::from_usec(needed);
        fits = true;
        break;
      }
      remaining -= bps == vl.bandwidth_bps
                       ? len
                       : floor_mul_div(len, bps, vl.bandwidth_bps);
    }
    const SimTime arrival = finish + scenario_.plink(vl.phys).latency;
    const Interval realized{step.start, arrival};
    if (!fits || !vl.window.contains(realized)) {
      ++report_.dropped_window;
      return;
    }
    if (outage_by_link_[vl.phys.index()].overlaps(realized)) {
      ++report_.dropped_outage;
      return;
    }
    if (arrival != step.arrival) ++report_.stretched;
    ++report_.transfers;
    report_.completion = max(report_.completion, arrival);
    arrivals_.push_back(PendingArrival{arrival, step.item, step.to});
  }

  const Scenario& scenario_;
  const Schedule& schedule_;
  const FaultSpec& faults_;
  FaultReplayReport report_;
  OutcomeMatrix outcomes_;
  std::vector<std::vector<SimTime>> avail_;  // [item][machine]
  std::vector<IntervalSet> outage_by_link_;  // [phys link]
  std::vector<PendingArrival> arrivals_;
  std::size_t arrival_cursor_ = 0;
};

}  // namespace

FaultReplayReport replay_under_faults(const Scenario& scenario,
                                      const Schedule& schedule,
                                      const FaultSpec& faults) {
  return FaultReplay(scenario, schedule, faults).run();
}

}  // namespace datastage
