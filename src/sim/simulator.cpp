#include "sim/simulator.hpp"

#include <sstream>

#include "net/storage_timeline.hpp"
#include "sim/event_queue.hpp"
#include "util/interval.hpp"

namespace datastage {
namespace {

class Simulator {
 public:
  Simulator(const Scenario& scenario, const Schedule& schedule)
      : scenario_(scenario),
        schedule_(schedule),
        tracker_(scenario),
        link_busy_(scenario.virt_links.size()),
        copy_available_(scenario.item_count(),
                        std::vector<SimTime>(scenario.machine_count(),
                                             SimTime::infinity())),
        hold_begin_(scenario.item_count(),
                    std::vector<SimTime>(scenario.machine_count(),
                                         SimTime::infinity())) {
    storage_.reserve(scenario.machine_count());
    for (const Machine& m : scenario.machines) storage_.emplace_back(m.capacity_bytes);
  }

  SimReport run() {
    charge_initial_copies();
    static_checks();
    replay_events();
    finalize();
    return std::move(report_);
  }

 private:
  void issue(const std::string& msg) {
    report_.ok = false;
    report_.issues.push_back(msg);
  }

  std::string step_tag(std::size_t index, const CommStep& step) const {
    std::ostringstream os;
    os << "step " << index << " (item " << step.item.value() << ", "
       << step.from.value() << "->" << step.to.value() << " @ "
       << step.start.to_string() << ")";
    return os.str();
  }

  bool is_destination(ItemId item, MachineId machine) const {
    for (const Request& r : scenario_.item(item).requests) {
      if (r.destination == machine) return true;
    }
    return false;
  }

  SimTime hold_end(ItemId item, MachineId machine) const {
    return copy_hold_end(scenario_, item, machine, is_destination(item, machine));
  }

  void charge_initial_copies() {
    for (std::size_t i = 0; i < scenario_.item_count(); ++i) {
      const DataItem& item = scenario_.items[i];
      for (const SourceLocation& src : item.sources) {
        // Empty hold window: the copy never exists (shared rule with
        // NetworkState and the dynamic stager) — charge and register nothing.
        const Interval hold = src.hold_window();
        if (hold.empty()) continue;
        StorageTimeline& st = storage_[src.machine.index()];
        if (!st.fits(item.size_bytes, hold)) {
          issue("initial copy of item " + std::to_string(i) + " does not fit on machine " +
                std::to_string(src.machine.value()));
          continue;
        }
        st.allocate(item.size_bytes, hold);
        copy_available_[i][src.machine.index()] = src.available_at;
        hold_begin_[i][src.machine.index()] = src.available_at;
      }
    }
  }

  // Per-step structural checks that need no global event ordering. Steps
  // failing the id-range check are excluded from event replay entirely.
  void static_checks() {
    const auto steps = schedule_.steps();
    step_valid_.assign(steps.size(), true);
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const CommStep& step = steps[s];
      if (!step.item.valid() || step.item.index() >= scenario_.item_count() ||
          !step.link.valid() || step.link.index() >= scenario_.virt_links.size() ||
          !step.from.valid() || step.from.index() >= scenario_.machine_count() ||
          !step.to.valid() || step.to.index() >= scenario_.machine_count()) {
        issue("step " + std::to_string(s) + ": id out of range");
        step_valid_[s] = false;
        continue;
      }
      const VirtualLink& vl = scenario_.vlink(step.link);
      const CommStep tag_step = step;
      const PhysicalLink& pl = scenario_.plink(vl.phys);
      if (pl.from != step.from || pl.to != step.to) {
        issue(step_tag(s, tag_step) + ": endpoints disagree with the virtual link");
      }
      const SimDuration expected =
          transfer_duration(scenario_.item(step.item).size_bytes, vl.bandwidth_bps) +
          scenario_.plink(vl.phys).latency;
      if (step.arrival - step.start != expected) {
        issue(step_tag(s, tag_step) + ": duration mismatch (expected " +
              expected.to_string() + ", got " + (step.arrival - step.start).to_string() +
              ")");
      }
      const Interval busy{step.start, step.arrival};
      if (!vl.window.contains(busy)) {
        issue(step_tag(s, tag_step) + ": outside the link availability window " +
              vl.window.to_string());
      }
      IntervalSet& reservations = link_busy_[step.link.index()];
      if (reservations.overlaps(busy)) {
        issue(step_tag(s, tag_step) + ": overlaps another transfer on the same link");
      } else if (!busy.empty()) {
        reservations.insert_disjoint(busy);
      }
    }
  }

  void replay_events() {
    EventQueue queue;
    const auto steps = schedule_.steps();
    for (std::size_t s = 0; s < steps.size(); ++s) {
      if (!step_valid_[s]) continue;
      queue.push(SimEvent{steps[s].start, SimEventKind::kTransferStart, s});
      queue.push(SimEvent{steps[s].arrival, SimEventKind::kArrival, s});
    }

    while (!queue.empty()) {
      const SimEvent event = queue.pop();
      const CommStep& step = steps[event.step];
      if (event.kind == SimEventKind::kTransferStart) {
        on_transfer_start(event.step, step);
      } else {
        on_arrival(step);
        report_.completion = max(report_.completion, step.arrival);
        ++report_.transfers;
      }
    }
  }

  void on_transfer_start(std::size_t index, const CommStep& step) {
    const std::size_t i = step.item.index();
    const SimTime sender_avail = copy_available_[i][step.from.index()];
    if (sender_avail > step.start) {
      issue(step_tag(index, step) + ": sender does not hold the item at start (" +
            (sender_avail.is_infinite() ? std::string("never arrives")
                                        : "available " + sender_avail.to_string()) +
            ")");
      return;
    }
    if (step.start >= hold_end(step.item, step.from)) {
      issue(step_tag(index, step) + ": sender copy garbage-collected before start");
      return;
    }

    // Receiver storage, mirroring the schedulers' hold rules: charge from
    // transfer start to the role-aware hold end; an existing hold only needs
    // the extension.
    const std::int64_t bytes = scenario_.item(step.item).size_bytes;
    StorageTimeline& st = storage_[step.to.index()];
    SimTime& hb = hold_begin_[i][step.to.index()];
    Interval charge;
    if (!hb.is_infinite()) {
      if (step.start >= hb) return;  // already held over the whole window
      charge = Interval{step.start, hb};
    } else {
      charge = Interval{step.start, hold_end(step.item, step.to)};
    }
    if (!st.fits(bytes, charge)) {
      issue(step_tag(index, step) + ": receiver storage capacity exceeded");
      return;
    }
    st.allocate(bytes, charge);
    hb = min(hb, step.start);
  }

  void on_arrival(const CommStep& step) {
    const std::size_t i = step.item.index();
    SimTime& avail = copy_available_[i][step.to.index()];
    avail = min(avail, step.arrival);
    tracker_.note_arrival(step.item, step.to, step.arrival);
  }

  void finalize() {
    report_.outcomes = tracker_.take_outcomes();
    report_.peak_usage.reserve(scenario_.machine_count());
    for (std::size_t m = 0; m < scenario_.machine_count(); ++m) {
      report_.peak_usage.push_back(
          storage_[m].max_usage(Interval{SimTime::zero(), SimTime::infinity()}));
    }
  }

  const Scenario& scenario_;
  const Schedule& schedule_;
  OutcomeTracker tracker_;
  SimReport report_;
  std::vector<StorageTimeline> storage_;
  std::vector<bool> step_valid_;
  std::vector<IntervalSet> link_busy_;
  std::vector<std::vector<SimTime>> copy_available_;  // [item][machine]
  std::vector<std::vector<SimTime>> hold_begin_;      // [item][machine]
};

}  // namespace

SimReport simulate(const Scenario& scenario, const Schedule& schedule) {
  return Simulator(scenario, schedule).run();
}

}  // namespace datastage
