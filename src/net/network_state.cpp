#include "net/network_state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {
namespace {

/// The first copy at or after `machine` in a list sorted by machine.
template <typename Copies>
auto copy_slot(Copies& copies, MachineId machine) {
  return std::lower_bound(copies.begin(), copies.end(), machine,
                          [](const HeldCopy& c, MachineId m) { return c.machine < m; });
}

}  // namespace

NetworkState::NetworkState(const Scenario& scenario)
    : scenario_(&scenario), links_(scenario) {
  std::vector<StorageCharge> charges;
  bind_items(&charges);
  storage_ = StorageTimeline::per_machine(scenario.machines, charges,
                                          "initial source copies exceed machine capacity");
}

NetworkState::NetworkState(const Scenario& scenario,
                           std::span<const StorageTimeline> storage)
    : scenario_(&scenario), links_(scenario) {
  reset(scenario, storage);
}

void NetworkState::reset(const Scenario& scenario,
                         std::span<const StorageTimeline> storage) {
  DS_ASSERT_MSG(storage.size() == scenario.machine_count(),
                "one storage timeline per machine");
  scenario_ = &scenario;
  links_.reset(scenario);
  bind_items(nullptr);
  storage_.assign(storage.begin(), storage.end());
  transfer_count_ = 0;
}

void NetworkState::bind_items(std::vector<StorageCharge>* charges) {
  const std::size_t n = scenario_->item_count();
  copies_.resize(n);
  dests_.resize(n);
  gc_time_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const DataItem& item = scenario_->items[i];
    std::vector<HeldCopy>& copies = copies_[i];
    copies.clear();
    std::vector<MachineId>& dests = dests_[i];
    dests.clear();
    for (const Request& r : item.requests) {
      dests.push_back(r.destination);
    }
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    gc_time_[i] = scenario_->gc_time(ItemId{static_cast<std::int32_t>(i)});
    for (const SourceLocation& src : item.sources) {
      // A source with an empty hold window never materializes a copy (shared
      // rule with the simulator and the dynamic stager). Registering it would
      // fake has_copy() and let hold_charge() charge nothing for a copy that
      // storage never held.
      const Interval hold = src.hold_window();
      if (hold.empty()) continue;
      if (charges != nullptr) {
        charges->push_back(StorageCharge{src.machine, item.size_bytes, hold});
      }
      const auto slot = copy_slot(copies, src.machine);
      DS_ASSERT_MSG(slot == copies.end() || slot->machine != src.machine,
                    "two sources of one item on one machine");
      copies.insert(slot, HeldCopy{{src.machine, src.available_at}, src.available_at});
    }
  }
}

const HeldCopy* NetworkState::find_copy(ItemId item, MachineId machine) const {
  const std::vector<HeldCopy>& copies = copies_[item.index()];
  const auto it = copy_slot(copies, machine);
  if (it == copies.end() || it->machine != machine) return nullptr;
  return &*it;
}

void NetworkState::attach_metrics(obs::MetricsRegistry& registry) {
  counters_ = NetCounters{
      registry.counter("net.transfers"),
      registry.counter("net.link_reservations"),
      registry.counter("net.storage_allocations"),
      registry.counter("net.hold_extensions"),
  };
}

std::optional<SimTime> NetworkState::copy_available_at(ItemId item,
                                                       MachineId machine) const {
  const HeldCopy* copy = find_copy(item, machine);
  if (copy == nullptr) return std::nullopt;
  return copy->available_at;
}

std::optional<SimTime> NetworkState::hold_begin(ItemId item, MachineId machine) const {
  const HeldCopy* copy = find_copy(item, machine);
  if (copy == nullptr) return std::nullopt;
  return copy->hold_begin;
}

std::optional<Interval> NetworkState::hold_charge(ItemId item, MachineId machine,
                                                  SimTime start) const {
  const HeldCopy* copy = find_copy(item, machine);
  if (copy == nullptr) return Interval{start, hold_end(item, machine)};
  if (start < copy->hold_begin) return Interval{start, copy->hold_begin};
  return std::nullopt;
}

bool NetworkState::can_hold(ItemId item, MachineId machine, SimTime start) const {
  const std::int64_t bytes = scenario_->item(item).size_bytes;
  const StorageTimeline& st = storage_[machine.index()];
  // Fitting next to the peak means fitting any hold window: skip the copy
  // lookup and the window query.
  if (bytes <= st.headroom()) return true;
  const std::optional<Interval> charge = hold_charge(item, machine, start);
  return !charge.has_value() || st.fits(bytes, *charge);
}

bool NetworkState::can_apply(ItemId item, VirtLinkId link, SimTime start) const {
  const MachineId from = scenario_->vlink_from(link);
  const std::int64_t bytes = scenario_->item(item).size_bytes;

  const std::optional<SimTime> sender_avail = copy_available_at(item, from);
  if (!sender_avail.has_value() || *sender_avail > start) return false;
  if (start >= hold_end(item, from)) return false;

  const Interval busy{start, start + links_.occupancy(link, bytes)};
  if (!scenario_->vlink(link).window.contains(busy)) return false;
  if (links_.busy_overlaps(link, busy)) return false;

  return can_hold(item, scenario_->vlink_to(link), start);
}

AppliedTransfer NetworkState::apply_transfer(ItemId item, VirtLinkId link,
                                             SimTime start) {
  const MachineId from = scenario_->vlink_from(link);
  const MachineId to = scenario_->vlink_to(link);
  const std::int64_t bytes = scenario_->item(item).size_bytes;

  const std::optional<SimTime> sender_avail = copy_available_at(item, from);
  DS_ASSERT_MSG(sender_avail.has_value(), "sender does not hold the item");
  DS_ASSERT_MSG(*sender_avail <= start, "sender copy not yet available at start");
  DS_ASSERT_MSG(start < hold_end(item, from),
                "sender copy already garbage-collected at start");
  DS_ASSERT_MSG(can_hold(item, to, start), "receiver cannot store the item");

  links_.reserve(link, bytes, start);
  const SimTime arrival = start + links_.occupancy(link, bytes);
  if (counters_.has_value()) {
    counters_->transfers.inc();
    counters_->link_reservations.inc();
  }

  AppliedTransfer applied;
  applied.start = start;
  applied.arrival = arrival;
  applied.link = link;
  applied.link_busy = Interval{start, arrival};
  applied.storage_machine = to;

  applied.storage_interval = hold_charge(item, to, start);
  if (applied.storage_interval.has_value()) {
    storage_[to.index()].allocate(bytes, *applied.storage_interval);
  }
  std::vector<HeldCopy>& copies = copies_[item.index()];
  const auto it = copy_slot(copies, to);
  if (it != copies.end() && it->machine == to) {
    // Receiver already holds a copy: this transfer may start its hold
    // earlier and make it usable sooner.
    if (start < it->hold_begin) {
      it->hold_begin = start;
      if (counters_.has_value()) counters_->hold_extensions.inc();
    }
    it->available_at = min(it->available_at, arrival);
  } else {
    copies.insert(it, HeldCopy{{to, arrival}, start});
    if (counters_.has_value()) counters_->storage_allocations.inc();
  }

  ++transfer_count_;
  return applied;
}

}  // namespace datastage
