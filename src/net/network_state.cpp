#include "net/network_state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

NetworkState::NetworkState(const Scenario& scenario)
    : scenario_(&scenario), links_(scenario) {
  const std::size_t m = scenario.machine_count();
  const std::size_t n = scenario.item_count();

  storage_.reserve(m);
  for (const Machine& machine : scenario.machines) {
    storage_.emplace_back(machine.capacity_bytes);
    min_headroom_ = std::min(min_headroom_, storage_.back().headroom());
  }

  copies_.resize(n);
  holds_.resize(n);
  dests_.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    const DataItem& item = scenario.items[i];
    std::vector<MachineId>& dests = dests_[i];
    dests.reserve(item.requests.size());
    for (const Request& r : item.requests) {
      dests.push_back(r.destination);
    }
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    for (const SourceLocation& src : item.sources) {
      // A source with an empty hold window never materializes a copy (shared
      // rule with the simulator and the dynamic stager). Registering it would
      // fake has_copy() and let can_hold()'s existing-hold shortcut skip the
      // capacity check while charging nothing to storage.
      const Interval hold = src.hold_window();
      if (hold.empty()) continue;
      DS_ASSERT_MSG(storage_[src.machine.index()].fits(item.size_bytes, hold),
                    "initial source copies exceed machine capacity");
      allocate_storage(src.machine, item.size_bytes, hold);
      copies_[i].push_back(Copy{src.machine, src.available_at});
      record_hold(ItemId{static_cast<std::int32_t>(i)}, src.machine,
                  src.available_at);
    }
  }
}

void NetworkState::allocate_storage(MachineId machine, std::int64_t bytes,
                                    const Interval& iv) {
  StorageTimeline& st = storage_[machine.index()];
  st.allocate(bytes, iv);
  min_headroom_ = std::min(min_headroom_, st.headroom());
}

SimTime* NetworkState::find_hold(ItemId item, MachineId machine) {
  std::vector<HoldRecord>& holds = holds_[item.index()];
  const auto it = std::lower_bound(
      holds.begin(), holds.end(), machine,
      [](const HoldRecord& h, MachineId m) { return h.machine < m; });
  if (it == holds.end() || it->machine != machine) return nullptr;
  return &it->begin;
}

const SimTime* NetworkState::find_hold(ItemId item, MachineId machine) const {
  return const_cast<NetworkState*>(this)->find_hold(item, machine);
}

void NetworkState::record_hold(ItemId item, MachineId machine, SimTime begin) {
  std::vector<HoldRecord>& holds = holds_[item.index()];
  const auto it = std::lower_bound(
      holds.begin(), holds.end(), machine,
      [](const HoldRecord& h, MachineId m) { return h.machine < m; });
  DS_ASSERT(it == holds.end() || it->machine != machine);
  holds.insert(it, HoldRecord{machine, begin});
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
  for (const Copy& c : copies_[item.index()]) {
    if (c.machine == machine) return c.available_at;
  }
  return std::nullopt;
}

SimTime NetworkState::hold_end(ItemId item, MachineId machine) const {
  return copy_hold_end(*scenario_, item, machine, is_destination(item, machine));
}

std::optional<SimTime> NetworkState::hold_begin(ItemId item, MachineId machine) const {
  const SimTime* hb = find_hold(item, machine);
  if (hb == nullptr) return std::nullopt;
  return *hb;
}

bool NetworkState::can_hold(ItemId item, MachineId machine, SimTime start) const {
  const std::int64_t bytes = scenario_->item(item).size_bytes;
  const StorageTimeline& st = storage_[machine.index()];
  // Fitting next to the peak means fitting any hold window: skip the hold
  // lookups and the window query.
  if (bytes <= st.headroom()) return true;
  const std::optional<SimTime> existing = hold_begin(item, machine);
  if (existing.has_value()) {
    // Already held; only the extension to an earlier start needs new space.
    if (*existing <= start) return true;
    return st.fits(bytes, Interval{start, *existing});
  }
  return st.fits(bytes, Interval{start, hold_end(item, machine)});
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

  SimTime* hb = find_hold(item, to);
  if (hb != nullptr) {
    // Receiver already holds a copy; this transfer arrives earlier. Charge
    // only the extension and improve the copy's availability.
    if (start < *hb) {
      const Interval extension{start, *hb};
      allocate_storage(to, bytes, extension);
      applied.storage_interval = extension;
      *hb = start;
      if (counters_.has_value()) counters_->hold_extensions.inc();
    }
    for (Copy& c : copies_[item.index()]) {
      if (c.machine == to) {
        c.available_at = min(c.available_at, arrival);
        break;
      }
    }
  } else {
    const Interval hold{start, hold_end(item, to)};
    allocate_storage(to, bytes, hold);
    applied.storage_interval = hold;
    record_hold(item, to, start);
    copies_[item.index()].push_back(Copy{to, arrival});
    if (counters_.has_value()) counters_->storage_allocations.inc();
  }

  ++transfer_count_;
  return applied;
}

}  // namespace datastage
