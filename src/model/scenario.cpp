#include "model/scenario.hpp"

#include <set>
#include <sstream>

#include "util/assert.hpp"

namespace datastage {

SimTime DataItem::latest_deadline() const {
  SimTime latest = SimTime::zero();
  for (const Request& r : requests) latest = max(latest, r.deadline);
  return latest;
}

std::size_t Scenario::request_count() const {
  std::size_t n = 0;
  for (const DataItem& item : items) n += item.requests.size();
  return n;
}

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  auto error = [&errors](const std::string& msg) { errors.push_back(msg); };
  const auto m = static_cast<std::int32_t>(machines.size());

  auto machine_ok = [m](MachineId id) { return id.valid() && id.value() < m; };

  if (machines.empty()) error("scenario has no machines");
  if (horizon <= SimTime::zero()) error("horizon must be positive");
  if (gc_gamma < SimDuration::zero()) error("gc gamma must be non-negative");

  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].capacity_bytes <= 0) {
      error("machine " + std::to_string(i) + " has non-positive capacity");
    }
  }

  for (std::size_t i = 0; i < phys_links.size(); ++i) {
    const PhysicalLink& pl = phys_links[i];
    std::ostringstream os;
    os << "phys link " << i << ": ";
    if (!machine_ok(pl.from) || !machine_ok(pl.to)) {
      error(os.str() + "endpoint out of range");
      continue;
    }
    if (pl.from == pl.to) error(os.str() + "self-loop");
    if (pl.bandwidth_bps <= 0) error(os.str() + "non-positive bandwidth");
    if (pl.latency < SimDuration::zero()) error(os.str() + "negative latency");
  }

  for (std::size_t i = 0; i < virt_links.size(); ++i) {
    const VirtualLink& vl = virt_links[i];
    std::ostringstream os;
    os << "virt link " << i << ": ";
    if (!vl.phys.valid() || vl.phys.index() >= phys_links.size()) {
      error(os.str() + "physical link out of range");
      continue;
    }
    const PhysicalLink& pl = phys_links[vl.phys.index()];
    // A virtual link may run *below* the physical rate (a degraded window
    // produced by fault masking) but never above it.
    if (vl.bandwidth_bps <= 0 || vl.bandwidth_bps > pl.bandwidth_bps) {
      error(os.str() + "bandwidth exceeds physical link or is non-positive");
    }
    if (vl.window.empty()) error(os.str() + "empty availability window");
  }

  // Virtual links of one physical link must not overlap in time (§3: the
  // intervals are non-overlapping and discontinuous).
  {
    std::vector<IntervalSet> busy(phys_links.size());
    for (std::size_t i = 0; i < virt_links.size(); ++i) {
      const VirtualLink& vl = virt_links[i];
      if (!vl.phys.valid() || vl.phys.index() >= phys_links.size()) continue;
      if (vl.window.empty()) continue;
      IntervalSet& set = busy[vl.phys.index()];
      if (set.overlaps(vl.window)) {
        error("virt link " + std::to_string(i) +
              ": window overlaps a sibling virtual link of the same physical link");
      } else {
        set.insert_disjoint(vl.window);
      }
    }
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    const DataItem& item = items[i];
    const std::string prefix = "item " + std::to_string(i) + " (" + item.name + "): ";
    if (item.size_bytes <= 0) error(prefix + "non-positive size");
    if (item.sources.empty()) error(prefix + "no sources");
    if (item.requests.empty()) error(prefix + "no requests");

    std::set<std::int32_t> source_machines;
    for (const SourceLocation& s : item.sources) {
      if (!machine_ok(s.machine)) {
        error(prefix + "source machine out of range");
        continue;
      }
      if (!source_machines.insert(s.machine.value()).second) {
        error(prefix + "duplicate source machine");
      }
      if (s.available_at < SimTime::zero()) error(prefix + "negative source time");
      if (s.hold_until <= s.available_at) {
        error(prefix + "source hold ends at or before its availability");
      }
    }
    std::set<std::int32_t> request_machines;
    for (const Request& r : item.requests) {
      if (!machine_ok(r.destination)) {
        error(prefix + "request destination out of range");
        continue;
      }
      // §3: a given machine generates at most one request per data item.
      if (!request_machines.insert(r.destination.value()).second) {
        error(prefix + "duplicate request from one machine");
      }
      // §5.3: a destination for a data item is not also a source of it.
      if (source_machines.count(r.destination.value()) != 0) {
        error(prefix + "destination is also a source");
      }
      if (r.deadline <= SimTime::zero()) error(prefix + "non-positive deadline");
      if (r.priority < 0) error(prefix + "negative priority");
    }
  }

  return errors;
}

SimTime copy_hold_end(const Scenario& scenario, ItemId item, MachineId machine,
                      bool is_destination, SimTime gc_time) {
  if (is_destination) return SimTime::infinity();
  for (const SourceLocation& src : scenario.item(item).sources) {
    if (src.machine == machine) return src.hold_until;
  }
  return gc_time;
}

void Scenario::check_valid() const {
  const std::vector<std::string> errors = validate();
  if (!errors.empty()) {
    std::ostringstream os;
    os << "invalid scenario:";
    for (const auto& e : errors) os << "\n  - " << e;
    DS_ASSERT_MSG(false, os.str().c_str());
  }
}

}  // namespace datastage
