#include "model/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace datastage {

std::vector<std::string> FaultSpec::validate(const Scenario& scenario) const {
  std::vector<std::string> errors;
  auto error = [&errors](const std::string& msg) { errors.push_back(msg); };
  const auto link_ok = [&scenario](PhysLinkId id) {
    return id.valid() && id.index() < scenario.phys_links.size();
  };
  const auto machine_ok = [&scenario](MachineId id) {
    return id.valid() && id.index() < scenario.machines.size();
  };
  const auto find_item = [&scenario](const std::string& name) -> const DataItem* {
    for (const DataItem& item : scenario.items) {
      if (item.name == name) return &item;
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < outages.size(); ++i) {
    const std::string prefix = "outage " + std::to_string(i) + ": ";
    if (!link_ok(outages[i].link)) error(prefix + "link out of range");
    if (outages[i].window.empty()) error(prefix + "empty window");
    if (outages[i].window.begin < SimTime::zero()) error(prefix + "negative begin");
  }
  for (std::size_t i = 0; i < degradations.size(); ++i) {
    const LinkDegradation& d = degradations[i];
    const std::string prefix = "degradation " + std::to_string(i) + ": ";
    if (!link_ok(d.link)) error(prefix + "link out of range");
    if (d.window.empty()) error(prefix + "empty window");
    if (d.window.begin < SimTime::zero()) error(prefix + "negative begin");
    if (!(d.factor > 0.0 && d.factor < 1.0)) {
      error(prefix + "factor must lie in (0, 1)");
    }
  }
  for (std::size_t i = 0; i < copy_losses.size(); ++i) {
    const CopyLoss& loss = copy_losses[i];
    const std::string prefix = "copy loss " + std::to_string(i) + ": ";
    if (!machine_ok(loss.machine)) error(prefix + "machine out of range");
    if (loss.at < SimTime::zero()) error(prefix + "negative time");
    if (find_item(loss.item_name) == nullptr) {
      error(prefix + "unknown item '" + loss.item_name + "'");
    }
  }
  return errors;
}

void FaultSpec::check_valid(const Scenario& scenario) const {
  const std::vector<std::string> errors = validate(scenario);
  if (!errors.empty()) {
    std::ostringstream os;
    os << "invalid fault spec:";
    for (const auto& e : errors) os << "\n  - " << e;
    DS_ASSERT_MSG(false, os.str().c_str());
  }
}

double outage_fraction(const FaultSpec& faults, const Scenario& scenario) {
  SimDuration total = SimDuration::zero();
  SimDuration removed = SimDuration::zero();
  for (const VirtualLink& vl : scenario.virt_links) {
    total = total + vl.window.length();
    IntervalSet cut;
    for (const LinkOutage& outage : faults.outages) {
      if (outage.link != vl.phys) continue;
      cut.insert_merge(outage.window);
    }
    removed = removed + cut.covered_within(vl.window);
  }
  if (total <= SimDuration::zero()) return 0.0;
  return static_cast<double>(removed.usec()) / static_cast<double>(total.usec());
}

std::vector<std::pair<Interval, std::int64_t>> degraded_fragments(
    const Interval& window, std::int64_t base_bps, PhysLinkId link,
    const std::vector<LinkDegradation>& degradations) {
  std::vector<std::pair<Interval, std::int64_t>> fragments;
  if (window.empty()) return fragments;

  // Boundary points: the window ends plus every degradation edge inside it.
  std::vector<SimTime> cuts{window.begin, window.end};
  for (const LinkDegradation& d : degradations) {
    if (d.link != link || d.window.empty()) continue;
    if (window.contains(d.window.begin)) cuts.push_back(d.window.begin);
    if (window.contains(d.window.end)) cuts.push_back(d.window.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Interval frag{cuts[i], cuts[i + 1]};
    double factor = 1.0;
    for (const LinkDegradation& d : degradations) {
      if (d.link != link || !d.window.contains(frag)) continue;
      factor = std::min(factor, d.factor);  // the worst brownout wins
    }
    std::int64_t bps = base_bps;
    if (factor < 1.0) {
      bps = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(static_cast<double>(base_bps) * factor));
    }
    // Merge with the previous fragment when the rate did not change (keeps
    // the zero-fault and fully-covered cases to a single fragment).
    if (!fragments.empty() && fragments.back().second == bps &&
        fragments.back().first.end == frag.begin) {
      fragments.back().first.end = frag.end;
    } else {
      fragments.emplace_back(frag, bps);
    }
  }
  return fragments;
}

void append_surviving_links(const VirtualLink& link, const IntervalSet& removed,
                            const std::vector<LinkDegradation>& degradations,
                            std::vector<VirtualLink>& out) {
  const auto append = [&](const Interval& piece) {
    if (piece.empty()) return;
    const bool degraded =
        std::any_of(degradations.begin(), degradations.end(), [&](const LinkDegradation& d) {
          return d.link == link.phys && d.window.overlaps(piece);
        });
    if (!degraded) {  // degraded_fragments' answer, without its allocation
      out.push_back(VirtualLink{link.phys, link.bandwidth_bps, piece});
      return;
    }
    for (const auto& [frag, bps] :
         degraded_fragments(piece, link.bandwidth_bps, link.phys, degradations)) {
      out.push_back(VirtualLink{link.phys, bps, frag});
    }
  };
  // Removed periods are sorted and disjoint: append the gaps between them.
  SimTime begin = link.window.begin;
  for (const Interval& down : removed.intervals()) {
    if (down.end <= begin) continue;
    if (down.begin >= link.window.end) break;
    append(Interval{begin, down.begin});
    begin = down.end;
  }
  append(Interval{begin, link.window.end});
}

Scenario apply_faults(const Scenario& scenario, const FaultSpec& faults) {
  Scenario out;
  out.machines = scenario.machines;
  out.phys_links = scenario.phys_links;
  out.items = scenario.items;
  out.horizon = scenario.horizon;
  out.gc_gamma = scenario.gc_gamma;

  IntervalSet down;
  for (const VirtualLink& vl : scenario.virt_links) {
    down.clear();
    for (const LinkOutage& outage : faults.outages) {
      if (outage.link == vl.phys) down.insert_merge(outage.window);
    }
    append_surviving_links(vl, down, faults.degradations, out.virt_links);
  }

  // A copy loss at an initial source ends that source's hold window at the
  // loss time; a source whose window empties never materializes a copy and
  // is dropped (consumers skip empty windows anyway, but dropping keeps the
  // masked scenario closer to check_valid()-clean).
  for (const CopyLoss& loss : faults.copy_losses) {
    for (DataItem& item : out.items) {
      if (item.name != loss.item_name) continue;
      std::vector<SourceLocation> kept;
      for (SourceLocation src : item.sources) {
        if (src.machine == loss.machine) {
          src.hold_until = min(src.hold_until, loss.at);
        }
        if (!src.hold_window().empty()) kept.push_back(src);
      }
      item.sources = std::move(kept);
    }
  }
  return out;
}

}  // namespace datastage
