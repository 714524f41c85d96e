#include "net/link_schedule.hpp"

#include "util/assert.hpp"

namespace datastage {

LinkSchedule::LinkSchedule(const Scenario& scenario)
    : scenario_(&scenario), busy_(scenario.virt_links.size()) {}

SimDuration LinkSchedule::occupancy(VirtLinkId link, std::int64_t item_bytes) const {
  const VirtualLink& vl = scenario_->vlink(link);
  return transfer_duration(item_bytes, vl.bandwidth_bps) +
         scenario_->plink(vl.phys).latency;
}

std::optional<LinkFit> LinkSchedule::earliest_fit(VirtLinkId link,
                                                  std::int64_t item_bytes,
                                                  SimTime ready_at) const {
  return earliest_fit(link, scenario_->vlink(link).window, occupancy(link, item_bytes),
                      ready_at);
}

void LinkSchedule::reserve(VirtLinkId link, std::int64_t item_bytes, SimTime start) {
  const VirtualLink& vl = scenario_->vlink(link);
  const SimDuration dur = occupancy(link, item_bytes);
  const Interval iv{start, start + dur};
  DS_ASSERT_MSG(vl.window.contains(iv), "reservation outside link window");
  busy_[link.index()].insert_disjoint(iv);
  total_reserved_ = total_reserved_ + iv.length();
}

}  // namespace datastage
