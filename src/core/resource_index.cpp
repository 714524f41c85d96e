#include "core/resource_index.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

ResourceIndex::ResourceIndex(std::size_t link_count, std::size_t machine_count,
                             std::size_t plan_count)
    : by_link_(link_count),
      by_storage_(machine_count),
      plan_epoch_(plan_count, 0),
      plan_live_(plan_count, 0) {}

void ResourceIndex::reset(std::size_t link_count, std::size_t machine_count,
                          std::size_t plan_count) {
  by_link_.resize(link_count);
  for (std::vector<Entry>& entries : by_link_) entries.clear();
  by_storage_.resize(machine_count);
  for (std::vector<Entry>& entries : by_storage_) entries.clear();
  plan_epoch_.assign(plan_count, 0);
  plan_live_.assign(plan_count, 0);
  live_entries_ = 0;
  dead_entries_ = 0;
}

void ResourceIndex::subscribe_link(std::size_t plan, VirtLinkId link,
                                   const Interval& iv) {
  append(by_link_[link.index()], plan, iv);
}

void ResourceIndex::subscribe_storage(std::size_t plan, MachineId machine,
                                      const Interval& iv) {
  append(by_storage_[machine.index()], plan, iv);
}

void ResourceIndex::unsubscribe_all(std::size_t plan) {
  DS_ASSERT_MSG(plan < plan_epoch_.size(), "unsubscribe of unknown plan");
  if (plan_live_[plan] == 0) return;  // nothing live; epoch bump unnecessary
  dead_entries_ += plan_live_[plan];
  live_entries_ -= plan_live_[plan];
  plan_live_[plan] = 0;
  ++plan_epoch_[plan];
  // Amortized reclamation: once dead entries outnumber live ones (plus a
  // small floor so tiny indexes never sweep), one pass erases them all. The
  // trigger depends only on subscription history, keeping runs reproducible.
  if (dead_entries_ > live_entries_ + 64) sweep();
}

void ResourceIndex::append(std::vector<Entry>& entries, std::size_t plan,
                           const Interval& iv) {
  DS_ASSERT_MSG(plan < plan_epoch_.size(), "subscribe of unknown plan");
  entries.push_back(Entry{static_cast<std::uint32_t>(plan), plan_epoch_[plan], iv});
  ++plan_live_[plan];
  ++live_entries_;
}

void ResourceIndex::sweep() {
  const auto dead = [this](const Entry& e) { return !live(e); };
  for (std::vector<Entry>& entries : by_link_) {
    std::erase_if(entries, dead);
  }
  for (std::vector<Entry>& entries : by_storage_) {
    std::erase_if(entries, dead);
  }
  dead_entries_ = 0;
}

}  // namespace datastage
