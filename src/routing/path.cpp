#include "routing/path.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

namespace {

TreeEdge root_entry(MachineId machine, SimTime arrival) {
  return TreeEdge{MachineId::invalid(), machine, VirtLinkId::invalid(), SimTime::zero(),
                  arrival};
}

}  // namespace

RouteTree::RouteTree(std::size_t machine_count) : machine_count_(machine_count) {}

void RouteTree::reset(std::size_t machine_count) {
  entries_.clear();
  machine_count_ = machine_count;
}

std::size_t RouteTree::index_of(MachineId machine) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), machine,
      [](const TreeEdge& e, MachineId m) { return e.to < m; });
  if (it == entries_.end() || it->to != machine) return entries_.size();
  return static_cast<std::size_t>(it - entries_.begin());
}

const TreeEdge* RouteTree::entry(MachineId machine) const {
  const std::size_t i = index_of(machine);
  return i < entries_.size() ? &entries_[i] : nullptr;
}

const TreeEdge& RouteTree::parent_edge(MachineId machine) const {
  const TreeEdge* e = entry(machine);
  DS_ASSERT(e != nullptr && e->from.valid());
  return *e;
}

const TreeEdge& RouteTree::first_hop(MachineId dest) const {
  const TreeEdge* e = entry(dest);
  DS_ASSERT(e != nullptr && !e->arrival.is_infinite());
  return first_hop(*e);
}

const TreeEdge& RouteTree::first_hop(const TreeEdge& dest_entry) const {
  DS_ASSERT(dest_entry.from.valid());
  const TreeEdge* hop = &dest_entry;
  for (const TreeEdge* above = entry(hop->from);
       above != nullptr && above->from.valid(); above = entry(above->from)) {
    hop = above;
  }
  return *hop;
}

std::vector<TreeEdge> RouteTree::path_to(MachineId dest) const {
  std::vector<TreeEdge> path;
  path_to_into(dest, path);
  return path;
}

void RouteTree::path_to_into(MachineId dest, std::vector<TreeEdge>& out) const {
  const TreeEdge* e = entry(dest);
  DS_ASSERT(e != nullptr && !e->arrival.is_infinite());
  path_to_into(*e, out);
}

void RouteTree::path_to_into(const TreeEdge& dest_entry,
                             std::vector<TreeEdge>& out) const {
  out.clear();
  for (const TreeEdge* e = &dest_entry; e != nullptr && e->from.valid();
       e = entry(e->from)) {
    out.push_back(*e);
  }
  std::reverse(out.begin(), out.end());
}

void RouteTree::reroot_and_restrict(std::span<const MachineId> new_roots,
                                    std::span<const MachineId> targets,
                                    std::vector<std::uint8_t>& keep) {
  for (const MachineId root : new_roots) {
    const std::size_t i = index_of(root);
    DS_ASSERT_MSG(i < entries_.size(), "re-rooted machine has no tree entry");
    entries_[i] = root_entry(root, entries_[i].arrival);
  }
  // The same walk as a targeted run's compaction: each target, then parents
  // up to a root or an entry already kept.
  keep.assign(entries_.size(), 0);
  for (const MachineId target : targets) {
    for (std::size_t i = index_of(target); i < entries_.size() && keep[i] == 0;) {
      keep[i] = 1;
      if (!entries_[i].from.valid()) break;
      i = index_of(entries_[i].from);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (keep[i] != 0) entries_[kept++] = entries_[i];
  }
  entries_.resize(kept);
}

void RouteTree::append(MachineId machine, SimTime arrival, bool has_parent,
                       const TreeEdge& edge) {
  DS_ASSERT_MSG(entries_.empty() || entries_.back().to < machine,
                "RouteTree entries must be appended in ascending machine order");
  if (has_parent) {
    DS_ASSERT(edge.from.valid() && edge.to == machine && edge.arrival == arrival);
    entries_.push_back(edge);
  } else {
    entries_.push_back(root_entry(machine, arrival));
  }
}

}  // namespace datastage
