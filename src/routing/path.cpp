#include "routing/path.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

RouteTree::RouteTree(std::size_t machine_count) : machine_count_(machine_count) {}

void RouteTree::reset(std::size_t machine_count) {
  entries_.clear();
  machine_count_ = machine_count;
}

const TreeEdge* RouteTree::find(MachineId machine) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), machine,
      [](const TreeEdge& e, MachineId m) { return e.to < m; });
  if (it == entries_.end() || it->to != machine) return nullptr;
  return &*it;
}

const TreeEdge& RouteTree::parent_edge(MachineId machine) const {
  const TreeEdge* e = find(machine);
  DS_ASSERT(e != nullptr && e->from.valid());
  return *e;
}

const TreeEdge& RouteTree::first_hop(MachineId dest) const {
  DS_ASSERT(reached(dest));
  DS_ASSERT(has_parent(dest));
  MachineId cursor = dest;
  while (has_parent(parent_edge(cursor).from)) {
    cursor = parent_edge(cursor).from;
  }
  return parent_edge(cursor);
}

std::vector<TreeEdge> RouteTree::path_to(MachineId dest) const {
  std::vector<TreeEdge> path;
  path_to_into(dest, path);
  return path;
}

void RouteTree::path_to_into(MachineId dest, std::vector<TreeEdge>& out) const {
  DS_ASSERT(reached(dest));
  out.clear();
  MachineId cursor = dest;
  while (has_parent(cursor)) {
    out.push_back(parent_edge(cursor));
    cursor = parent_edge(cursor).from;
  }
  std::reverse(out.begin(), out.end());
}

void RouteTree::append(MachineId machine, SimTime arrival, bool has_parent,
                       const TreeEdge& edge) {
  DS_ASSERT_MSG(entries_.empty() || entries_.back().to < machine,
                "RouteTree entries must be appended in ascending machine order");
  if (has_parent) {
    DS_ASSERT(edge.from.valid() && edge.to == machine && edge.arrival == arrival);
    entries_.push_back(edge);
  } else {
    entries_.push_back(TreeEdge{MachineId::invalid(), machine, VirtLinkId::invalid(),
                                SimTime::zero(), arrival});
  }
}

}  // namespace datastage
