#include "net/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage {

Topology::Topology(const Scenario& scenario) {
  const std::size_t n = scenario.machine_count();
  const std::size_t links = scenario.virt_links.size();
  DS_ASSERT(links <= UINT32_MAX);

  // One flat sort of (sender, receiver, window begin, link id) keys, then a
  // single pass lays out the edges and cuts a group at each new receiver.
  struct Key {
    std::int32_t from;
    std::int32_t to;
    SimTime begin;
    std::int32_t link;
    auto operator<=>(const Key&) const = default;
  };
  std::vector<Key> keys;
  keys.reserve(links);
  for (std::size_t v = 0; v < links; ++v) {
    const VirtualLink& vl = scenario.virt_links[v];
    const PhysicalLink& pl = scenario.plink(vl.phys);
    keys.push_back({pl.from.value(), pl.to.value(), vl.window.begin,
                    static_cast<std::int32_t>(v)});
  }
  std::sort(keys.begin(), keys.end());

  edges_.reserve(links);
  group_start_.assign(n + 1, 0);
  for (const Key& key : keys) {
    const VirtualLink& vl = scenario.virt_links[static_cast<std::size_t>(key.link)];
    const auto at = static_cast<std::uint32_t>(edges_.size());
    if (at == 0 || keys[at - 1].from != key.from || keys[at - 1].to != key.to) {
      if (!groups_.empty()) groups_.back().end = at;
      groups_.push_back({MachineId(key.to), at, at});
      ++group_start_[static_cast<std::size_t>(key.from) + 1];
    }
    edges_.push_back({vl.window, vl.bandwidth_bps, scenario.plink(vl.phys).latency,
                      VirtLinkId(key.link)});
  }
  if (!groups_.empty()) groups_.back().end = static_cast<std::uint32_t>(edges_.size());
  for (std::size_t m = 0; m < n; ++m) group_start_[m + 1] += group_start_[m];

  // Distinct-neighbor out-degrees: sort all (from, to) pairs once and count
  // unique destinations per source in a single pass — no per-machine
  // allocations, no red-black trees.
  out_degree_.assign(n, 0);
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  pairs.reserve(scenario.phys_links.size());
  for (const PhysicalLink& pl : scenario.phys_links) {
    pairs.emplace_back(pl.from.value(), pl.to.value());
  }
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i] != pairs[i - 1]) {
      ++out_degree_[static_cast<std::size_t>(pairs[i].first)];
    }
  }
}

bool strongly_connected(const Scenario& scenario) {
  const std::size_t n = scenario.machine_count();
  if (n == 0) return false;
  if (n == 1) return true;

  // Physical adjacency (forward and reverse).
  std::vector<std::vector<std::int32_t>> fwd(n);
  std::vector<std::vector<std::int32_t>> rev(n);
  for (const PhysicalLink& pl : scenario.phys_links) {
    fwd[pl.from.index()].push_back(pl.to.value());
    rev[pl.to.index()].push_back(pl.from.value());
  }

  auto reaches_all = [n](const std::vector<std::vector<std::int32_t>>& adj) {
    std::vector<bool> seen(n, false);
    std::vector<std::int32_t> stack{0};
    seen[0] = true;
    std::size_t count = 1;
    while (!stack.empty()) {
      const auto u = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      for (std::int32_t w : adj[u]) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          ++count;
          stack.push_back(w);
        }
      }
    }
    return count == n;
  };

  return reaches_all(fwd) && reaches_all(rev);
}

}  // namespace datastage
