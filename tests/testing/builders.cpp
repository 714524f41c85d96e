#include "testing/builders.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace datastage::testing {

ScenarioBuilder::ScenarioBuilder() {
  scenario_.horizon = at_min(120);
  scenario_.gc_gamma = SimDuration::minutes(6);
}

ScenarioBuilder& ScenarioBuilder::machine(std::int64_t capacity_bytes) {
  Machine m;
  m.name = "M" + std::to_string(scenario_.machines.size());
  m.capacity_bytes = capacity_bytes;
  scenario_.machines.push_back(std::move(m));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::link(std::int32_t from, std::int32_t to,
                                       std::int64_t bandwidth_bps, Interval window,
                                       SimDuration latency) {
  PhysicalLink pl;
  pl.from = MachineId(from);
  pl.to = MachineId(to);
  pl.bandwidth_bps = bandwidth_bps;
  pl.latency = latency;
  scenario_.phys_links.push_back(pl);
  return this->window(window);
}

ScenarioBuilder& ScenarioBuilder::window(Interval window) {
  DS_ASSERT_MSG(!scenario_.phys_links.empty(), "window() before link()");
  const auto p = static_cast<std::int32_t>(scenario_.phys_links.size() - 1);
  const PhysicalLink& pl = scenario_.phys_links.back();
  scenario_.virt_links.push_back(VirtualLink{PhysLinkId(p), pl.bandwidth_bps, window});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::item(std::int64_t size_bytes) {
  DataItem item;
  item.name = "d" + std::to_string(scenario_.items.size());
  item.size_bytes = size_bytes;
  scenario_.items.push_back(std::move(item));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::source(std::int32_t machine, SimTime available_at,
                                         SimTime hold_until) {
  DS_ASSERT_MSG(!scenario_.items.empty(), "source() before item()");
  scenario_.items.back().sources.push_back(
      SourceLocation{MachineId(machine), available_at, hold_until});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::request(std::int32_t machine, SimTime deadline,
                                          Priority priority) {
  DS_ASSERT_MSG(!scenario_.items.empty(), "request() before item()");
  scenario_.items.back().requests.push_back(
      Request{MachineId(machine), deadline, priority});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::horizon(SimTime horizon) {
  scenario_.horizon = horizon;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::gamma(SimDuration gamma) {
  scenario_.gc_gamma = gamma;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  scenario_.check_valid();
  return scenario_;
}

Scenario chain_scenario() {
  const Interval always{SimTime::zero(), at_min(120)};
  return ScenarioBuilder()
      .machine(1 << 30)  // A
      .machine(1 << 30)  // B
      .machine(1 << 30)  // C
      .link(0, 1, 8'000'000, always)
      .link(1, 2, 8'000'000, always)
      .item(1'000'000)
      .source(0, SimTime::zero())
      .request(2, at_min(30), kPriorityHigh)
      .build();
}

std::vector<OnlineRequest> split_online(Scenario& batch, Rng& rng) {
  std::vector<OnlineRequest> online;
  for (DataItem& item : batch.items) {
    const std::size_t keep =
        item.requests.size() <= 1 ? item.requests.size() : item.requests.size() / 2;
    for (std::size_t r = keep; r < item.requests.size(); ++r) {
      const Request& request = item.requests[r];
      online.push_back({SimTime::from_usec(rng.uniform_i64(0, request.deadline.usec() / 2)),
                        item.name, request});
    }
    item.requests.resize(keep);
  }
  std::stable_sort(online.begin(), online.end(),
                   [](const OnlineRequest& a, const OnlineRequest& b) { return a.at < b.at; });
  return online;
}

}  // namespace datastage::testing
