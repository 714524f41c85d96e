// A replanning stager replays its previous replan's route trees (the engine
// verifies them instead of re-running Dijkstra). Property: on generated
// congested event streams with outages, restores, withdrawals and a new
// item, the stager's plan after every event equals the plan of a paranoid
// stager (no cache, no repair, no replay) fed the same events, with the
// replaying stager's refresh serial or parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/schedule_io.hpp"
#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

constexpr SchedulerSpec kFullOneC4{HeuristicKind::kFullOne, CostCriterion::kC4};

EngineOptions c4_options(bool paranoid) {
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.paranoid = paranoid;
  return options;
}

struct OnlineRequest {
  SimTime at;
  std::string item;
  Request request;
};

/// The serve_congested split: the first half of each item's requests stays
/// in the batch, the rest arrives at seeded instants in the first half of
/// its time to deadline.
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

std::string plan_string(const DynamicStager& stager) {
  std::string out;
  for (const CommStep& step : stager.planned_steps()) {
    out += std::to_string(step.item.value()) + " " + std::to_string(step.from.value()) +
           "->" + std::to_string(step.to.value()) + " l" + std::to_string(step.link.value()) +
           " " + std::to_string(step.start.usec()) + " " +
           std::to_string(step.arrival.usec()) + "\n";
  }
  return out;
}

TEST(StagerReplayTest, PlanEqualsParanoidAfterEveryEventOnCongestedStreams) {
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 8;

  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  std::size_t events = 0;
  std::size_t restores = 0;
  std::size_t withdrawals = 0;
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL, 34ULL}) {
    Scenario batch = generate_cases(config, seed, 1).front();
    Rng rng(seed * 7919);
    const std::vector<OnlineRequest> online = split_online(batch, rng);

    EngineOptions live_options = c4_options(false);
    live_options.observer = &observer;
    // Replay reads and writes plan-local state only: the parallel refresh
    // must give the same plans.
    live_options.engine_jobs = seed % 2 == 0 ? 1 : 2;
    DynamicStager live(batch, kFullOneC4, live_options);
    DynamicStager oracle(batch, kFullOneC4, c4_options(true));
    std::vector<PhysLinkId> down;

    const auto feed = [&](const StagingEvent& event) {
      live.on_event(event);
      oracle.on_event(event);
      ++events;
      ASSERT_EQ(plan_string(live), plan_string(oracle))
          << "seed " << seed << ", event " << events << " at " << event.at.usec();
      ASSERT_EQ(live.committed_step_count(), oracle.committed_step_count());
    };

    for (std::size_t i = 0; i < online.size(); ++i) {
      const OnlineRequest& next = online[i];
      // Outages and restores between submits: availability grows back on a
      // restore, which turns replay off for that replan.
      if (rng.uniform_i64(0, 9) == 0) {
        const PhysLinkId link(static_cast<std::int32_t>(
            rng.uniform_i64(0, static_cast<std::int64_t>(batch.phys_links.size()) - 1)));
        if (std::find(down.begin(), down.end(), link) == down.end()) {
          feed({next.at, LinkOutageEvent{link}});
          down.push_back(link);
        }
      } else if (!down.empty() && rng.uniform_i64(0, 3) == 0) {
        feed({next.at, LinkRestoreEvent{down.front()}});
        down.erase(down.begin());
        ++restores;
      }
      if (i == online.size() / 2) {
        // A new item mid-stream, requested at once.
        DataItem item;
        item.name = "adhoc_" + std::to_string(seed);
        item.size_bytes = batch.items.front().size_bytes;
        item.sources.push_back(SourceLocation{MachineId(0), next.at});
        feed({next.at, NewItemEvent{item}});
        feed({next.at, NewRequestEvent{item.name, Request(MachineId(1), next.request.deadline,
                                                          kPriorityHigh)}});
      }
      feed({next.at, NewRequestEvent{next.item, next.request}});
      // A request the replan cannot serve in time is withdrawn at once, as
      // SchedulerService does on a full reject.
      if (live.request_status(next.item, next.request.destination) ==
              DynamicRequestStatus::kPending &&
          live.planned_arrival(next.item, next.request.destination) > next.request.deadline) {
        feed({next.at, CancelRequestEvent{next.item, next.request.destination}});
        ++withdrawals;
      }
    }
    const DynamicResult a = live.finish();
    const DynamicResult b = oracle.finish();
    EXPECT_EQ(schedule_to_string(a.schedule), schedule_to_string(b.schedule)) << seed;
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t r = 0; r < a.requests.size(); ++r) {
      EXPECT_EQ(a.requests[r].satisfied, b.requests[r].satisfied) << seed << " " << r;
      EXPECT_EQ(a.requests[r].arrival, b.requests[r].arrival) << seed << " " << r;
    }
  }
  // The stream exercised what it claims to.
  EXPECT_GT(events, 100u);
  EXPECT_GT(restores, 0u);
  EXPECT_GT(withdrawals, 0u);
  const auto& counters = registry.counters();
  EXPECT_GT(counters.at("engine.tree_replays"), 0u);
  EXPECT_GT(counters.at("engine.replay_misses_links_grew"), 0u);
  EXPECT_GT(counters.at("engine.replay_misses_diverged"), 0u);
}

}  // namespace
}  // namespace datastage
