// Stage-1 quick admission: the alone-in-the-system estimate must be a safe
// relaxation (never infeasible for a satisfiable request) and the new-item
// storage fit must charge existing copies.
#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace datastage {
namespace {

using testing::ScenarioBuilder;
using testing::at_min;
using testing::at_sec;
using testing::chain_scenario;

const PriorityWeighting& weighting() {
  static const PriorityWeighting w = PriorityWeighting::w_1_10_100();
  return w;
}

/// The per-machine timelines charged by `scenario`'s source copies, as a
/// residual world holds them.
std::vector<StorageTimeline> source_storage(const Scenario& scenario) {
  const NetworkState state(scenario);
  std::vector<StorageTimeline> storage;
  for (std::size_t m = 0; m < scenario.machine_count(); ++m) {
    storage.push_back(state.storage(MachineId(static_cast<std::int32_t>(m))));
  }
  return storage;
}

TEST(QuickAdmissionTest, FeasibleChainRequestWithArrivalBound) {
  const Scenario scenario = chain_scenario();
  const QuickEstimate estimate = quick_admission_estimate(
      scenario, "d0", Request{MachineId(2), at_min(30), kPriorityHigh},
      weighting());
  EXPECT_TRUE(estimate.feasible);
  // Two 1 s hops: the bound is ~2 s, certainly within [1 s, 30 min].
  EXPECT_GE(estimate.earliest_arrival, at_sec(1));
  EXPECT_LE(estimate.earliest_arrival, at_min(30));
  EXPECT_EQ(estimate.value, 100.0);
}

TEST(QuickAdmissionTest, DeadlineBeforeArrivalIsInfeasible) {
  const Scenario scenario = chain_scenario();
  const QuickEstimate estimate = quick_admission_estimate(
      scenario, "d0", Request{MachineId(2), SimTime::from_usec(1000)},
      weighting());
  EXPECT_FALSE(estimate.feasible);
  EXPECT_TRUE(estimate.earliest_arrival.is_infinite());
  // The at-stake weight is reported either way (default priority is low).
  EXPECT_EQ(estimate.value, 1.0);
}

TEST(QuickAdmissionTest, UnknownItemIsInfeasible) {
  const QuickEstimate estimate = quick_admission_estimate(
      chain_scenario(), "missing", Request{MachineId(2), at_min(30)},
      weighting());
  EXPECT_FALSE(estimate.feasible);
}

TEST(QuickAdmissionTest, ItemWithNoSurvivingCopiesIsInfeasible) {
  Scenario scenario = chain_scenario();
  scenario.items[0].sources.clear();
  const QuickEstimate estimate = quick_admission_estimate(
      scenario, "d0", Request{MachineId(2), at_min(30)}, weighting());
  EXPECT_FALSE(estimate.feasible);
}

TEST(QuickAdmissionTest, DestinationHoldingACopyArrivesImmediately) {
  Scenario scenario = chain_scenario();
  scenario.items[0].sources.push_back(
      SourceLocation{MachineId(2), SimTime::zero()});
  const QuickEstimate estimate = quick_admission_estimate(
      scenario, "d0", Request{MachineId(2), at_min(30)}, weighting());
  EXPECT_TRUE(estimate.feasible);
  EXPECT_EQ(estimate.earliest_arrival, SimTime::zero());
}

TEST(QuickAdmissionTest, QuickInfeasibleMeansTheReplanMissesTheDeadline) {
  // Small congested cases served as perfbench's serve_congested serves them:
  // half of each item's requests start the stager, the rest arrive online at
  // seeded instants in the first half of the time to their deadline. Every
  // quick reject must be a request the full replan cannot meet either.
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = 8;
  config.min_requests_per_machine = config.max_requests_per_machine = 10;
  EngineOptions options;
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  std::size_t quick_rejects = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Scenario batch = generate_scenario(config, rng);
    const std::vector<testing::OnlineRequest> submits = testing::split_online(batch, rng);

    DynamicStager stager(batch, {HeuristicKind::kFullOne, CostCriterion::kC4}, options);
    for (const testing::OnlineRequest& submit : submits) {
      stager.advance_to(submit.at);
      const MachineId dest = submit.request.destination;
      // Data already headed there is not requested again (a client skips it).
      if (!stager.planned_arrival(submit.item, dest).is_infinite()) continue;
      const QuickEstimate quick = quick_admission_estimate(
          stager.residual_scenario(), submit.item, submit.request, weighting());
      stager.on_event({submit.at, NewRequestEvent{submit.item, submit.request}});
      const DynamicRequestStatus status = stager.request_status(submit.item, dest);
      const bool met = status == DynamicRequestStatus::kSatisfied ||
                       (status == DynamicRequestStatus::kPending &&
                        stager.planned_arrival(submit.item, dest) <= submit.request.deadline);
      if (!quick.feasible) {
        ++quick_rejects;
        EXPECT_FALSE(met) << "seed " << seed << ": quick-rejected " << submit.item << " at "
                          << submit.at.usec() << " is met by the replan";
      }
      if (status == DynamicRequestStatus::kPending && !met) {
        stager.on_event({submit.at, CancelRequestEvent{submit.item, dest}});
      }
    }
  }
  EXPECT_GT(quick_rejects, 0u);
}

TEST(NewItemFitTest, ChargesExistingCopiesOnTheSourceMachine) {
  // 3 MB capacity at M0, 1 MB chain item already there: a 1.5 MB new item
  // fits, a 2.5 MB one does not.
  Scenario scenario = chain_scenario();
  scenario.machines[0].capacity_bytes = 3'000'000;

  DataItem fits;
  fits.name = "n1";
  fits.size_bytes = 1'500'000;
  fits.sources.push_back(SourceLocation{MachineId(0), SimTime::zero()});
  EXPECT_TRUE(new_item_sources_fit(source_storage(scenario), fits));

  DataItem too_big = fits;
  too_big.size_bytes = 2'500'000;
  EXPECT_FALSE(new_item_sources_fit(source_storage(scenario), too_big));
}

TEST(NewItemFitTest, EachSourceMachineCheckedIndependently) {
  Scenario scenario = chain_scenario();
  scenario.machines[1].capacity_bytes = 1'000;  // M1 is tiny and empty

  DataItem item;
  item.name = "n1";
  item.size_bytes = 10'000;
  item.sources.push_back(SourceLocation{MachineId(0), SimTime::zero()});
  item.sources.push_back(SourceLocation{MachineId(1), SimTime::zero()});
  EXPECT_FALSE(new_item_sources_fit(source_storage(scenario), item))
      << "one overfull source machine sinks the whole payload";

  item.sources.pop_back();
  EXPECT_TRUE(new_item_sources_fit(source_storage(scenario), item));
}

}  // namespace
}  // namespace datastage
