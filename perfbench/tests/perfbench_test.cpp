// Tests of the benchmark's own logic: percentiles and the ten-beyond rule,
// digests, span self time, and determinism of smoke-sized runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnKnownSample) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(samples, 50.0), 50.0);
  EXPECT_EQ(percentile(samples, 90.0), 90.0);
  EXPECT_EQ(percentile(samples, 99.0), 99.0);
  EXPECT_EQ(percentile(samples, 100.0), 100.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  const double ladder[] = {99.0, 90.0};
  EXPECT_EQ(highest_supported_percentile(1000, ladder), 99.0);
  EXPECT_EQ(highest_supported_percentile(999, ladder), 90.0);
  EXPECT_EQ(highest_supported_percentile(100, ladder), 90.0);
  EXPECT_FALSE(highest_supported_percentile(99, ladder).has_value());
  EXPECT_FALSE(highest_supported_percentile(0, ladder).has_value());
}

TEST(Digest, DependsOnOrderAndContent) {
  Digest a;
  Digest b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(1);
  EXPECT_NE(a.value(), b.value());
  Digest c;
  c.add(1);
  c.add(2);
  EXPECT_EQ(a.hex(), c.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  const std::int32_t outer = tracer.open("outer");
  const std::int32_t inner = tracer.open("inner");
  const std::int64_t until = datastage::steady_clock_nanos() + 2'000'000;
  while (datastage::steady_clock_nanos() < until) {
  }
  tracer.close(inner);
  tracer.close(outer);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals.at("inner").calls, 1u);
  EXPECT_GE(totals.at("inner").total_ns, 2'000'000);
  EXPECT_EQ(totals.at("outer").self_ns,
            totals.at("outer").total_ns - totals.at("inner").total_ns);
  EXPECT_EQ(tracer.spans()[1].parent, 0);

  Tracer off(false);
  EXPECT_EQ(off.open("x"), -1);
  EXPECT_TRUE(off.spans().empty());
}

RunResult smoke(const std::string& workload, bool trace) {
  RunOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 1.0;
  options.trace = trace;
  options.smoke = true;
  return run_workload(options);
}

class SmokeRun : public ::testing::TestWithParam<const char*> {};

TEST_P(SmokeRun, BackToBackRunsAreIdentical) {
  const std::int64_t t0 = datastage::steady_clock_nanos();
  const RunResult first = smoke(GetParam(), false);
  const RunResult second = smoke(GetParam(), false);
  EXPECT_LT(datastage::steady_clock_nanos() - t0, 30'000'000'000);  // seconds, not minutes
  EXPECT_TRUE(first.correct());
  EXPECT_TRUE(second.correct());
  EXPECT_EQ(first.deterministic, second.deterministic);
  EXPECT_EQ(first.metric("value_frac"), second.metric("value_frac"));
  EXPECT_EQ(first.metrics.size(), 6u);

  const RunResult traced = smoke(GetParam(), true);
  const RunResult traced_again = smoke(GetParam(), true);
  EXPECT_TRUE(traced.correct());
  EXPECT_EQ(traced.deterministic, traced_again.deterministic);
  for (const char* name : {"engine.iterations", "core.apply.calls", "routing.tree.calls",
                           "dynamic.replans", "serve.quick_reject_frac"}) {
    EXPECT_EQ(traced.metric(name), traced_again.metric(name)) << name;
  }
  // The traced run reaches the same outputs as the untraced one.
  for (const auto& [name, value] : first.deterministic) {
    EXPECT_EQ(traced.figure(name), value) << name;
  }
  EXPECT_EQ(traced.metrics.size(), 28u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun,
                         ::testing::Values("paper_grid", "scale_huge_shape",
                                           "serve_congested"));

TEST(Smoke, BatchWorkloadsBypassServing) {
  for (const char* workload : {"paper_grid", "scale_huge_shape"}) {
    const RunResult traced = smoke(workload, true);
    EXPECT_EQ(traced.metric("dynamic.replans"), 0.0) << workload;
    EXPECT_EQ(traced.metric("dynamic.replan.ms"), 0.0) << workload;
    EXPECT_EQ(traced.metric("serve.quick_estimate.us"), 0.0) << workload;
    EXPECT_GT(traced.metric("core.best_candidate.calls"), 0.0) << workload;
  }
  const RunResult serve = smoke("serve_congested", true);
  EXPECT_GT(serve.metric("dynamic.replans"), 0.0);
  EXPECT_GT(serve.metric("serve.quick_estimate.us"), 0.0);
}

TEST(Smoke, UnknownWorkloadThrows) {
  EXPECT_THROW(smoke("nope", false), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
