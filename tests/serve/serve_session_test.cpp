// ServeSession: one request line in, one response line out. Covers the
// session-level error codes, the id ledger, query status transitions and
// the replay-determinism contract.
#include "serve/serve_session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "testing/builders.hpp"

namespace datastage {
namespace {

using testing::at_sec;
using testing::chain_scenario;

ServeSession make_session() { return ServeSession(chain_scenario(), {}); }

obs::JsonValue parse(const std::string& line) {
  std::string error;
  const std::optional<obs::JsonValue> value = obs::json_parse(line, &error);
  EXPECT_TRUE(value.has_value()) << line << " -> " << error;
  return value.value_or(obs::JsonValue{});
}

std::string field(const obs::JsonValue& value, const char* key) {
  const obs::JsonValue* member = value.find(key);
  return member != nullptr ? member->string : "<missing>";
}

/// Response must be {"ok":false,"error":"<expected>",...}.
void expect_error(const std::string& line, const char* expected) {
  const obs::JsonValue value = parse(line);
  const obs::JsonValue* ok = value.find("ok");
  ASSERT_NE(ok, nullptr) << line;
  EXPECT_FALSE(ok->boolean) << line;
  EXPECT_EQ(field(value, "error"), expected) << line;
}

void expect_ok(const std::string& line) {
  const obs::JsonValue value = parse(line);
  const obs::JsonValue* ok = value.find("ok");
  ASSERT_NE(ok, nullptr) << line;
  EXPECT_TRUE(ok->boolean) << line;
}

std::string submit_line(const std::string& id, std::int64_t t_usec,
                        const std::string& item, const std::string& dest,
                        std::int64_t deadline_usec) {
  return "{\"v\":1,\"cmd\":\"submit\",\"id\":\"" + id +
         "\",\"t_usec\":" + std::to_string(t_usec) + ",\"item\":\"" + item +
         "\",\"dest\":\"" + dest +
         "\",\"deadline_usec\":" + std::to_string(deadline_usec) +
         ",\"priority\":2}";
}

TEST(ServeSessionTest, SubmitAdmitQueryLifecycle) {
  ServeSession session = make_session();
  const std::string response =
      session.handle_line(submit_line("r1", 0, "d0", "M1", at_sec(600).usec()));
  expect_ok(response);
  const obs::JsonValue value = parse(response);
  EXPECT_EQ(field(value, "outcome"), "admitted");
  EXPECT_NE(value.find("planned_arrival_usec"), nullptr);
  EXPECT_NE(value.find("committed_value"), nullptr);

  // Outstanding, then satisfied once time passes the planned arrival.
  std::string query = "{\"v\":1,\"cmd\":\"query\",\"id\":\"r1\"}";
  EXPECT_EQ(field(parse(session.handle_line(query)), "status"), "pending");
  expect_ok(session.handle_line(
      "{\"v\":1,\"cmd\":\"advance\",\"to_usec\":" +
      std::to_string(at_sec(30).usec()) + "}"));
  EXPECT_EQ(field(parse(session.handle_line(query)), "status"), "satisfied");
}

TEST(ServeSessionTest, RejectedSubmitQueriesAsRejected) {
  ServeSession session = make_session();
  // (M2 already has the batch request outstanding; M1 is a free slot.)
  const std::string response =
      session.handle_line(submit_line("r1", 0, "d0", "M1", 1));
  const obs::JsonValue value = parse(response);
  EXPECT_EQ(field(value, "outcome"), "quick_reject");
  EXPECT_EQ(field(parse(session.handle_line(
                "{\"v\":1,\"cmd\":\"query\",\"id\":\"r1\"}")),
                "status"),
            "rejected");
}

TEST(ServeSessionTest, SessionErrorCodes) {
  ServeSession session = make_session();
  expect_ok(session.handle_line(submit_line("r1", 0, "d0", "M1",
                                            at_sec(600).usec())));

  // duplicate_id: the same client id cannot be submitted twice.
  expect_error(session.handle_line(submit_line("r1", 0, "d0", "M2",
                                               at_sec(600).usec())),
               "duplicate_id");
  // duplicate_request: another id for the same outstanding (item, dest).
  expect_error(session.handle_line(submit_line("r2", 0, "d0", "M1",
                                               at_sec(900).usec())),
               "duplicate_request");
  // unknown_item / unknown_machine.
  expect_error(session.handle_line(submit_line("r3", 0, "zzz", "M1",
                                               at_sec(600).usec())),
               "unknown_item");
  expect_error(session.handle_line(submit_line("r4", 0, "d0", "nowhere",
                                               at_sec(600).usec())),
               "unknown_machine");
  // unknown_id on cancel and query.
  expect_error(session.handle_line(
                   "{\"v\":1,\"cmd\":\"cancel\",\"id\":\"ghost\",\"t_usec\":0}"),
               "unknown_id");
  expect_error(
      session.handle_line("{\"v\":1,\"cmd\":\"query\",\"id\":\"ghost\"}"),
      "unknown_id");
}

TEST(ServeSessionTest, TimeRegressionIsRejectedEverywhere) {
  ServeSession session = make_session();
  expect_ok(session.handle_line(
      "{\"v\":1,\"cmd\":\"advance\",\"to_usec\":" +
      std::to_string(at_sec(100).usec()) + "}"));

  expect_error(session.handle_line(submit_line("r1", at_sec(50).usec(), "d0",
                                               "M1", at_sec(600).usec())),
               "time_regression");
  expect_error(session.handle_line("{\"v\":1,\"cmd\":\"advance\",\"to_usec\":0}"),
               "time_regression");
  // Cancel in the past (the id must exist first).
  expect_ok(session.handle_line(submit_line("r1", at_sec(100).usec(), "d0",
                                            "M1", at_sec(600).usec())));
  expect_error(session.handle_line(
                   "{\"v\":1,\"cmd\":\"cancel\",\"id\":\"r1\",\"t_usec\":0}"),
               "time_regression");
}

TEST(ServeSessionTest, NewItemSubmitAndInvalidItemErrors) {
  ServeSession session = make_session();
  const std::string new_item_tail =
      ",\"new_item\":{\"size_bytes\":1000,\"sources\":"
      "[{\"machine\":\"M0\",\"available_at_usec\":0}]}}";
  const std::string base =
      "{\"v\":1,\"cmd\":\"submit\",\"id\":\"%ID%\",\"t_usec\":0,"
      "\"item\":\"%ITEM%\",\"dest\":\"M2\",\"deadline_usec\":" +
      std::to_string(at_sec(600).usec()) + ",\"priority\":2";
  const auto line = [&](const std::string& id, const std::string& item,
                        const std::string& tail) {
    std::string s = base;
    s.replace(s.find("%ID%"), 4, id);
    s.replace(s.find("%ITEM%"), 6, item);
    return s + tail;
  };

  // Happy path: the new item is introduced and the request admitted.
  const obs::JsonValue ok = parse(session.handle_line(
      line("n1", "fresh", new_item_tail)));
  EXPECT_EQ(field(ok, "outcome"), "admitted");

  // invalid_item: redefining an existing item.
  expect_error(session.handle_line(line("n2", "d0", new_item_tail)),
               "invalid_item");
  // unknown_machine inside the payload.
  expect_error(session.handle_line(
                   line("n3", "fresh2",
                        ",\"new_item\":{\"size_bytes\":1000,\"sources\":"
                        "[{\"machine\":\"nope\",\"available_at_usec\":0}]}}")),
               "unknown_machine");
  // invalid_item: larger than the source machine's storage.
  expect_error(session.handle_line(
                   line("n4", "huge",
                        ",\"new_item\":{\"size_bytes\":9000000000,"
                        "\"sources\":"
                        "[{\"machine\":\"M0\",\"available_at_usec\":0}]}}")),
               "invalid_item");
  // invalid_item: one source machine named twice.
  expect_error(session.handle_line(
                   line("n5", "twice",
                        ",\"new_item\":{\"size_bytes\":1000,\"sources\":"
                        "[{\"machine\":\"M0\",\"available_at_usec\":0},"
                        "{\"machine\":\"M0\",\"available_at_usec\":5}]}}")),
               "invalid_item");
}

TEST(ServeSessionTest, NewItemFitIsCheckedAtTheSubmitInstant) {
  // M1 holds 1.5 MB, and d0 (1 MB) lands there for good at 1 s. A 1 MB new
  // item sourced at M1 fits at time 0 but not at 10 s, when it is submitted.
  const Scenario scenario = testing::ScenarioBuilder()
                                .machine(1 << 30)
                                .machine(1'500'000)
                                .link(0, 1, 8'000'000, {SimTime::zero(), testing::at_min(120)})
                                .item(1'000'000)
                                .source(0, SimTime::zero())
                                .request(1, testing::at_min(30))
                                .build();
  for (const bool quick : {true, false}) {
    ServiceOptions options;
    options.quick_admission = quick;
    ServeSession session(scenario, options);
    expect_error(session.handle_line(
                     "{\"v\":1,\"cmd\":\"submit\",\"id\":\"n1\",\"t_usec\":10000000,"
                     "\"item\":\"fresh\",\"dest\":\"M0\",\"deadline_usec\":600000000,"
                     "\"priority\":2,\"new_item\":{\"size_bytes\":1000000,\"sources\":"
                     "[{\"machine\":\"M1\",\"available_at_usec\":0}]}}"),
                 "invalid_item");
    // Like a no-op cancel, the reply leaves the clock at the submit's instant.
    const obs::JsonValue stats = parse(session.handle_line("{\"v\":1,\"cmd\":\"stats\"}"));
    EXPECT_EQ(stats.find("now_usec")->number, 10'000'000.0) << "quick " << quick;
  }
}

TEST(ServeSessionTest, CancelFreesSlotAndKeepsOldIdAnswerable) {
  ServeSession session = make_session();
  expect_ok(session.handle_line(submit_line("r1", 0, "d0", "M1",
                                            at_sec(600).usec())));
  // Cancel at the submit instant, before the serving transfer starts (a
  // started transfer is committed and resolves on arrival instead).
  const obs::JsonValue cancel = parse(session.handle_line(
      "{\"v\":1,\"cmd\":\"cancel\",\"id\":\"r1\",\"t_usec\":0}"));
  EXPECT_TRUE(cancel.find("cancelled")->boolean);

  // Cancelling again is a no-op (already resolved), but still answers ok.
  const obs::JsonValue again = parse(session.handle_line(
      "{\"v\":1,\"cmd\":\"cancel\",\"id\":\"r1\",\"t_usec\":2000000}"));
  EXPECT_FALSE(again.find("cancelled")->boolean);
  EXPECT_EQ(again.find("now_usec")->number, 2000000.0)
      << "a no-op cancel still advances the clock";

  // The slot is free: a new id may claim the same (item, dest) pair. By
  // t=3 the batch d0->M2 transfer has relayed a copy through M1, so r2 is
  // satisfied immediately...
  expect_ok(session.handle_line(submit_line("r2", 3000000, "d0", "M1",
                                            at_sec(600).usec())));
  EXPECT_EQ(field(parse(session.handle_line(
                "{\"v\":1,\"cmd\":\"query\",\"id\":\"r2\"}")),
                "status"),
            "satisfied");
  // ...and the old id keeps answering with its own outcome.
  EXPECT_EQ(field(parse(session.handle_line(
                "{\"v\":1,\"cmd\":\"query\",\"id\":\"r1\"}")),
                "status"),
            "cancelled");
  // The committed value counts the batch request and r2, not r1 as well,
  // and is what the run delivers.
  const obs::JsonValue stats = parse(session.handle_line("{\"v\":1,\"cmd\":\"stats\"}"));
  EXPECT_EQ(stats.find("committed_value")->number, 200.0);
  const obs::JsonValue summary = parse(session.handle_line("{\"v\":1,\"cmd\":\"shutdown\"}"));
  EXPECT_EQ(summary.find("value")->number, 200.0);
}

TEST(ServeSessionTest, ShutdownLatchesAndSummarizes) {
  ServeSession session = make_session();
  const obs::JsonValue summary =
      parse(session.handle_line("{\"v\":1,\"cmd\":\"shutdown\"}"));
  EXPECT_EQ(summary.find("requests")->number, 1.0);
  EXPECT_EQ(summary.find("satisfied")->number, 1.0);
  EXPECT_EQ(summary.find("value")->number, 100.0);
  EXPECT_TRUE(session.shut_down());

  expect_error(session.handle_line("{\"v\":1,\"cmd\":\"stats\"}"), "shutdown");
  expect_error(session.handle_line(submit_line("r1", 0, "d0", "M1", 1)),
               "shutdown");
}

TEST(ServeSessionTest, MalformedLineGetsProtocolError) {
  ServeSession session = make_session();
  expect_error(session.handle_line("{broken"), "bad_json");
  expect_error(session.handle_line("{\"v\":9,\"cmd\":\"stats\"}"),
               "bad_version");
  // Protocol errors do not latch or advance anything.
  expect_ok(session.handle_line("{\"v\":1,\"cmd\":\"stats\"}"));
}

/// A submit of a new 4 KB item held at M0 from 100 s, wanted at M2 by 600 s.
std::string new_item_line(const std::string& id, std::int64_t t_usec) {
  return "{\"v\":1,\"cmd\":\"submit\",\"id\":\"" + id + "\",\"t_usec\":" +
         std::to_string(t_usec) + ",\"item\":\"" + id +
         "\",\"dest\":\"M2\",\"deadline_usec\":" + std::to_string(at_sec(600).usec()) +
         ",\"priority\":2,\"new_item\":{\"size_bytes\":4096,\"sources\":[{\"machine\":"
         "\"M0\",\"available_at_usec\":" +
         std::to_string(at_sec(100).usec()) + "}]}}";
}

TEST(ServeSessionTest, StatsReportReplayCounts) {
  const std::string stats = "{\"v\":1,\"cmd\":\"stats\"}";
  const auto run = [&stats](bool paranoid) {
    ServiceOptions options;
    options.engine.paranoid = paranoid;
    ServeSession session(chain_scenario(), options);
    // Three replans on one engine: the second logs, the third replays the
    // trees of the items the submit left unchanged.
    for (int i = 0; i < 3; ++i) {
      expect_ok(session.handle_line(new_item_line("x" + std::to_string(i), at_sec(i).usec())));
    }
    return parse(session.handle_line(stats));
  };
  const char* reasons[] = {"links_grew",  "diverged",    "item_changed", "storage_rejected",
                           "hold_misfit", "verify_failed"};

  const obs::JsonValue counts = run(false);
  ASSERT_NE(counts.find("tree_replays"), nullptr);
  EXPECT_GT(counts.find("tree_replays")->number, 0.0);
  const obs::JsonValue* by_reason = counts.find("replay_misses_by_reason");
  ASSERT_NE(by_reason, nullptr);
  double sum = 0.0;
  for (const char* reason : reasons) {
    ASSERT_NE(by_reason->find(reason), nullptr) << reason;
    sum += by_reason->find(reason)->number;
  }
  EXPECT_EQ(counts.find("replay_misses")->number, sum);

  // Paranoid replans neither log nor replay.
  const obs::JsonValue oracle = run(true);
  EXPECT_EQ(oracle.find("tree_replays")->number, 0.0);
  EXPECT_EQ(oracle.find("replay_misses")->number, 0.0);
}

TEST(ServeSessionTest, StatsReportWorldCountsAndPhasesOnlyWithATimer) {
  const std::string stats = "{\"v\":1,\"cmd\":\"stats\"}";
  const std::string submit = submit_line("a", 0, "d0", "M1", at_sec(600).usec());

  // No phase timer: deterministic counts only.
  ServeSession plain = make_session();
  expect_ok(plain.handle_line(submit));
  const obs::JsonValue counts = parse(plain.handle_line(stats));
  for (const char* key : {"topology_builds", "residual_builds", "world_patches"}) {
    ASSERT_NE(counts.find(key), nullptr) << key;
  }
  // The constructor's plan built one world; the submit's quick check
  // reused it and its replan patched it with the request.
  EXPECT_EQ(counts.find("topology_builds")->number, 1.0);
  EXPECT_EQ(counts.find("residual_builds")->number, 1.0);
  EXPECT_EQ(counts.find("world_patches")->number, 1.0);
  EXPECT_EQ(counts.find("phase_seconds"), nullptr);

  // A phase timer attached: the serve phase split as well.
  obs::PhaseTimer phases;
  obs::RunObserver observer;
  observer.phases = &phases;
  ServiceOptions options;
  options.engine.observer = &observer;
  ServeSession timed(chain_scenario(), options);
  expect_ok(timed.handle_line(submit));
  const obs::JsonValue split = parse(timed.handle_line(stats));
  const obs::JsonValue* seconds = split.find("phase_seconds");
  ASSERT_NE(seconds, nullptr);
  for (const char* phase : kServePhases) {
    ASSERT_NE(seconds->find(phase), nullptr) << phase;
  }
  EXPECT_GT(seconds->find("dynamic.replan")->number, 0.0);
}

/// Every count of a snapshot with its `stats` key (a replay miss reason is a
/// key of `replay_misses_by_reason`) and its registry counter.
struct CountRecord {
  std::string stats_key;
  std::string counter;
  std::size_t value;
};

std::vector<CountRecord> count_records(const ServiceSnapshot& snap) {
  const AdmissionCounts& a = snap.admission;
  const DynamicCounts& d = snap.dynamic;
  std::vector<CountRecord> records = {
      {"submits", "admission.submits", a.submits},
      {"admitted", "admission.admitted", a.admitted},
      {"already_satisfied", "admission.already_satisfied", a.already_satisfied},
      {"quick_rejects", "admission.quick_rejects", a.quick_rejects},
      {"full_rejects", "admission.full_rejects", a.full_rejects},
      {"cancelled", "admission.cancelled", a.cancelled},
      {"replans", "dynamic.replans", d.replans},
      {"topology_builds", "dynamic.topology_builds", d.topology_builds},
      {"residual_builds", "dynamic.residual_builds", d.residual_builds},
      {"world_patches", "dynamic.world_patches", d.world_patches},
      {"withdrawals_kept_plan", "dynamic.withdrawals_kept_plan", d.withdrawals_kept_plan},
      {"gc_extensions_refused", "dynamic.gc_extensions_refused", d.gc_extensions_refused},
      {"shadow_refreshes", "engine.shadow_refreshes", d.engine.shadow_refreshes},
      {"tree_replays", "engine.tree_replays", d.engine.tree_replays},
      {"replay_misses", "engine.replay_misses", d.engine.total_misses()},
  };
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
    const std::string reason = replay_miss_name(static_cast<ReplayMiss>(r));
    records.push_back({reason, "engine.replay_misses_" + reason, d.engine.replay_misses[r]});
  }
  return records;
}

// The stream reaches every counted path on a five-machine world. d0 goes
// A -> M -> B by 250 s, its relay copy at M held to 310 s; d1 is stored at M
// from 400 s, which fills M; d2 (high priority) takes A -> D by 150 s.
// After every command each count reads the same in the snapshot, in the
// registry counter of its name and in the `stats` line.
TEST(ServeSessionTest, CountsAgreeInSnapshotRegistryAndStats) {
  constexpr std::int64_t kItemBytes = 100'000'000;  // 100 s over an 8 Mbit/s link
  const Interval always{SimTime::zero(), testing::at_min(120)};
  const Scenario world = testing::ScenarioBuilder()
                             .machine(1LL << 40)  // M0 = A
                             .machine(kItemBytes)  // M1 = M
                             .machine(1LL << 40)  // M2 = B
                             .machine(1LL << 40)  // M3 = C
                             .machine(1LL << 40)  // M4 = D
                             .link(0, 1, 8'000'000, always)
                             .link(1, 2, 8'000'000, always)
                             .link(2, 3, 8'000'000, always)
                             .link(0, 4, 8'000'000, always)
                             .item(kItemBytes)
                             .source(0, SimTime::zero())
                             .request(2, at_sec(250), kPriorityHigh)
                             .item(kItemBytes)
                             .source(1, at_sec(400))
                             .request(2, at_sec(1200), kPriorityLow)
                             .item(kItemBytes)
                             .source(0, SimTime::zero())
                             .request(4, at_sec(150), kPriorityHigh)
                             .gamma(SimDuration::seconds(60))
                             .build();
  const auto submit = [](const std::string& id, std::int64_t t_sec, const std::string& item,
                         const std::string& dest, std::int64_t deadline_usec, int priority) {
    return "{\"v\":1,\"cmd\":\"submit\",\"id\":\"" + id +
           "\",\"t_usec\":" + std::to_string(at_sec(t_sec).usec()) + ",\"item\":\"" +
           item + "\",\"dest\":\"" + dest +
           "\",\"deadline_usec\":" + std::to_string(deadline_usec) +
           ",\"priority\":" + std::to_string(priority) + "}";
  };
  const std::vector<std::pair<std::string, std::string>> script = {
      // d0 cannot reach C within 1 ms even alone.
      {submit("q", 0, "d0", "M3", 1000, 0), "quick_reject"},
      // A holds d0 from time zero.
      {submit("s", 0, "d0", "M0", at_sec(100).usec(), 0), "already_satisfied"},
      // Alone d0 reaches D at 100 s; in the plan d2 holds the link until
      // then. The replan never uses the request, so its withdrawal keeps
      // the plan and patches the world.
      {submit("f", 0, "d0", "M4", at_sec(150).usec(), 0), "full_reject"},
      // A later gc time for d1, which holds no relay yet: the world is
      // rebuilt.
      {submit("a", 0, "d1", "M3", at_sec(2000).usec(), 2), "admitted"},
      {"{\"v\":1,\"cmd\":\"cancel\",\"id\":\"a\",\"t_usec\":10000000}", ""},
      // Holding d0's relay at M until 1060 s would collide with d1 at 400 s:
      // refused at arrival, a full reject.
      {submit("g", 150, "d0", "M3", at_sec(1000).usec(), 0), "full_reject"},
      {"{\"v\":1,\"cmd\":\"advance\",\"to_usec\":600000000}", ""},
  };

  obs::MetricsRegistry registry;
  obs::RunObserver observer;
  observer.metrics = &registry;
  ServiceOptions options;
  options.engine.observer = &observer;
  ServeSession session(world, options);
  const auto expect_agreement = [&](const std::string& after) {
    const obs::JsonValue stats = parse(session.handle_line("{\"v\":1,\"cmd\":\"stats\"}"));
    const obs::JsonValue* by_reason = stats.find("replay_misses_by_reason");
    ASSERT_NE(by_reason, nullptr);
    for (const CountRecord& record : count_records(session.service().snapshot())) {
      const obs::JsonValue* in_stats = stats.find(record.stats_key);
      if (in_stats == nullptr) in_stats = by_reason->find(record.stats_key);
      ASSERT_NE(in_stats, nullptr) << record.stats_key;
      EXPECT_EQ(registry.counter_value(record.counter), record.value)
          << record.counter << " after " << after;
      EXPECT_EQ(in_stats->number, static_cast<double>(record.value))
          << record.stats_key << " after " << after;
    }
  };
  expect_agreement("the first plan");
  for (const auto& [line, outcome] : script) {
    const std::string response = session.handle_line(line);
    expect_ok(response);
    if (!outcome.empty()) {
      EXPECT_EQ(field(parse(response), "outcome"), outcome) << line;
    }
    expect_agreement(line);
  }

  // Every counted path was taken.
  const ServiceSnapshot snap = session.service().snapshot();
  EXPECT_EQ(snap.admission.submits, 5u);
  EXPECT_EQ(snap.admission.admitted, 2u);
  EXPECT_EQ(snap.admission.already_satisfied, 1u);
  EXPECT_EQ(snap.admission.quick_rejects, 1u);
  EXPECT_EQ(snap.admission.full_rejects, 2u);
  EXPECT_EQ(snap.admission.cancelled, 1u);
  EXPECT_EQ(snap.dynamic.withdrawals_kept_plan, 1u);
  EXPECT_EQ(snap.dynamic.gc_extensions_refused, 1u);
  EXPECT_GT(snap.dynamic.world_patches, 0u);
  EXPECT_GT(snap.dynamic.residual_builds, 1u);
  EXPECT_GT(snap.dynamic.topology_builds, 1u);
  EXPECT_GT(snap.dynamic.engine.shadow_refreshes, 0u);
  EXPECT_GT(snap.dynamic.engine.tree_replays + snap.dynamic.engine.total_misses(), 0u);
}

TEST(ServeSessionTest, SameScriptYieldsIdenticalResponses) {
  const std::vector<std::string> script = {
      "{\"v\":1,\"cmd\":\"stats\"}",
      submit_line("a", 0, "d0", "M1", at_sec(600).usec()),
      submit_line("b", 0, "d0", "M2", 1),
      "{\"v\":1,\"cmd\":\"query\",\"id\":\"a\"}",
      "{\"v\":1,\"cmd\":\"advance\",\"to_usec\":5000000}",
      "{\"v\":1,\"cmd\":\"cancel\",\"id\":\"a\",\"t_usec\":5000000}",
      "{\"v\":1,\"cmd\":\"stats\"}",
      "{\"v\":1,\"cmd\":\"shutdown\"}",
  };
  const auto run = [&script]() {
    ServeSession session = make_session();
    std::vector<std::string> responses;
    for (const std::string& line : script) {
      responses.push_back(session.handle_line(line));
    }
    return responses;
  };
  EXPECT_EQ(run(), run()) << "replaying a script must be byte-identical";
}

}  // namespace
}  // namespace datastage
