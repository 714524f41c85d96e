// Serving-path benchmark: online admission throughput and decision latency.
//
// For each generated oversubscribed (congested) scenario, half of every
// item's requests stay in the batch scenario and the other half is submitted
// online through SchedulerService, one admission decision each. The two
// modes compare the two-stage admission path against always paying the full
// replan:
//
//   quick  — stage-1 estimate enabled (ServiceOptions::quick_admission)
//   full   — every submit goes straight to the replan, which schedules the
//            residual problem from scratch
//
// Both modes serve each submit from the stager's one residual world: built
// once per submit (or patched with the request), shared by the quick check,
// the replan and the withdrawal (docs/SERVING.md).
//
// Reported per mode: admissions/sec, also per host core (the service runs on
// one thread; the division lets hosts of different sizes compare), p50/p99
// decision latency (from the admission.decision_usec histogram), outcome
// counts, replans, the residual world counters (topologies built, full
// residual builds, patched worlds), and `layers`: the wall time of each
// serve phase (docs/OBSERVABILITY.md) inside the timed submits, with its
// share of their wall time and the unattributed rest as `other`. The replan
// layer also carries the engine work of the timed submits: Dijkstra runs
// (`tree_recomputes`), repaired and replayed trees, and replay misses by
// reason (docs/PERFORMANCE.md item 11). Every count covers the timed submits
// only, not the plan each case's service starts with: it is the difference
// of two snapshots (ServiceSnapshot). The admitted set must be identical
// across modes — the quick estimate may only reject requests the full replan
// would reject too.
// Written to BENCH_serve.json (the serving perf baseline; CI diffs it
// warn-only via datastage_benchdiff).
//
// Extra flags on top of the shared bench set:
//   --out=PATH   JSON output path (default BENCH_serve.json)
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "serve/scheduler_service.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace {

using namespace datastage;

/// One online submission carved out of a generated scenario.
struct OnlineSubmit {
  std::string item;
  Request request;
};

/// Splits `scenario` into a batch base (first half of every item's requests)
/// and the online tail submitted through the service. Every item keeps at
/// least one batch request — scenario validation requires it.
std::vector<OnlineSubmit> strip_online_requests(Scenario& scenario) {
  std::vector<OnlineSubmit> online;
  for (DataItem& item : scenario.items) {
    const std::size_t keep = item.requests.size() <= 1
                                 ? item.requests.size()
                                 : item.requests.size() / 2;
    for (std::size_t r = keep; r < item.requests.size(); ++r) {
      online.push_back({item.name, item.requests[r]});
    }
    item.requests.resize(keep);
  }
  return online;
}

struct ModeResult {
  std::int64_t wall_ns = 0;
  /// The service's and the stager's counts over the timed submits.
  AdmissionCounts admission;
  DynamicCounts dynamic;
  double p50_usec = 0.0;
  double p99_usec = 0.0;
  double mean_usec = 0.0;
  /// Admit/reject verdict per submission, across all cases in order — the
  /// cross-mode soundness check for the quick path.
  std::vector<bool> verdicts;
  /// Serve phases recorded during the timed submits only.
  obs::PhaseTimer phases;

  double admissions_per_sec() const {
    return wall_ns > 0 ? static_cast<double>(admission.submits) * 1e9 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
  double admissions_per_sec_per_core() const {
    return admissions_per_sec() / static_cast<double>(ThreadPool::hardware_jobs());
  }
};

ModeResult run_mode(const std::vector<Scenario>& cases,
                    const PriorityWeighting& weighting, bool quick) {
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};

  ModeResult result;
  for (const Scenario& base : cases) {
    Scenario batch = base;
    const std::vector<OnlineSubmit> online = strip_online_requests(batch);

    ServiceOptions options;
    options.engine.weighting = weighting;
    options.engine.eu = EUWeights::from_log10_ratio(1.0);
    options.engine.observer = &observer;
    options.quick_admission = quick;
    SchedulerService service(batch, options);

    // The service reads the observer through its pointer: phases attached
    // now leave out the initial plan and both snapshots.
    const ServiceSnapshot before = service.snapshot();
    observer.phases = &result.phases;
    const std::int64_t t0 = steady_clock_nanos();
    for (const OnlineSubmit& submit : online) {
      SubmitRequest request;
      request.at = SimTime::zero();
      request.item_name = submit.item;
      request.request = submit.request;
      const AdmissionDecision decision = service.submit(request);
      result.verdicts.push_back(decision.admitted());
    }
    result.wall_ns += steady_clock_nanos() - t0;
    observer.phases = nullptr;

    const ServiceSnapshot after = service.snapshot();
    result.admission += after.admission;
    result.admission -= before.admission;
    result.dynamic += after.dynamic;
    result.dynamic -= before.dynamic;
  }
  if (const obs::Histogram* h =
          registry.find_histogram("admission.decision_usec")) {
    result.p50_usec = h->p50();
    result.p99_usec = h->p99();
    result.mean_usec = h->mean();
  }
  return result;
}

double share(std::int64_t nanos, std::int64_t wall_ns) {
  return wall_ns > 0 ? static_cast<double>(nanos) / static_cast<double>(wall_ns) : 0.0;
}

/// One `layers` entry; `extra` (empty, or `, "key": value...`) adds the
/// layer's work counters.
void write_layer_json(std::FILE* f, const char* name, std::int64_t nanos,
                      std::int64_t wall_ns, bool last, const std::string& extra = "") {
  std::fprintf(f,
               "        \"%s\": {\"wall_seconds\": %s, \"wall_share\": %s%s}%s\n",
               name, obs::json_number(static_cast<double>(nanos) / 1e9).c_str(),
               obs::json_number(share(nanos, wall_ns)).c_str(), extra.c_str(),
               last ? "" : ",");
}

/// The replan layer's engine work: Dijkstra runs, repairs, replays, misses,
/// withdrawals that kept the plan, the shadow refreshes watching cost and
/// the requests refused because a relay could not hold their gc time.
std::string replan_work_json(const ModeResult& mode) {
  const DynamicCounts& work = mode.dynamic;
  const EngineCounts& engine = work.engine;
  std::string json = ", \"tree_recomputes\": " + std::to_string(engine.dijkstra_runs) +
                     ", \"tree_repairs\": " + std::to_string(engine.tree_repairs) +
                     ", \"tree_replays\": " + std::to_string(engine.tree_replays) +
                     ", \"withdrawals_kept_plan\": " +
                     std::to_string(work.withdrawals_kept_plan) +
                     ", \"shadow_refreshes\": " + std::to_string(engine.shadow_refreshes) +
                     ", \"gc_extensions_refused\": " +
                     std::to_string(work.gc_extensions_refused) +
                     ", \"replay_misses\": {";
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
    if (r > 0) json += ", ";
    json += std::string("\"") + replay_miss_name(static_cast<ReplayMiss>(r)) +
            "\": " + std::to_string(engine.replay_misses[r]);
  }
  return json + "}";
}

void write_mode_json(std::FILE* f, const char* key, const ModeResult& mode) {
  const AdmissionCounts& decisions = mode.admission;
  const DynamicCounts& work = mode.dynamic;
  std::fprintf(
      f,
      "    \"%s\": {\n      \"wall_ns\": %" PRId64
      ",\n      \"decisions\": %zu,\n      \"admitted\": %zu,\n"
      "      \"already_satisfied\": %zu,\n      \"quick_rejects\": %zu,\n"
      "      \"full_rejects\": %zu,\n      \"replans\": %zu,\n"
      "      \"topology_builds\": %zu,\n      \"residual_builds\": %zu,\n"
      "      \"world_patches\": %zu,\n"
      "      \"admissions_per_sec\": %s,\n      \"admissions_per_sec_per_core\": %s,\n"
      "      \"decision_usec_p50\": %s,\n"
      "      \"decision_usec_p99\": %s,\n      \"decision_usec_mean\": %s,\n"
      "      \"layers\": {\n",
      key, mode.wall_ns, decisions.submits, decisions.admitted, decisions.already_satisfied,
      decisions.quick_rejects, decisions.full_rejects, work.replans, work.topology_builds,
      work.residual_builds, work.world_patches, obs::json_number(mode.admissions_per_sec()).c_str(),
      obs::json_number(mode.admissions_per_sec_per_core()).c_str(),
      obs::json_number(mode.p50_usec).c_str(),
      obs::json_number(mode.p99_usec).c_str(),
      obs::json_number(mode.mean_usec).c_str());
  std::int64_t attributed = 0;
  for (const char* phase : kServePhases) {
    const std::int64_t nanos = mode.phases.nanos(phase);
    attributed += nanos;
    write_layer_json(f, phase, nanos, mode.wall_ns, false,
                     std::string(phase) == "dynamic.replan" ? replan_work_json(mode) : "");
  }
  write_layer_json(f, "other", mode.wall_ns - attributed, mode.wall_ns, true);
  std::fprintf(f, "      }\n    }");
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  const std::optional<CliFlags> flags =
      benchtool::parse_bench_flags(argc, argv, setup, {"out"});
  if (!flags) return 1;
  const std::string out_path = flags->get_string("out", "BENCH_serve.json");

  // Lighter default than the figure benches: every stripped request costs a
  // full replan in "full" mode, on the oversubscribed preset.
  if (setup.config.cases == 40) setup.config.cases = 3;
  benchtool::print_header(
      "Serving admission: two-stage (quick) vs full-replan-only", setup);

  const std::vector<Scenario> cases = generate_cases(
      GeneratorConfig::congested(), setup.config.seed, setup.config.cases);

  const ModeResult quick = run_mode(cases, setup.weighting, true);
  const ModeResult full = run_mode(cases, setup.weighting, false);
  const bool identical = quick.verdicts == full.verdicts;

  Table table({"mode", "decisions", "admitted", "rejected", "adm/s",
               "p50 us", "p99 us", "replans", "topologies", "rebuilds", "patches",
               "dijkstra", "replayed"});
  const auto add_row = [&table](const char* name, const ModeResult& mode) {
    const AdmissionCounts& decisions = mode.admission;
    const DynamicCounts& work = mode.dynamic;
    table.add_row({name, std::to_string(decisions.submits),
                   std::to_string(decisions.admitted),
                   std::to_string(decisions.quick_rejects + decisions.full_rejects),
                   format_double(mode.admissions_per_sec(), 0),
                   format_double(mode.p50_usec, 1),
                   format_double(mode.p99_usec, 1),
                   std::to_string(work.replans), std::to_string(work.topology_builds),
                   std::to_string(work.residual_builds),
                   std::to_string(work.world_patches),
                   std::to_string(work.engine.dijkstra_runs),
                   std::to_string(work.engine.tree_replays)});
  };
  add_row("quick", quick);
  add_row("full", full);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("verdicts identical across modes: %s\n",
              identical ? "yes" : "NO");

  Table layers({"phase", "quick s", "quick share", "full s", "full share"});
  const auto add_layer = [&layers, &quick, &full](const char* name, std::int64_t q_ns,
                                                  std::int64_t f_ns) {
    layers.add_row({name, format_double(static_cast<double>(q_ns) / 1e9, 3),
                    format_double(100.0 * share(q_ns, quick.wall_ns), 1) + "%",
                    format_double(static_cast<double>(f_ns) / 1e9, 3),
                    format_double(100.0 * share(f_ns, full.wall_ns), 1) + "%"});
  };
  std::int64_t quick_rest = quick.wall_ns;
  std::int64_t full_rest = full.wall_ns;
  for (const char* phase : kServePhases) {
    add_layer(phase, quick.phases.nanos(phase), full.phases.nanos(phase));
    quick_rest -= quick.phases.nanos(phase);
    full_rest -= full.phases.nanos(phase);
  }
  add_layer("other", quick_rest, full_rest);
  std::printf("%s\n", layers.to_text().c_str());

  std::FILE* f = toolflags::open_output_cfile(out_path, "bench output");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "{\n  \"bench\": \"perf_serve\",\n  \"preset\": \"congested\",\n"
               "  \"cases\": %zu,\n  \"seed\": %llu,\n",
               setup.config.cases,
               static_cast<unsigned long long>(setup.config.seed));
  benchtool::write_host_json(f);
  std::fprintf(f, "  \"modes\": {\n");
  write_mode_json(f, "quick", quick);
  std::fprintf(f, ",\n");
  write_mode_json(f, "full", full);
  std::fprintf(f, "\n  },\n  \"verdicts_identical\": %s\n}\n",
               identical ? "true" : "false");
  std::fclose(f);
  std::printf("(JSON written to %s)\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: quick-admission mode changed admit/reject verdicts — "
                 "the stage-1 estimate is not a safe relaxation\n");
    return 1;
  }
  return 0;
}
