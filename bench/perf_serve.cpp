// Serving-path benchmark: online admission throughput and decision latency.
//
// For each generated oversubscribed (congested) scenario, half of every
// item's requests stay in the batch scenario and the other half is submitted
// online through SchedulerService, one admission decision each. The two
// modes compare the ISSUE's two-stage admission path against always paying
// the full replan:
//
//   quick  — stage-1 estimate enabled (ServiceOptions::quick_admission)
//   full   — every submit goes straight to the bounded incremental replan
//
// Reported per mode: admissions/sec, p50/p99 decision latency (from the
// admission.decision_usec histogram), outcome counts, replans. The admitted
// set must be identical across modes — the quick estimate may only reject
// requests the full replan would reject too. Written to BENCH_serve.json
// (the serving perf baseline; CI diffs it warn-only via datastage_benchdiff).
//
// Extra flags on top of the shared bench set:
//   --out=PATH   JSON output path (default BENCH_serve.json)
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "serve/scheduler_service.hpp"
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
  std::size_t decisions = 0;
  std::size_t admitted = 0;
  std::size_t already_satisfied = 0;
  std::size_t quick_rejects = 0;
  std::size_t full_rejects = 0;
  std::size_t replans = 0;
  double p50_usec = 0.0;
  double p99_usec = 0.0;
  double mean_usec = 0.0;
  /// Admit/reject verdict per submission, across all cases in order — the
  /// cross-mode soundness check for the quick path.
  std::vector<bool> verdicts;

  double admissions_per_sec() const {
    return wall_ns > 0
               ? static_cast<double>(decisions) * 1e9 / static_cast<double>(wall_ns)
               : 0.0;
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

    const ServiceSnapshot snap = service.snapshot();
    result.decisions += snap.submits;
    result.admitted += snap.admitted;
    result.already_satisfied += snap.already_satisfied;
    result.quick_rejects += snap.quick_rejects;
    result.full_rejects += snap.full_rejects;
    result.replans += snap.replans;
  }
  if (const obs::Histogram* h =
          registry.find_histogram("admission.decision_usec")) {
    result.p50_usec = h->p50();
    result.p99_usec = h->p99();
    result.mean_usec = h->mean();
  }
  return result;
}

void write_mode_json(std::FILE* f, const char* key, const ModeResult& mode) {
  std::fprintf(
      f,
      "    \"%s\": {\n      \"wall_ns\": %" PRId64
      ",\n      \"decisions\": %zu,\n      \"admitted\": %zu,\n"
      "      \"already_satisfied\": %zu,\n      \"quick_rejects\": %zu,\n"
      "      \"full_rejects\": %zu,\n      \"replans\": %zu,\n"
      "      \"admissions_per_sec\": %s,\n      \"decision_usec_p50\": %s,\n"
      "      \"decision_usec_p99\": %s,\n      \"decision_usec_mean\": %s\n"
      "    }",
      key, mode.wall_ns, mode.decisions, mode.admitted, mode.already_satisfied,
      mode.quick_rejects, mode.full_rejects, mode.replans,
      obs::json_number(mode.admissions_per_sec()).c_str(),
      obs::json_number(mode.p50_usec).c_str(),
      obs::json_number(mode.p99_usec).c_str(),
      obs::json_number(mode.mean_usec).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  if (!benchtool::parse_bench_flags(argc, argv, setup, {"out"})) return 1;
  CliFlags flags;
  if (!flags.parse(argc, argv,
                   {"cases", "seed", "weighting", "csv", "jobs", "verbose",
                    "out"})) {
    return 1;
  }
  const std::string out_path = flags.get_string("out", "BENCH_serve.json");

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
               "p50 us", "p99 us", "replans"});
  const auto add_row = [&table](const char* name, const ModeResult& mode) {
    table.add_row({name, std::to_string(mode.decisions),
                   std::to_string(mode.admitted),
                   std::to_string(mode.quick_rejects + mode.full_rejects),
                   format_double(mode.admissions_per_sec(), 0),
                   format_double(mode.p50_usec, 1),
                   format_double(mode.p99_usec, 1),
                   std::to_string(mode.replans)});
  };
  add_row("quick", quick);
  add_row("full", full);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("verdicts identical across modes: %s\n",
              identical ? "yes" : "NO");

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
