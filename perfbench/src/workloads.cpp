#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/satisfaction.hpp"
#include "dynamic/stager.hpp"
#include "gen/generator.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "routing/dijkstra.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler_service.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

double RunResult::metric(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

const std::string& RunResult::figure(const std::string& name) const {
  for (const auto& [key, value] : deterministic) {
    if (key == name) return value;
  }
  throw std::out_of_range("no figure " + name);
}

namespace {

using namespace datastage;

// Set-up is repeated and its median reported, so one slow repeat (page
// faults, a noisy neighbour) does not move setup_s.
constexpr int kSetupRepeats = 5;
// Probe loops run several times so each lasts long enough to time.
constexpr int kProbeRepeats = 3;
constexpr double kTailPercentiles[] = {99.0, 90.0};

// Input sizes. paper_grid: ~10 ms schedules, enough of them for a p90 with
// more than ten schedules beyond it. scale_huge_shape: ~1 s schedules, where
// hold windows pile up breakpoints. serve_congested: over 1000 decisions,
// so a p99 has more than ten beyond it.
constexpr std::size_t kPaperGridCases = 400;
constexpr std::int32_t kScaleMachines = 40;
constexpr std::int32_t kScaleRequestsPerMachine = 50;
constexpr std::size_t kScaleCases = 20;
constexpr std::size_t kServeCases = 25;
constexpr std::int32_t kServeMachines = 11;
constexpr std::int32_t kServeRequestsPerMachine = 15;

std::int64_t now_ns() { return steady_clock_nanos(); }
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One thread, C4, the paper's 1/10/100 weighting and E-U ratio 10^1: the
/// defaults of datastage_run.
EngineOptions engine_options(obs::RunObserver* observer) {
  EngineOptions options;
  options.weighting = PriorityWeighting::w_1_10_100();
  options.criterion = CostCriterion::kC4;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.engine_jobs = 1;
  options.observer = observer;
  return options;
}

template <class Build>
double median_setup_s(Build&& build) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    build();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(seconds);
}

void add_schedule(Digest& digest, const Schedule& schedule) {
  digest.add(static_cast<std::int64_t>(schedule.size()));
  for (const CommStep& step : schedule.steps()) {
    digest.add(step.item.value());
    digest.add(step.from.value());
    digest.add(step.to.value());
    digest.add(step.link.value());
    digest.add(step.start.usec());
    digest.add(step.arrival.usec());
  }
}

/// Highest of p99/p90 with at least ten samples beyond it. Smoke-sized runs
/// have too few samples; they report p90 and say so in the notes.
double tail_ms(const std::vector<double>& samples, const std::string& what,
               RunResult& result) {
  const std::optional<double> p =
      highest_supported_percentile(samples.size(), kTailPercentiles);
  std::string note = "p";
  note += number(p.value_or(90.0));
  note += " of " + std::to_string(samples.size()) + " " + what;
  if (!p) note += " (fewer than 10 beyond: unsupported)";
  result.notes.emplace_back("tail_ms", note);
  return percentile(samples, p.value_or(90.0));
}

// ---------------------------------------------------------------------------
// Scheduling one case, with the engine loop driven here so spans can sit
// around each call. The loop is run_partial_path / run_full_path_one /
// run_full_path_all.

struct Scheduled {
  StagingResult result;
  bool guard_tripped = false;
  std::int64_t wall_ns = 0;  ///< engine construction through finish()
};

void apply_step(StagingEngine& engine, HeuristicKind heuristic,
                const Candidate& candidate) {
  switch (heuristic) {
    case HeuristicKind::kPartial:
      engine.apply_hop(candidate);
      return;
    case HeuristicKind::kFullOne:
      engine.apply_full_path_one(candidate);
      return;
    case HeuristicKind::kFullAll:
      engine.apply_full_path_all(candidate);
      return;
  }
}

/// `step_ms`, when set, receives the wall time of every iteration
/// (best_candidate plus its commit).
Scheduled schedule_case(const Scenario& scenario, HeuristicKind heuristic,
                        const EngineOptions& options, Tracer& tracer,
                        std::vector<double>* step_ms) {
  Scheduled out;
  const SpanScope whole(tracer, "batch.schedule");
  const std::int64_t t0 = now_ns();
  std::optional<StagingEngine> engine;
  {
    const SpanScope span(tracer, "core.engine_ctor");
    engine.emplace(scenario, options);
  }
  while (true) {
    const std::int64_t step_start = step_ms != nullptr ? now_ns() : 0;
    std::optional<Candidate> best;
    {
      const SpanScope span(tracer, "core.best_candidate");
      best = engine->best_candidate();
    }
    if (!best) break;
    {
      const SpanScope span(tracer, "core.apply");
      apply_step(*engine, heuristic, *best);
    }
    if (step_ms != nullptr) step_ms->push_back(ns_to_ms(now_ns() - step_start));
  }
  out.guard_tripped = engine->guard_tripped();
  {
    const SpanScope span(tracer, "core.finish");
    out.result = engine->finish();
  }
  out.wall_ns = now_ns() - t0;
  return out;
}

/// The replay verifier agrees with the engine: the schedule is feasible and
/// satisfies the requests the engine says it does.
bool replay_clean(const Scenario& scenario, const Scheduled& run) {
  if (run.guard_tripped) return false;
  const SimReport report = simulate(scenario, run.result.schedule);
  return report.ok &&
         satisfied_count(report.outcomes) == satisfied_count(run.result.outcomes);
}

// ---------------------------------------------------------------------------
// Layer probes on a schedule's final state (traced runs only).

struct LayerProbe {
  std::size_t replay_failures = 0;
  std::size_t storage_queries = 0;
  std::size_t link_queries = 0;
  std::size_t reservations = 0;
  std::size_t reserved_links = 0;
  std::size_t trees = 0;
  /// Folds every probe answer in, so no probe result is unused.
  std::int64_t checksum = 0;
};

/// Replays `schedule` into a fresh NetworkState (timing can_apply and
/// apply_transfer per step), then times storage queries over every committed
/// hold window, link fits for every step, and one full route tree per item.
void probe_layers(const Scenario& scenario, const Schedule& schedule,
                  Tracer& tracer, LayerProbe& probe) {
  NetworkState state(scenario);
  std::vector<std::pair<MachineId, Interval>> holds;
  {
    const SpanScope replay(tracer, "net.replay");
    for (const CommStep& step : schedule.steps()) {
      bool fits = false;
      {
        const SpanScope span(tracer, "net.can_apply");
        fits = state.can_apply(step.item, step.link, step.start);
      }
      if (!fits) {
        ++probe.replay_failures;
        return;
      }
      std::optional<Interval> hold;
      {
        const SpanScope span(tracer, "net.apply_transfer");
        hold = state.apply_transfer(step.item, step.link, step.start).storage_interval;
      }
      if (hold) holds.emplace_back(step.to, *hold);
    }
  }
  {
    const SpanScope span(tracer, "net.storage.max_usage");
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      for (const auto& [machine, window] : holds) {
        probe.checksum += state.storage(machine).max_usage(window);
      }
    }
    probe.storage_queries += holds.size() * kProbeRepeats;
  }
  {
    const SpanScope span(tracer, "net.link.earliest_fit");
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      for (const CommStep& step : schedule.steps()) {
        const std::optional<LinkFit> fit =
            state.earliest_fit(step.item, step.link, step.start);
        probe.checksum += fit ? fit->start.usec() : -1;
      }
    }
    probe.link_queries += schedule.size() * kProbeRepeats;
  }
  for (std::size_t v = 0; v < scenario.virt_links.size(); ++v) {
    const std::size_t n =
        state.links().reservations(VirtLinkId(static_cast<std::int32_t>(v))).size();
    probe.reservations += n;
    probe.reserved_links += n > 0 ? 1 : 0;
  }
  const Topology topology(scenario);
  DijkstraWorkspace workspace;
  RouteTree tree(scenario.machines.size());
  {
    const SpanScope span(tracer, "routing.tree");
    for (std::size_t i = 0; i < scenario.items.size(); ++i) {
      compute_route_tree_into(state, topology, ItemId(static_cast<std::int32_t>(i)),
                              DijkstraOptions{}, workspace, tree);
    }
  }
  probe.trees += scenario.items.size();
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run.

struct ServeSplit {
  std::size_t decisions = 0;
  std::size_t quick_rejects = 0;
  std::size_t replans = 0;
  std::vector<double> quick_reject_ms;
  std::vector<double> replanned_ms;
};

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const obs::MetricsRegistry& registry,
                                  const LayerProbe& probe, const ServeSplit& serve,
                                  double overhead_frac) {
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  const auto span = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto self_ms = [&span](const char* name) { return ns_to_ms(span(name).self_ns); };
  const auto calls = [&span](const char* name) {
    return static_cast<double>(span(name).calls);
  };
  // Mean duration in units of `unit_ns` over `count` calls (0 without calls).
  const auto per_call = [&span](const char* name, std::size_t count, double unit_ns) {
    return count == 0 ? 0.0
                      : static_cast<double>(span(name).total_ns) /
                            static_cast<double>(count) / unit_ns;
  };
  const auto counter = [&registry](const char* name) {
    const auto it = registry.counters().find(name);
    return it == registry.counters().end() ? 0.0 : static_cast<double>(it->second);
  };
  const double hits = counter("engine.cache_hits");
  const double recomputes = counter("engine.tree_recomputes");
  const auto frac = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const std::size_t can_apply_calls = span("net.can_apply").calls;
  const std::size_t apply_calls = span("net.apply_transfer").calls;
  const std::size_t estimates = span("serve.quick_estimate").calls;

  return {
      {"core.best_candidate.calls", calls("core.best_candidate"), "count"},
      {"core.best_candidate.ms", self_ms("core.best_candidate"), "ms"},
      {"core.apply.calls", calls("core.apply"), "count"},
      {"core.apply.ms", self_ms("core.apply"), "ms"},
      {"core.engine_ctor.ms", self_ms("core.engine_ctor"), "ms"},
      {"core.finish.ms", self_ms("core.finish"), "ms"},
      {"engine.iterations", counter("engine.iterations"), "count"},
      {"engine.tree_recomputes", recomputes, "count"},
      {"engine.cache_hit_frac", frac(hits, hits + recomputes), "ratio"},
      {"engine.invalidations_checked", counter("engine.invalidations_checked"), "count"},
      {"engine.candidates_scored", counter("engine.candidates_scored"), "count"},
      {"routing.tree.calls", static_cast<double>(probe.trees), "count"},
      {"routing.tree.us_per_call", per_call("routing.tree", probe.trees, 1e3), "us"},
      {"dijkstra.heap_pops", counter("dijkstra.heap_pops"), "count"},
      {"dijkstra.relaxations", counter("dijkstra.relaxations"), "count"},
      {"net.storage.max_usage.ns_per_query",
       per_call("net.storage.max_usage", probe.storage_queries, 1.0), "ns"},
      {"net.link.earliest_fit.ns_per_query",
       per_call("net.link.earliest_fit", probe.link_queries, 1.0), "ns"},
      {"net.link.reservations_per_link",
       frac(static_cast<double>(probe.reservations),
            static_cast<double>(probe.reserved_links)),
       "count"},
      {"net.can_apply.us_per_call", per_call("net.can_apply", can_apply_calls, 1e3), "us"},
      {"net.apply_transfer.us_per_call",
       per_call("net.apply_transfer", apply_calls, 1e3), "us"},
      {"dynamic.residual_build.ms", self_ms("dynamic.residual_build"), "ms"},
      {"dynamic.replan.ms", self_ms("dynamic.replan"), "ms"},
      {"dynamic.replans", static_cast<double>(serve.replans), "count"},
      {"serve.quick_estimate.us", per_call("serve.quick_estimate", estimates, 1e3), "us"},
      {"serve.quick_reject_frac",
       frac(static_cast<double>(serve.quick_rejects),
            static_cast<double>(serve.decisions)),
       "ratio"},
      {"serve.quick_reject.p50_ms", median(serve.quick_reject_ms), "ms"},
      {"serve.replanned.p50_ms", median(serve.replanned_ms), "ms"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
  };
}

/// Writes the traced pass's spans out once, summed by name.
void add_span_notes(const Tracer& tracer, RunResult& result) {
  for (const auto& [name, totals] : tracer.totals()) {
    result.notes.emplace_back("span " + name,
                              "calls=" + std::to_string(totals.calls) +
                                  " total_ms=" + number(ns_to_ms(totals.total_ns)) +
                                  " self_ms=" + number(ns_to_ms(totals.self_ns)));
  }
}

void add_counters(const obs::MetricsRegistry& registry, RunResult& result) {
  for (const char* name : {"engine.iterations", "engine.tree_recomputes",
                           "engine.cache_hits", "engine.invalidations_checked",
                           "engine.candidates_scored", "dijkstra.heap_pops",
                           "dijkstra.relaxations"}) {
    const auto it = registry.counters().find(name);
    result.deterministic.emplace_back(
        name, std::to_string(it == registry.counters().end() ? 0 : it->second));
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: paper_grid and scale_huge_shape.

struct BatchSpec {
  GeneratorConfig config;
  std::size_t cases = 0;
  std::vector<HeuristicKind> heuristics;
  /// Report tail_ms over engine iterations instead of whole schedules: a
  /// run holds too few multi-second schedules for a tail with ten beyond.
  bool tail_over_steps = false;
};

BatchSpec paper_grid_spec(bool smoke) {
  return {smoke ? GeneratorConfig::light() : GeneratorConfig::paper(),
          smoke ? std::size_t{2} : kPaperGridCases,
          {HeuristicKind::kPartial, HeuristicKind::kFullOne, HeuristicKind::kFullAll},
          false};
}

BatchSpec scale_spec(bool smoke) {
  GeneratorConfig config = GeneratorConfig::huge();
  config.min_machines = config.max_machines = smoke ? 12 : kScaleMachines;
  config.min_requests_per_machine = config.max_requests_per_machine =
      smoke ? 10 : kScaleRequestsPerMachine;
  return {config, smoke ? std::size_t{2} : kScaleCases, {HeuristicKind::kFullOne},
          true};
}

RunResult run_batch(const BatchSpec& spec, const RunOptions& options) {
  RunResult result;
  std::vector<Scenario> cases;
  const double setup_s = median_setup_s(
      [&] { cases = generate_cases(spec.config, options.seed, spec.cases); });

  struct Job {
    std::size_t case_index;
    HeuristicKind heuristic;
  };
  std::vector<Job> jobs;
  double bound_sum = 0.0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const double bound =
        compute_bounds(cases[c], PriorityWeighting::w_1_10_100()).upper_bound;
    for (HeuristicKind heuristic : spec.heuristics) {
      jobs.push_back({c, heuristic});
      bound_sum += bound;
    }
  }

  // First pass: every schedule is replayed through the simulator and
  // digested; later passes must reproduce each schedule exactly.
  Tracer untraced(false);
  const EngineOptions plain = engine_options(nullptr);
  std::vector<std::uint64_t> job_digest(jobs.size());
  Digest digest;
  double value = 0.0;
  std::vector<double> schedule_ms;
  std::vector<double> step_ms;
  std::int64_t sched_ns = 0;
  std::size_t requests = 0;

  const auto run_job = [&](std::size_t j, bool first_pass) {
    const Scenario& scenario = cases[jobs[j].case_index];
    Scheduled run = schedule_case(scenario, jobs[j].heuristic, plain, untraced,
                                  spec.tail_over_steps && !options.trace ? &step_ms
                                                                         : nullptr);
    ++result.attempted;
    sched_ns += run.wall_ns;
    requests += scenario.request_count();
    schedule_ms.push_back(ns_to_ms(run.wall_ns));
    Digest one;
    add_schedule(one, run.result.schedule);
    if (first_pass) {
      job_digest[j] = one.value();
      add_schedule(digest, run.result.schedule);
      value += weighted_value(scenario, PriorityWeighting::w_1_10_100(),
                              run.result.outcomes);
      if (!replay_clean(scenario, run)) ++result.failed;
    } else if (one.value() != job_digest[j]) {
      ++result.failed;
    }
  };

  const std::int64_t start = now_ns();
  for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j, true);
  std::size_t passes = 1;
  if (!options.trace) {
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::size_t j = 0; now_ns() - start < budget_ns; j = (j + 1) % jobs.size()) {
      if (j == 0) ++passes;
      run_job(j, false);
    }
  }

  result.deterministic.emplace_back("schedule_digest", digest.hex());
  result.deterministic.emplace_back("value_frac", number(value / bound_sum));
  result.deterministic.emplace_back("schedules_per_pass", std::to_string(jobs.size()));
  result.notes.emplace_back("passes", std::to_string(passes));
  result.notes.emplace_back("schedules_timed", std::to_string(schedule_ms.size()));

  if (!options.trace) {
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s",
         static_cast<double>(requests) / (static_cast<double>(sched_ns) / 1e9), "1/s"},
        {"p50_ms", median(schedule_ms), "ms"},
        {"tail_ms",
         spec.tail_over_steps ? tail_ms(step_ms, "engine iterations", result)
                              : tail_ms(schedule_ms, "schedules", result),
         "ms"},
        {"value_frac", value / bound_sum, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return result;
  }

  // Traced pass over the same jobs, with spans, program counters and probes.
  Tracer tracer(true);
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  const EngineOptions observed = engine_options(&observer);
  LayerProbe probe;
  std::int64_t traced_ns = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Scenario& scenario = cases[jobs[j].case_index];
    tracer.set_id(static_cast<std::uint32_t>(j));
    const Scheduled run =
        schedule_case(scenario, jobs[j].heuristic, observed, tracer, nullptr);
    ++result.attempted;
    traced_ns += run.wall_ns;
    Digest one;
    add_schedule(one, run.result.schedule);
    if (one.value() != job_digest[j]) ++result.failed;
    probe_layers(scenario, run.result.schedule, tracer, probe);
  }
  result.failed += probe.replay_failures;
  add_counters(registry, result);
  add_span_notes(tracer, result);
  result.notes.emplace_back("probe_checksum", std::to_string(probe.checksum));
  result.metrics = layer_metrics(
      tracer, registry, probe, ServeSplit{},
      static_cast<double>(traced_ns) / static_cast<double>(sched_ns) - 1.0);
  return result;
}

// ---------------------------------------------------------------------------
// serve_congested: half of each item's requests form the batch scenario the
// service starts with; the other half arrive online, one client, closed loop.

struct ServeCase {
  Scenario batch;
  std::vector<SubmitRequest> submits;  ///< nondecreasing submit instants
};

/// Every item keeps at least one batch request (scenario validation needs
/// it). Each online request is submitted at a seeded instant in the first
/// half of the time left before its deadline, so time advances between
/// submits, started transfers commit, and most submits still have a chance.
ServeCase split_case(const Scenario& full, std::uint64_t seed, std::size_t index) {
  ServeCase out;
  out.batch = full;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  for (DataItem& item : out.batch.items) {
    const std::size_t keep =
        item.requests.size() <= 1 ? item.requests.size() : item.requests.size() / 2;
    for (std::size_t r = keep; r < item.requests.size(); ++r) {
      SubmitRequest submit;
      submit.item_name = item.name;
      submit.request = item.requests[r];
      submit.at = SimTime::from_usec(rng.uniform_i64(0, submit.request.deadline.usec() / 2));
      out.submits.push_back(std::move(submit));
    }
    item.requests.resize(keep);
  }
  std::stable_sort(out.submits.begin(), out.submits.end(),
                   [](const SubmitRequest& a, const SubmitRequest& b) { return a.at < b.at; });
  return out;
}

/// congested() (doubled load, short deadlines) with the machine count and the
/// per-machine request count pinned: every seed carries the same load, and
/// cases are small enough that a run holds 25 of them, which keeps the
/// seed-to-seed spread of the run's means small.
GeneratorConfig serve_config(bool smoke) {
  if (smoke) return GeneratorConfig::light();
  GeneratorConfig config = GeneratorConfig::congested();
  config.min_machines = config.max_machines = kServeMachines;
  config.min_requests_per_machine = config.max_requests_per_machine =
      kServeRequestsPerMachine;
  return config;
}

ServiceOptions service_options() {
  ServiceOptions options;
  options.spec = {HeuristicKind::kFullOne, CostCriterion::kC4};
  options.engine = engine_options(nullptr);
  options.quick_admission = true;
  return options;
}

/// Admitted requests that finish() does not deliver by their deadline.
std::size_t undelivered(const DynamicResult& result,
                        const std::vector<const SubmitRequest*>& admitted) {
  std::size_t missing = 0;
  for (const SubmitRequest* submit : admitted) {
    const auto it = std::find_if(
        result.requests.begin(), result.requests.end(),
        [submit](const DynamicRequestRecord& record) {
          return !record.cancelled && record.item_name == submit->item_name &&
                 record.destination == submit->request.destination &&
                 record.deadline == submit->request.deadline;
        });
    if (it == result.requests.end() || !it->satisfied ||
        it->arrival > submit->request.deadline) {
      ++missing;
    }
  }
  return missing;
}

/// One decision as it enters the decision log digest.
void add_decision(Digest& digest, const SubmitRequest& submit,
                  AdmissionOutcome outcome, SimTime planned_arrival) {
  digest.add(submit.at.usec());
  digest.add(submit.item_name);
  digest.add(submit.request.destination.value());
  digest.add(admission_outcome_name(outcome));
  digest.add(planned_arrival.usec());
}

/// The client skips a request for data the service has already staged at,
/// or planned to send to, the destination. Submitting it once a relayed copy
/// sits there aborts the stager ("permanent copies must always fit":
/// a request turns an intermediate copy permanent without a capacity check).
template <class Service>
bool already_headed_there(const Service& service, const SubmitRequest& submit) {
  return !service.planned_arrival(submit.item_name, submit.request.destination)
              .is_infinite();
}

struct ServeTally {
  std::size_t decisions = 0;
  std::size_t skipped = 0;
  std::size_t admitted = 0;
  std::size_t failed = 0;
  /// Admitted, yet finish() does not deliver by the deadline: a later replan
  /// dropped the request. Reported, not counted as failed (see README.md).
  std::size_t broken = 0;
  double value = 0.0;
  std::int64_t decision_ns = 0;
  std::vector<double> decision_ms;
};

/// Submits the case's requests through `service`, closed loop, until
/// `keep_going` says stop; finishes the service and checks deliveries.
template <class KeepGoing>
std::uint64_t serve_case(SchedulerService& service, const ServeCase& c,
                         ServeTally& tally, KeepGoing&& keep_going) {
  Digest digest;
  std::vector<const SubmitRequest*> admitted;
  for (const SubmitRequest& submit : c.submits) {
    if (!keep_going()) break;
    const std::int64_t t0 = now_ns();
    if (submit.at > service.now()) service.advance_to(submit.at);
    if (already_headed_there(service, submit)) {
      ++tally.skipped;
      digest.add("skipped");
      continue;
    }
    ++tally.decisions;
    AdmissionDecision decision;
    try {
      decision = service.submit(submit);
    } catch (const std::exception&) {
      ++tally.failed;
      continue;
    }
    const std::int64_t ns = now_ns() - t0;
    tally.decision_ns += ns;
    tally.decision_ms.push_back(ns_to_ms(ns));
    add_decision(digest, submit, decision.outcome, decision.planned_arrival);
    if (decision.admitted()) {
      ++tally.admitted;
      admitted.push_back(&submit);
    }
  }
  const DynamicResult result = service.finish();
  tally.broken += undelivered(result, admitted);
  tally.value += result.weighted_value(PriorityWeighting::w_1_10_100());
  add_schedule(digest, result.schedule);
  return digest.value();
}

/// The submit path of SchedulerService, spelled out against a DynamicStager
/// so each layer call gets its own span: advance, residual build, quick
/// estimate, replan, withdraw. Must reach the service's verdicts exactly.
std::uint64_t serve_case_traced(const ServeCase& c, const EngineOptions& options,
                                Tracer& tracer, std::uint32_t& next_id,
                                ServeSplit& split, ServeTally& tally) {
  const PriorityWeighting weighting = options.weighting;
  DynamicStager stager(c.batch, {HeuristicKind::kFullOne, CostCriterion::kC4}, options);
  const std::size_t replans_before = stager.replans();
  Digest digest;
  std::vector<const SubmitRequest*> admitted;
  for (const SubmitRequest& submit : c.submits) {
    tracer.set_id(next_id++);
    const std::int32_t handle = tracer.open("serve.decision");
    if (submit.at > stager.now()) {
      const SpanScope span(tracer, "dynamic.advance");
      stager.advance_to(submit.at);
    }
    if (already_headed_there(stager, submit)) {
      tracer.close(handle);
      ++tally.skipped;
      digest.add("skipped");
      continue;
    }
    ++tally.decisions;
    Scenario residual;
    {
      const SpanScope span(tracer, "dynamic.residual_build");
      residual = stager.residual_scenario();
    }
    QuickEstimate estimate;
    {
      const SpanScope span(tracer, "serve.quick_estimate");
      estimate = quick_admission_estimate(residual, submit.item_name, submit.request,
                                          weighting);
    }
    AdmissionOutcome outcome = AdmissionOutcome::kQuickReject;
    SimTime planned = SimTime::infinity();
    if (estimate.feasible) {
      {
        const SpanScope span(tracer, "dynamic.replan");
        stager.on_event({submit.at, NewRequestEvent{submit.item_name, submit.request}});
      }
      const MachineId dest = submit.request.destination;
      switch (stager.request_status(submit.item_name, dest)) {
        case DynamicRequestStatus::kSatisfied:
          outcome = AdmissionOutcome::kAlreadySatisfied;
          planned = stager.planned_arrival(submit.item_name, dest);
          break;
        case DynamicRequestStatus::kPending: {
          const SimTime arrival = stager.planned_arrival(submit.item_name, dest);
          if (!arrival.is_infinite() && arrival <= submit.request.deadline) {
            outcome = AdmissionOutcome::kAdmitted;
            planned = arrival;
          } else {
            const SpanScope span(tracer, "dynamic.withdraw");
            stager.on_event({submit.at, CancelRequestEvent{submit.item_name, dest}});
            outcome = AdmissionOutcome::kFullReject;
          }
          break;
        }
        default:
          outcome = AdmissionOutcome::kFullReject;
          break;
      }
    }
    tracer.close(handle);
    const Span& span = tracer.spans()[static_cast<std::size_t>(handle)];
    const double ms = ns_to_ms(span.end_ns - span.start_ns);
    tally.decision_ns += span.end_ns - span.start_ns;
    ++split.decisions;
    if (outcome == AdmissionOutcome::kQuickReject) {
      ++split.quick_rejects;
      split.quick_reject_ms.push_back(ms);
    } else {
      split.replanned_ms.push_back(ms);
    }
    add_decision(digest, submit, outcome, planned);
    if (outcome == AdmissionOutcome::kAdmitted ||
        outcome == AdmissionOutcome::kAlreadySatisfied) {
      ++tally.admitted;
      admitted.push_back(&submit);
    }
  }
  split.replans += stager.replans() - replans_before;
  const DynamicResult result = stager.finish();
  tally.broken += undelivered(result, admitted);
  add_schedule(digest, result.schedule);
  return digest.value();
}

RunResult run_serve(const RunOptions& options) {
  RunResult result;
  const GeneratorConfig config = serve_config(options.smoke);
  const std::size_t case_count = options.smoke ? std::size_t{2} : kServeCases;

  // Set-up: generate, split, and start one service per case (its initial
  // plan is the batch schedule of the batch half).
  std::vector<Scenario> full;
  std::vector<ServeCase> cases;
  std::vector<std::unique_ptr<SchedulerService>> services;
  const double setup_s = median_setup_s([&] {
    full = generate_cases(config, options.seed, case_count);
    cases.clear();
    services.clear();
    for (std::size_t c = 0; c < full.size(); ++c) {
      cases.push_back(split_case(full[c], options.seed, c));
      services.push_back(
          std::make_unique<SchedulerService>(cases.back().batch, service_options()));
    }
  });
  double bound_sum = 0.0;
  for (const Scenario& scenario : full) {
    bound_sum += compute_bounds(scenario, PriorityWeighting::w_1_10_100()).upper_bound;
  }

  // First pass over the set-up services; later passes start fresh services
  // (outside the timed decisions) and must reproduce every decision log.
  ServeTally first;
  Digest digest;
  std::vector<std::uint64_t> case_digest(cases.size());
  const auto always = [] { return true; };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    case_digest[c] = serve_case(*services[c], cases[c], first, always);
    digest.add(static_cast<std::int64_t>(case_digest[c]));
  }
  services.clear();
  result.attempted += first.decisions;
  result.failed += first.failed;
  result.deterministic.emplace_back("decision_digest", digest.hex());
  result.deterministic.emplace_back("decisions_per_pass", std::to_string(first.decisions));
  result.deterministic.emplace_back("skipped_per_pass", std::to_string(first.skipped));
  result.deterministic.emplace_back("admitted_not_delivered", std::to_string(first.broken));
  result.deterministic.emplace_back(
      "admit_frac", number(static_cast<double>(first.admitted) /
                           static_cast<double>(first.decisions)));
  result.deterministic.emplace_back("value_frac", number(first.value / bound_sum));

  if (!options.trace) {
    ServeTally all = first;
    const std::int64_t start = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9) -
                           first.decision_ns;
    const auto in_budget = [&] { return now_ns() - start < budget_ns; };
    std::size_t passes = 1;
    for (std::size_t c = 0; in_budget(); c = (c + 1) % cases.size()) {
      if (c == 0) ++passes;
      SchedulerService service(cases[c].batch, service_options());
      ServeTally again;
      const std::uint64_t d = serve_case(service, cases[c], again, in_budget);
      // A pass cut short by the budget has a shorter log; only whole ones compare.
      if (again.decisions + again.skipped == cases[c].submits.size() &&
          d != case_digest[c]) {
        ++result.failed;
      }
      result.attempted += again.decisions;
      result.failed += again.failed;
      all.decision_ns += again.decision_ns;
      all.decision_ms.insert(all.decision_ms.end(), again.decision_ms.begin(),
                             again.decision_ms.end());
    }
    result.notes.emplace_back("passes", std::to_string(passes));
    result.notes.emplace_back("decisions_timed", std::to_string(all.decision_ms.size()));
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s",
         static_cast<double>(all.decision_ms.size()) /
             (static_cast<double>(all.decision_ns) / 1e9),
         "1/s"},
        {"p50_ms", median(all.decision_ms), "ms"},
        {"tail_ms", tail_ms(all.decision_ms, "decisions", result), "ms"},
        {"value_frac", first.value / bound_sum, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return result;
  }

  // Traced pass: each case's initial plan driven here (core spans and
  // probes), then the submit path with a span per layer call.
  Tracer tracer(true);
  obs::MetricsRegistry registry;
  obs::RunObserver observer{&registry, nullptr};
  const EngineOptions observed = engine_options(&observer);
  LayerProbe probe;
  ServeSplit split;
  ServeTally traced;
  std::uint32_t next_id = 0;
  Digest traced_digest;
  for (const ServeCase& c : cases) {
    tracer.set_id(next_id++);
    const Scheduled plan =
        schedule_case(c.batch, HeuristicKind::kFullOne, observed, tracer, nullptr);
    ++result.attempted;
    if (!replay_clean(c.batch, plan)) ++result.failed;
    probe_layers(c.batch, plan.result.schedule, tracer, probe);
    traced_digest.add(static_cast<std::int64_t>(
        serve_case_traced(c, observed, tracer, next_id, split, traced)));
  }
  result.attempted += traced.decisions;
  result.failed += traced.failed + probe.replay_failures;
  if (traced_digest.value() != digest.value()) ++result.failed;
  add_counters(registry, result);
  add_span_notes(tracer, result);
  result.notes.emplace_back("probe_checksum", std::to_string(probe.checksum));
  result.metrics = layer_metrics(
      tracer, registry, probe, split,
      static_cast<double>(traced.decision_ns) / static_cast<double>(first.decision_ns) -
          1.0);
  return result;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  set_default_engine_jobs(1);
  if (options.workload == "paper_grid") {
    return run_batch(paper_grid_spec(options.smoke), options);
  }
  if (options.workload == "scale_huge_shape") {
    return run_batch(scale_spec(options.smoke), options);
  }
  if (options.workload == "serve_congested") return run_serve(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
