// Scale-tier benchmark: wall time and peak memory of generation + scheduling
// as scenario size grows from the paper's grids to the `huge` preset
// (5000 machines, 500k requests). Produces BENCH_scale.json — the committed
// curve CI's perf-smoke job benchdiffs against (warn-only) — and a human
// table on stdout.
//
// Tiers run in ascending size order, each on one generated case with the
// serial engine (engine_jobs=1) so wall times are comparable run to run.
// Peak RSS is read from /proc/self/status VmHWM, which is monotone over the
// process lifetime; with ascending tiers the recorded value is the running
// peak, dominated by the tier itself once sizes grow past the predecessors
// (the huge tier's number is the real footprint).
//
// Extra flags on top of the shared bench set:
//   --out=PATH   JSON output path (default BENCH_scale.json)
//   --tier=T     comma-separated tiers out of "small", "medium", "large",
//                "xlarge" and "huge", or "all" (default all; CI's
//                perf-smoke runs --tier=small)
//
// The JSON records the host's core count and the build type next to the
// rows, so a curve is only compared against one from the same kind of host.
// Each row also counts the schedule's link traffic: `links_reserved` virtual
// links carry at least one step, and the busiest carries
// `max_link_reservations` — the size of the largest reservation set
// `LinkSchedule` held for that tier.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "bench_common.hpp"
#include "common_flags.hpp"
#include "core/registry.hpp"
#include "core/satisfaction.hpp"
#include "core/schedule.hpp"
#include "gen/generator.hpp"
#include "util/time.hpp"

namespace {

using namespace datastage;

/// Reads a kB-valued field (VmHWM, VmRSS) from /proc/self/status; 0 when the
/// field or the file is unavailable (non-Linux builds still run the bench,
/// they just report no memory numbers).
std::int64_t read_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen(  // ds-lint: allow(DS013 reads /proc, no output)
      "/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::int64_t value = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      std::sscanf(line + field_len + 1, "%" SCNd64, &value);
      break;
    }
  }
  std::fclose(f);
  return value;
#else
  (void)field;
  return 0;
#endif
}

/// Link traffic of a schedule: how many virtual links carry a step, and the
/// most steps any one of them carries.
struct LinkTraffic {
  std::size_t links_reserved = 0;
  std::size_t max_link_reservations = 0;
};

LinkTraffic link_traffic(const Scenario& scenario, const Schedule& schedule) {
  std::vector<std::size_t> per_link(scenario.virt_links.size(), 0);
  for (const CommStep& step : schedule.steps()) ++per_link[step.link.index()];
  LinkTraffic traffic;
  for (const std::size_t n : per_link) {
    if (n > 0) ++traffic.links_reserved;
    traffic.max_link_reservations = std::max(traffic.max_link_reservations, n);
  }
  return traffic;
}

struct Tier {
  const char* name;
  GeneratorConfig config;
};

/// Tiers named in the comma-separated `which` ("all" names every tier), in
/// ascending size order whatever the list order. Empty if a name is unknown.
std::vector<Tier> build_tiers(const std::string& which) {
  static constexpr const char* kNames[] = {"small", "medium", "large", "xlarge", "huge",
                                           "all"};
  std::vector<std::string> names;
  for (std::size_t start = 0;;) {
    const std::size_t comma = which.find(',', start);
    names.push_back(which.substr(start, comma - start));
    if (std::find(std::begin(kNames), std::end(kNames), names.back()) == std::end(kNames)) {
      return {};
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  // large: the paper's topology shape pushed to 64 machines (legacy sampling,
  // like every pre-scale grid). xlarge: first scalable-sampling tier — the
  // huge preset's shape at 1/5 the machine count.
  GeneratorConfig large = GeneratorConfig::paper();
  large.min_machines = 64;
  large.max_machines = 64;
  large.min_requests_per_machine = 40;
  large.max_requests_per_machine = 40;

  GeneratorConfig xlarge = GeneratorConfig::huge();
  xlarge.min_machines = 1000;
  xlarge.max_machines = 1000;
  xlarge.min_requests_per_machine = 50;
  xlarge.max_requests_per_machine = 50;

  std::vector<Tier> tiers;
  const auto want = [&names](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end() ||
           std::find(names.begin(), names.end(), "all") != names.end();
  };
  if (want("small")) tiers.push_back({"small", GeneratorConfig::light()});
  if (want("medium")) tiers.push_back({"medium", GeneratorConfig::paper()});
  if (want("large")) tiers.push_back({"large", large});
  if (want("xlarge")) tiers.push_back({"xlarge", xlarge});
  if (want("huge")) tiers.push_back({"huge", GeneratorConfig::huge()});
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  benchtool::BenchSetup setup;
  const std::optional<CliFlags> flags =
      benchtool::parse_bench_flags(argc, argv, setup, {"out", "tier"});
  if (!flags) return 1;
  const std::string out_path = flags->get_string("out", "BENCH_scale.json");
  const std::string tier_name = flags->get_string("tier", "all");
  const std::vector<Tier> tiers = build_tiers(tier_name);
  if (tiers.empty()) {
    std::fprintf(stderr,
                 "unknown --tier '%s' (use a comma-separated list of small, "
                 "medium, large, xlarge and huge, or all)\n",
                 tier_name.c_str());
    return 1;
  }

  setup.config.cases = 1;  // one case per tier; size, not repetition, varies
  benchtool::print_header("Scale curve: generation + scheduling (full_one/C4)",
                          setup);
  const SchedulerSpec spec{HeuristicKind::kFullOne, CostCriterion::kC4};

  EngineOptions options;
  options.weighting = setup.weighting;
  options.criterion = spec.criterion;
  options.eu = EUWeights::from_log10_ratio(1.0);
  options.engine_jobs = 1;

  Table table({"tier", "machines", "requests", "gen ms", "sched ms", "steps",
               "satisfied", "peak rss MB"});

  std::FILE* f = toolflags::open_output_cfile(out_path, "bench output");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "{\n  \"bench\": \"perf_scale\",\n  \"scheduler\": \"%s\",\n"
               "  \"seed\": %llu,\n",
               spec.name().c_str(),
               static_cast<unsigned long long>(setup.config.seed));
  benchtool::write_host_json(f);
  std::fprintf(f, "  \"tiers\": [\n");

  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const Tier& tier = tiers[t];

    const std::int64_t gen_t0 = steady_clock_nanos();
    std::vector<Scenario> cases = generate_cases(tier.config, setup.config.seed, 1);
    const std::int64_t gen_ns = steady_clock_nanos() - gen_t0;
    const Scenario& scenario = cases.front();

    const std::int64_t run_t0 = steady_clock_nanos();
    const StagingResult staged = run_spec(spec, scenario, options);
    const std::int64_t run_ns = steady_clock_nanos() - run_t0;

    const std::size_t satisfied = satisfied_count(staged.outcomes);
    const LinkTraffic traffic = link_traffic(scenario, staged.schedule);
    const std::int64_t vm_hwm_kb = read_status_kb("VmHWM");
    const std::int64_t vm_rss_kb = read_status_kb("VmRSS");

    table.add_row({tier.name, std::to_string(scenario.machine_count()),
                   std::to_string(scenario.request_count()),
                   format_double(static_cast<double>(gen_ns) / 1e6, 1),
                   format_double(static_cast<double>(run_ns) / 1e6, 1),
                   std::to_string(staged.schedule.size()),
                   std::to_string(satisfied),
                   format_double(static_cast<double>(vm_hwm_kb) / 1024.0, 0)});

    std::fprintf(
        f,
        "    {\n"
        "      \"tier\": \"%s\",\n"
        "      \"machines\": %zu,\n"
        "      \"phys_links\": %zu,\n"
        "      \"virt_links\": %zu,\n"
        "      \"items\": %zu,\n"
        "      \"requests\": %zu,\n"
        "      \"gen_wall_ns\": %" PRId64 ",\n"
        "      \"schedule_wall_ns\": %" PRId64 ",\n"
        "      \"steps\": %zu,\n"
        "      \"iterations\": %zu,\n"
        "      \"dijkstra_runs\": %zu,\n"
        "      \"satisfied\": %zu,\n"
        "      \"links_reserved\": %zu,\n"
        "      \"max_link_reservations\": %zu,\n"
        "      \"peak_rss_kb\": %" PRId64 ",\n"
        "      \"rss_kb\": %" PRId64 "\n"
        "    }%s\n",
        tier.name, scenario.machine_count(), scenario.phys_links.size(),
        scenario.virt_links.size(), scenario.item_count(),
        scenario.request_count(), gen_ns, run_ns, staged.schedule.size(),
        staged.iterations, staged.dijkstra_runs, satisfied, traffic.links_reserved,
        traffic.max_link_reservations, vm_hwm_kb, vm_rss_kb,
        t + 1 < tiers.size() ? "," : "");
  }

  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("%s\nwrote %s\n", table.to_text().c_str(), out_path.c_str());
  return 0;
}
