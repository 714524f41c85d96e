// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Human-readable lines come first; the last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_grid|scale_huge_shape|serve_congested --seed N "
               "--seconds S --trace 0|1\n",
               message);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(("missing value for " + flag).c_str());
    }
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      options.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 3600) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("host_cores=%d build_type=%s compiler=%s\n", host_cores(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "\n*** WARNING: perfbench was built WITHOUT optimization; its "
               "timings are meaningless. Build with CMAKE_BUILD_TYPE=Release. "
               "***\n\n");
  std::printf("WARNING: non-optimized build\n");
#endif
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, value] : result.deterministic) {
    std::printf("deterministic %s=%s\n", name.c_str(), value.c_str());
  }
  for (const auto& [name, value] : result.notes) {
    std::printf("note %s=%s\n", name.c_str(), value.c_str());
  }
  std::printf("error_frac=%.17g (%zu failed of %zu attempted)\n",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              result.failed, result.attempted);
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("metric %-40s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
