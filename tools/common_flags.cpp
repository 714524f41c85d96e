#include "common_flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "harness/parallel.hpp"
#include "obs/openmetrics.hpp"
#include "util/thread_pool.hpp"

namespace datastage::toolflags {

std::vector<std::string> with_common_flags(std::vector<std::string> extra) {
  std::vector<std::string> names{"seed",           "weighting",
                                 "jobs",           "engine-jobs",
                                 "paranoid",       "metrics-out",
                                 "metrics-format", "trace-out",
                                 "chrome-trace-out"};
  names.insert(names.end(), extra.begin(), extra.end());
  return names;
}

std::optional<PriorityWeighting> parse_weighting(const CliFlags& flags) {
  const std::string name = flags.get_string("weighting", "1,10,100");
  if (name == "1,10,100") return PriorityWeighting::w_1_10_100();
  if (name == "1,5,10") return PriorityWeighting::w_1_5_10();
  std::fprintf(stderr, "unknown --weighting '%s' (use 1,10,100 or 1,5,10)\n",
               name.c_str());
  return std::nullopt;
}

std::uint64_t seed_flag(const CliFlags& flags, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(fallback)));
}

std::size_t apply_jobs_flag(const CliFlags& flags) {
  set_default_jobs(static_cast<std::size_t>(flags.get_int("jobs", 0)));
  return default_jobs();
}

std::size_t apply_engine_jobs_flag(const CliFlags& flags) {
  const auto requested =
      static_cast<std::size_t>(flags.get_int("engine-jobs", 1));
  set_default_engine_jobs(requested);
  return requested == 0 ? ThreadPool::hardware_jobs() : requested;
}

bool open_output_file(std::ofstream& out, const std::string& path,
                      const char* what) {
  errno = 0;
  out.open(path);
  if (out.is_open()) return true;
  const int err = errno;
  std::fprintf(stderr, "cannot open %s %s: %s\n", what, path.c_str(),
               err != 0 ? std::strerror(err) : "open failed");
  return false;
}

std::FILE* open_output_cfile(const std::string& path, const char* what) {
  errno = 0;
  std::FILE* out = std::fopen(path.c_str(), "w");  // the sanctioned opener itself; DS013 exempts common_flags by scope
  if (out != nullptr) return out;
  const int err = errno;
  std::fprintf(stderr, "cannot open %s %s: %s\n", what, path.c_str(),
               err != 0 ? std::strerror(err) : "open failed");
  return nullptr;
}

bool Observability::open(const CliFlags& flags) {
  metrics_path_ = flags.get_string("metrics-out", "");
  trace_path_ = flags.get_string("trace-out", "");
  chrome_trace_path_ = flags.get_string("chrome-trace-out", "");
  const std::string format = flags.get_string("metrics-format", "json");
  if (format == "openmetrics") {
    openmetrics_ = true;
  } else if (format != "json") {
    std::fprintf(stderr, "unknown --metrics-format '%s' (use json or openmetrics)\n",
                 format.c_str());
    return false;
  }
  // The chrome sink opens eagerly like the others but does not activate the
  // observer: it is written from a finished schedule, not from engine hooks.
  if (!chrome_trace_path_.empty() &&
      !open_output_file(chrome_trace_file_, chrome_trace_path_,
                        "chrome trace file")) {
    return false;
  }
  active_ = !metrics_path_.empty() || !trace_path_.empty();
  if (!active_) return true;
  observer_.metrics = &registry_;
  // Full-document tools export phase gauges anyway, so attaching the phase
  // timer here costs nothing extra; byte-comparing harness code builds its
  // own RunObserver and leaves phases null.
  observer_.phases = &phases_;
  if (!metrics_path_.empty() &&
      !open_output_file(metrics_file_, metrics_path_, "metrics file")) {
    return false;
  }
  if (!trace_path_.empty()) {
    if (!open_output_file(trace_file_, trace_path_, "trace file")) return false;
    run_trace_.emplace(trace_file_);
    observer_.trace = &*run_trace_;
  }
  return true;
}

std::uint64_t Observability::trace_events_written() const {
  return run_trace_.has_value() ? run_trace_->events_written() : 0;
}

bool Observability::write_metrics() {
  if (metrics_path_.empty()) return true;
  phases_.export_gauges(registry_);
  obs::record_log_metrics(registry_);
  if (openmetrics_) {
    metrics_file_ << obs::to_openmetrics(registry_);
  } else {
    metrics_file_ << registry_.to_json() << '\n';
  }
  metrics_file_.flush();
  if (!metrics_file_) {
    std::fprintf(stderr, "cannot write metrics file %s\n", metrics_path_.c_str());
    return false;
  }
  return true;
}

bool Observability::write_metrics_document(const obs::MetricsRegistry& registry) {
  if (metrics_path_.empty()) return true;
  if (openmetrics_) {
    metrics_file_ << obs::to_openmetrics(registry);
  } else {
    metrics_file_ << registry.to_json() << '\n';
  }
  metrics_file_.flush();
  if (!metrics_file_) {
    std::fprintf(stderr, "cannot write metrics file %s\n", metrics_path_.c_str());
    return false;
  }
  return true;
}

bool Observability::write_chrome_trace(const std::string& json) {
  if (chrome_trace_path_.empty()) return true;
  chrome_trace_file_ << json << '\n';
  chrome_trace_file_.flush();
  if (!chrome_trace_file_) {
    std::fprintf(stderr, "cannot write chrome trace file %s\n",
                 chrome_trace_path_.c_str());
    return false;
  }
  return true;
}

EngineOptions make_engine_options(const CliFlags& flags,
                                  const PriorityWeighting& weighting,
                                  Observability& observability) {
  // Every tool prices the E-U axis at 10^--ratio with the paper's mid-axis
  // default of 10^1; tools without a --ratio flag get that default too.
  EngineOptions options;
  options.weighting = weighting;
  options.eu = EUWeights::from_log10_ratio(flags.get_double("ratio", 1.0));
  options.paranoid = flags.get_bool("paranoid", false);
  options.observer = observability.observer();
  return options;
}

}  // namespace datastage::toolflags
