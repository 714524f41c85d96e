// datastage_benchdiff — compare two BENCH_*.json documents metric by metric.
//
//   $ build/bench/perf_engine --json=BENCH_new.json
//   $ datastage_benchdiff BENCH_engine.json BENCH_new.json
//
// Both files are flattened to dotted numeric leaves (arrays by index, bools
// as 0/1; `host_cores`, like the string `build_type`, labels the host and is
// no metric) and each metric's relative deviation |cur-base|/|base| is
// checked against a per-kind threshold:
//
//   --threshold=F       deterministic metrics (counters), default 0.10
//   --time-threshold=F  wall-clock metrics (path contains "wall"/"speedup"
//                       or ends in _ns/_ms/_seconds), default 0.50 — timing
//                       on shared CI runners is noisy
//   --thresholds=S      per-metric overrides "substr=frac[,substr=frac...]";
//                       the first matching substring wins
//   --warn-only         print regressions but exit 0 (CI soak-in mode); a
//                       missing, empty or unparsable baseline is a warning
//                       too (nothing to compare against yet)
//
// Metrics present on only one side are listed but never fail the diff (new
// counters appear as instrumentation grows; that is not a regression).
//
// Exit status: 0 when every shared metric is within threshold (or
// --warn-only), 1 when at least one deviates, 2 on file or parse errors —
// except a bad baseline under --warn-only, which exits 0. An unreadable
// current document always exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/parse_number.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace datastage;

namespace {

struct Metric {
  std::string path;
  double value = 0.0;
};

void flatten(const obs::JsonValue& value, const std::string& prefix,
             std::vector<Metric>& out) {
  using Kind = obs::JsonValue::Kind;
  switch (value.kind) {
    case Kind::kNumber:
      out.push_back({prefix, value.number});
      break;
    case Kind::kBool:
      out.push_back({prefix, value.boolean ? 1.0 : 0.0});
      break;
    case Kind::kObject:
      for (const auto& [key, child] : value.object) {
        if (key == "host_cores") continue;  // a host fact, not a measurement
        flatten(child, prefix.empty() ? key : prefix + '.' + key, out);
      }
      break;
    case Kind::kArray:
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        flatten(value.array[i], prefix + '.' + std::to_string(i), out);
      }
      break;
    default:
      break;  // strings and nulls are labels, not metrics
  }
}

std::optional<std::vector<Metric>> load_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open bench file %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const std::optional<obs::JsonValue> root = obs::json_parse(buffer.str(), &error);
  if (!root.has_value()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  std::vector<Metric> metrics;
  flatten(*root, "", metrics);
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.path < b.path; });
  return metrics;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::string_view sv(suffix);
  return s.size() >= sv.size() && s.compare(s.size() - sv.size(), sv.size(), sv) == 0;
}

bool is_time_metric(const std::string& path) {
  return path.find("wall") != std::string::npos ||
         path.find("speedup") != std::string::npos || ends_with(path, "_ns") ||
         ends_with(path, "_ms") || ends_with(path, "_seconds");
}

struct Override {
  std::string substring;
  double threshold = 0.0;
};

std::optional<std::vector<Override>> parse_overrides(const std::string& spec) {
  std::vector<Override> overrides;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    double threshold = 0.0;
    if (parse_number(std::string_view(entry).substr(eq + 1), threshold) != NumberParse::kOk) {
      return std::nullopt;
    }
    overrides.push_back({entry.substr(0, eq), threshold});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return overrides;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv,
                   {"threshold", "time-threshold", "thresholds", "warn-only"})) {
    return 1;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: datastage_benchdiff <baseline.json> <current.json> "
                 "[--threshold=F] [--time-threshold=F] "
                 "[--thresholds=substr=frac,...] [--warn-only]\n");
    return 1;
  }
  const double default_threshold = flags.get_double("threshold", 0.10);
  const double time_threshold = flags.get_double("time-threshold", 0.50);
  const bool warn_only = flags.get_bool("warn-only", false);
  const std::optional<std::vector<Override>> overrides =
      parse_overrides(flags.get_string("thresholds", ""));
  if (!overrides.has_value()) {
    std::fprintf(stderr, "bad --thresholds (expected substr=frac[,substr=frac...])\n");
    return 1;
  }

  const std::optional<std::vector<Metric>> baseline =
      load_metrics(flags.positional()[0]);
  const std::optional<std::vector<Metric>> current =
      load_metrics(flags.positional()[1]);
  if (!current.has_value()) return 2;
  if (!baseline.has_value()) {
    if (!warn_only) return 2;
    std::printf("benchdiff: warning: baseline %s unusable, nothing compared "
                "(--warn-only: exit 0)\n",
                flags.positional()[0].c_str());
    return 0;
  }

  const auto threshold_for = [&](const std::string& path) {
    for (const Override& o : *overrides) {
      if (path.find(o.substring) != std::string::npos) return o.threshold;
    }
    return is_time_metric(path) ? time_threshold : default_threshold;
  };

  Table regressions({"metric", "baseline", "current", "delta", "threshold"});
  std::size_t compared = 0;
  std::size_t failed = 0;
  std::vector<std::string> only_baseline;
  std::vector<std::string> only_current;

  // Both lists are sorted by path: one merge pass pairs the shared metrics.
  std::size_t b = 0;
  std::size_t c = 0;
  while (b < baseline->size() || c < current->size()) {
    if (c >= current->size() ||
        (b < baseline->size() && (*baseline)[b].path < (*current)[c].path)) {
      only_baseline.push_back((*baseline)[b].path);
      ++b;
      continue;
    }
    if (b >= baseline->size() || (*current)[c].path < (*baseline)[b].path) {
      only_current.push_back((*current)[c].path);
      ++c;
      continue;
    }
    const Metric& base = (*baseline)[b];
    const Metric& cur = (*current)[c];
    ++b;
    ++c;
    ++compared;
    const double deviation =
        base.value == 0.0
            ? (cur.value == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
            : std::abs(cur.value - base.value) / std::abs(base.value);
    const double threshold = threshold_for(base.path);
    if (deviation <= threshold) continue;
    ++failed;
    regressions.add_row({base.path, format_double(base.value, 3),
                         format_double(cur.value, 3),
                         std::isinf(deviation) ? "inf"
                                               : format_double(deviation * 100.0, 1) + "%",
                         format_double(threshold * 100.0, 1) + "%"});
  }

  std::printf("benchdiff: %zu shared metrics compared, %zu outside threshold\n",
              compared, failed);
  if (!only_baseline.empty()) {
    std::printf("only in baseline (%zu): %s%s\n", only_baseline.size(),
                only_baseline.front().c_str(),
                only_baseline.size() > 1 ? ", ..." : "");
  }
  if (!only_current.empty()) {
    std::printf("only in current (%zu): %s%s\n", only_current.size(),
                only_current.front().c_str(), only_current.size() > 1 ? ", ..." : "");
  }
  if (failed > 0) {
    std::printf("\n%s", regressions.to_text().c_str());
    if (warn_only) {
      std::printf("(--warn-only: regressions reported, exit 0)\n");
      return 0;
    }
    return 1;
  }
  return 0;
}
