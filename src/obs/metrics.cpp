#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace datastage::obs {

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  DS_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be sorted ascending");
}

void Histogram::observe(double v) {
  std::size_t bucket = bounds_.size();  // overflow by default
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = cum;
    cum += static_cast<double>(counts_[i]);
    if (cum < target) continue;
    // Bucket i spans (bounds[i-1], bounds[i]]; clamp to [min, max] so the
    // estimate never leaves the observed range (and the overflow bucket,
    // which has no upper bound, closes at max).
    const double hi = i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
    double lo = i == 0 ? min_ : std::max(bounds_[i - 1], min_);
    lo = std::min(lo, hi);
    const double frac = (target - before) / static_cast<double>(counts_[i]);
    return lo + frac * (hi - lo);
  }
  return max_;
}

// --- MetricsRegistry -------------------------------------------------------

Counter MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return Counter(&it->second);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::add_gauge(std::string_view name, double delta) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(upper_bounds)))
             .first;
  }
  return it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counter(name).inc(value);
  }
  for (const auto& [name, value] : other.gauges_) {
    add_gauge(name, value);
  }
  for (const auto& [name, theirs] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, theirs);
      continue;
    }
    Histogram& ours = it->second;
    DS_ASSERT_MSG(ours.bounds_ == theirs.bounds_,
                  "cannot merge histograms with different bucket bounds");
    for (std::size_t i = 0; i < ours.counts_.size(); ++i) {
      ours.counts_[i] += theirs.counts_[i];
    }
    if (theirs.count_ > 0) {
      if (ours.count_ == 0) {
        ours.min_ = theirs.min_;
        ours.max_ = theirs.max_;
      } else {
        ours.min_ = std::min(ours.min_, theirs.min_);
        ours.max_ = std::max(ours.max_, theirs.max_);
      }
      ours.count_ += theirs.count_;
      ours.sum_ += theirs.sum_;
    }
  }
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

Table MetricsRegistry::to_table() const {
  Table table({"kind", "name", "value"});
  for (const auto& [name, value] : counters_) {
    table.add_row({"counter", name, std::to_string(value)});
  }
  for (const auto& [name, value] : gauges_) {
    table.add_row({"gauge", name, format_double(value, 6)});
  }
  for (const auto& [name, h] : histograms_) {
    table.add_row({"histogram", name,
                   "count=" + std::to_string(h.count()) +
                       " mean=" + format_double(h.mean(), 3) +
                       " min=" + format_double(h.min(), 3) +
                       " max=" + format_double(h.max(), 3) +
                       " p50=" + format_double(h.p50(), 3) +
                       " p99=" + format_double(h.p99(), 3)});
  }
  return table;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + json_number(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      if (i != 0) out += ',';
      out += json_number(h.upper_bounds()[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(h.bucket_counts()[i]);
    }
    out += "],\"count\":" + std::to_string(h.count());
    out += ",\"sum\":" + json_number(h.sum());
    out += ",\"min\":" + json_number(h.min());
    out += ",\"max\":" + json_number(h.max());
    // Derived from the buckets above; from_json ignores them, so the
    // document still round-trips exactly.
    out += ",\"p50\":" + json_number(h.p50());
    out += ",\"p90\":" + json_number(h.p90());
    out += ",\"p99\":" + json_number(h.p99());
    out += '}';
  }
  out += "}}";
  return out;
}

std::optional<MetricsRegistry> MetricsRegistry::from_json(std::string_view json,
                                                          std::string* error) {
  const auto set_error = [error](const char* msg) {
    if (error != nullptr && error->empty()) *error = msg;
  };
  const std::optional<JsonValue> root = json_parse(json, error);
  if (!root.has_value()) return std::nullopt;
  if (!root->is_object()) {
    set_error("metrics document must be a JSON object");
    return std::nullopt;
  }

  MetricsRegistry registry;
  if (const JsonValue* counters = root->find("counters")) {
    if (!counters->is_object()) {
      set_error("\"counters\" must be an object");
      return std::nullopt;
    }
    for (const auto& [name, v] : counters->object) {
      if (!v.is_number()) {
        set_error("counter values must be numbers");
        return std::nullopt;
      }
      registry.counter(name).inc(static_cast<std::uint64_t>(v.number));
    }
  }
  if (const JsonValue* gauges = root->find("gauges")) {
    if (!gauges->is_object()) {
      set_error("\"gauges\" must be an object");
      return std::nullopt;
    }
    for (const auto& [name, v] : gauges->object) {
      if (!v.is_number()) {
        set_error("gauge values must be numbers");
        return std::nullopt;
      }
      registry.set_gauge(name, v.number);
    }
  }
  if (const JsonValue* histograms = root->find("histograms")) {
    if (!histograms->is_object()) {
      set_error("\"histograms\" must be an object");
      return std::nullopt;
    }
    for (const auto& [name, v] : histograms->object) {
      const JsonValue* bounds = v.find("bounds");
      const JsonValue* counts = v.find("counts");
      if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
          !counts->is_array() || counts->array.size() != bounds->array.size() + 1) {
        set_error("malformed histogram entry");
        return std::nullopt;
      }
      std::vector<double> upper;
      upper.reserve(bounds->array.size());
      for (const JsonValue& b : bounds->array) upper.push_back(b.number);
      Histogram& h = registry.histogram(name, std::move(upper));
      // Reconstruct internal state via direct assignment-equivalent observes
      // is lossy for min/max; rebuild the exact fields instead.
      h.counts_ = {};
      h.counts_.reserve(counts->array.size());
      for (const JsonValue& c : counts->array) {
        h.counts_.push_back(static_cast<std::uint64_t>(c.number));
      }
      const JsonValue* count = v.find("count");
      const JsonValue* sum = v.find("sum");
      const JsonValue* min = v.find("min");
      const JsonValue* max = v.find("max");
      h.count_ = count != nullptr ? static_cast<std::uint64_t>(count->number) : 0;
      h.sum_ = sum != nullptr ? sum->number : 0.0;
      h.min_ = min != nullptr ? min->number : 0.0;
      h.max_ = max != nullptr ? max->number : 0.0;
    }
  }
  return registry;
}

// --- PhaseTimer ------------------------------------------------------------

void PhaseTimer::add_nanos(std::string_view phase, std::int64_t nanos) {
  DS_ASSERT_MSG(nanos >= 0, "phase durations are nonnegative");
  auto it = phases_.find(phase);
  if (it == phases_.end()) {
    phases_.emplace(std::string(phase), nanos);
  } else {
    it->second += nanos;
  }
}

void PhaseTimer::merge(const PhaseTimer& other) {
  for (const auto& [phase, nanos] : other.phases_) add_nanos(phase, nanos);
}

std::int64_t PhaseTimer::nanos(std::string_view phase) const {
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second;
}

double PhaseTimer::seconds(std::string_view phase) const {
  return static_cast<double>(nanos(phase)) / 1e9;
}

void PhaseTimer::export_gauges(MetricsRegistry& registry,
                               const std::string& prefix) const {
  for (const auto& [phase, nanos] : phases_) {
    registry.set_gauge(prefix + phase + "_seconds", static_cast<double>(nanos) / 1e9);
  }
}

ScopedTimer::ScopedTimer(PhaseTimer* timer, std::string_view phase)
    : timer_(timer), phase_(phase) {
  if (timer_ != nullptr) start_nanos_ = steady_clock_nanos();
}

ScopedTimer::~ScopedTimer() {
  if (timer_ == nullptr) return;
  const std::int64_t elapsed = steady_clock_nanos() - start_nanos_;
  timer_->add_nanos(phase_, elapsed >= 0 ? elapsed : 0);
}

void record_log_metrics(MetricsRegistry& registry) {
  registry.counter("log.warnings_emitted")
      .inc(static_cast<std::uint64_t>(log_warnings_emitted()));
  registry.counter("log.errors_emitted")
      .inc(static_cast<std::uint64_t>(log_errors_emitted()));
}

}  // namespace datastage::obs
