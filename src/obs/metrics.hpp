// Metrics registry: named counters, gauges and fixed-bucket histograms, plus
// monotonic phase timers.
//
// The registry is the aggregation side of the observability layer: hot paths
// hold pre-resolved Counter handles (one pointer indirection per increment,
// no lookups, no allocation), and reporting code exports the whole registry
// as an aligned text table or as JSON. Nothing in the library touches a
// registry unless a caller wires one up through obs::RunObserver — the
// default scheduling path never pays for any of this.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.hpp"

namespace datastage::obs {

class MetricsRegistry;

/// Cheap handle to a registry-owned counter slot. Copyable; valid as long as
/// the registry lives. A default-constructed handle drops increments, which
/// lets instrumented code hold handles unconditionally.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
    if (slot_ != nullptr) *slot_ += n;
  }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Fixed-bucket histogram: counts per upper bound (inclusive) plus an
/// overflow bucket, with running count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// One count per bound, plus the trailing overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank, clamped to the observed [min, max] so
  /// sparse buckets cannot widen the estimate. Always finite: the empty
  /// histogram reports 0.0 and overflow-bucket-only data interpolates
  /// between the last bound and the observed max — never NaN or infinity.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

 private:
  friend class MetricsRegistry;  // from_json rebuilds internal state exactly
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Returns a handle to the named counter, creating it at zero on first
  /// use. Handles stay valid for the registry's lifetime.
  Counter counter(std::string_view name);
  /// Current value of a counter; 0 when it was never created.
  std::uint64_t counter_value(std::string_view name) const;

  void set_gauge(std::string_view name, double value);
  void add_gauge(std::string_view name, double delta);
  /// Current value of a gauge; 0.0 when it was never set.
  double gauge_value(std::string_view name) const;

  /// Returns the named histogram, creating it with `upper_bounds` on first
  /// use (later calls ignore the bounds argument).
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);
  const Histogram* find_histogram(std::string_view name) const;

  bool empty() const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Folds `other` into this registry: counters and gauges add (gauges are
  /// treated as additive — phase seconds, totals), histograms merge
  /// bucket-wise (bounds must match; count/sum/min/max combine exactly).
  /// Lossless for counters and the aggregation primitive behind the parallel
  /// executor: per-job registries merged in job-index order produce output
  /// independent of thread count and completion order.
  void merge(const MetricsRegistry& other);

  /// (kind, name, value) rows, keys sorted, histograms summarized.
  Table to_table() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, keys sorted.
  std::string to_json() const;
  /// Inverse of to_json (bit-exact for counters, round-trip-exact doubles).
  static std::optional<MetricsRegistry> from_json(std::string_view json,
                                                  std::string* error = nullptr);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Accumulates wall-clock time per named phase, measured on the monotonic
/// steady clock. Totals never decrease.
class PhaseTimer {
 public:
  void add_nanos(std::string_view phase, std::int64_t nanos);

  /// Adds every phase total of `other` into this timer.
  void merge(const PhaseTimer& other);

  std::int64_t nanos(std::string_view phase) const;
  double seconds(std::string_view phase) const;
  const std::map<std::string, std::int64_t, std::less<>>& phases() const {
    return phases_;
  }

  /// Exports every phase as a gauge `<prefix><phase>_seconds`.
  void export_gauges(MetricsRegistry& registry,
                     const std::string& prefix = "phase.") const;

 private:
  std::map<std::string, std::int64_t, std::less<>> phases_;
};

/// RAII phase measurement: adds the scope's elapsed time to `timer` on
/// destruction. A null timer makes the scope cost one branch (observability
/// off). `phase` must outlive the scope; callers pass string literals.
class ScopedTimer {
 public:
  ScopedTimer(PhaseTimer* timer, std::string_view phase);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  PhaseTimer* timer_;
  std::string_view phase_;
  std::int64_t start_nanos_ = 0;
};

/// Snapshots the util/log emission counters (warnings/errors written to
/// stderr so far) into `log.warnings_emitted` / `log.errors_emitted`.
void record_log_metrics(MetricsRegistry& registry);

}  // namespace datastage::obs
