// In-memory spans recorded by the benchmark around its calls into the
// scheduler's layers. A span has a name, a start, an end, a parent and the id
// of the schedule or submit it belongs to. Spans stay in memory and are
// summarised once, when the run ends. A disabled tracer reads no clock and
// stores nothing, so the untraced and traced passes run the same code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into Tracer::spans(), -1 for a root
  std::uint32_t id = 0;      ///< schedule or submit the span belongs to
};

/// Totals of all spans sharing one name.
struct SpanTotals {
  std::size_t calls = 0;
  std::int64_t total_ns = 0;
  /// Duration minus the time covered by direct children.
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Sets the id stamped on spans opened from now on.
  void set_id(std::uint32_t id) { id_ = id; }

  /// Opens a span nested in the innermost open one; returns its handle
  /// (-1 when disabled).
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, datastage::steady_clock_nanos(), 0,
                          open_.empty() ? -1 : open_.back(), id_});
    open_.push_back(index);
    return index;
  }

  /// Closes the innermost open span, which must be `handle`.
  void close(std::int32_t handle) {
    if (handle < 0) return;
    spans_[static_cast<std::size_t>(handle)].end_ns = datastage::steady_clock_nanos();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals with self time. Call once every span is closed.
  std::map<std::string, SpanTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      SpanTotals& totals = out[spans_[i].name];
      ++totals.calls;
      totals.total_ns += duration;
      totals.self_ns += duration - child_ns[i];
    }
    return out;
  }

 private:
  bool enabled_;
  std::uint32_t id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), handle_(tracer.open(name)) {}
  ~SpanScope() { tracer_.close(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t handle_;
};

}  // namespace perfbench
