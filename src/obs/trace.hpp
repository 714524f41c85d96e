// Structured run traces: one JSON object per line (JSON-lines), one line per
// scheduling-relevant event.
//
// A RunTrace is the event side of the observability layer: where the metrics
// registry answers "how many", the trace answers "what happened, in order".
// Every event carries a monotonically increasing sequence number and a type;
// emitters add their own fields (iteration index, simulation times in
// microseconds, ids). The sink is a caller-owned std::ostream, so traces can
// go to a file, a string buffer in tests, or stderr.
//
// Like the registry, a trace only exists when a caller wires one up through
// obs::RunObserver; unobserved runs never construct events.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace datastage::obs {

class RunTrace {
 public:
  /// Builder for one trace line; fields append in call order and the line is
  /// written when the Event goes out of scope.
  class Event {
   public:
    ~Event();
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /// Appends `"key":value`, rendered by obs::json_field.
    template <typename T>
    Event& field(const char* key, const T& value) {
      json_field(line_, key, value);
      return *this;
    }

   private:
    friend class RunTrace;
    Event(RunTrace& trace, std::string_view type);

    RunTrace* trace_;
    std::string line_;
  };

  /// The trace writes to `os` for its whole lifetime; `os` must outlive it.
  explicit RunTrace(std::ostream& os) : os_(&os) {}

  /// Starts an event of the given type. The returned builder must be used
  /// within the statement or a local scope (the line flushes on destruction).
  Event event(std::string_view type) { return Event(*this, type); }

  /// Number of completed (written) events.
  std::uint64_t events_written() const { return events_written_; }

 private:
  void write_line(const std::string& line);

  std::ostream* os_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_written_ = 0;
};

}  // namespace datastage::obs
