#include "sim/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/json.hpp"

namespace datastage::sim {

namespace {

constexpr int kSimPid = 1;
constexpr int kWallPid = 2;

/// Opens one event object with its name and phase; the caller adds the other
/// members and closes it.
void begin_event(std::string& out, std::string_view name, const char* phase) {
  if (out.back() != '[') out += ',';
  out += '{';
  obs::json_field(out, "name", name);
  obs::json_field(out, "ph", phase);
}

void begin_args(std::string& out) {
  obs::json_key(out, "args");
  out += '{';
}

void append_metadata(std::string& out, std::string_view name, int pid,
                     std::int64_t tid, std::string_view value) {
  begin_event(out, name, "M");
  obs::json_field(out, "pid", pid);
  obs::json_field(out, "tid", tid);
  begin_args(out);
  obs::json_field(out, "name", value);
  out += "}}";
}

}  // namespace

std::string chrome_trace_json(const Scenario& scenario, const Schedule& schedule,
                              const ChromeTraceOptions& options) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // --- pid 1: simulation time, one thread per physical link ---------------
  append_metadata(out, "process_name", kSimPid, 0, "simulation (sim time, us)");
  for (std::size_t i = 0; i < scenario.phys_links.size(); ++i) {
    const PhysicalLink& link = scenario.phys_links[i];
    const std::string label = "link " + std::to_string(i) + ": " +
                              scenario.machine(link.from).name + " -> " +
                              scenario.machine(link.to).name;
    append_metadata(out, "thread_name", kSimPid, link_track_id(i), label);
  }
  const std::int64_t miss_tid = miss_track_id(scenario.phys_links.size());
  if (options.outcomes != nullptr) {
    append_metadata(out, "thread_name", kSimPid, miss_tid, "deadline misses");
  }

  // Canonical slice order: physical link ascending, then start time, then the
  // remaining fields — independent of the order the scheduler emitted steps.
  std::vector<const CommStep*> steps;
  steps.reserve(schedule.size());
  for (const CommStep& step : schedule.steps()) steps.push_back(&step);
  std::sort(steps.begin(), steps.end(), [&](const CommStep* a, const CommStep* b) {
    const auto key = [&](const CommStep* s) {
      return std::tuple(scenario.vlink(s->link).phys.index(), s->start.usec(),
                        s->arrival.usec(), s->item.index(), s->link.index());
    };
    return key(a) < key(b);
  });
  for (const CommStep* step : steps) {
    const std::size_t phys = scenario.vlink(step->link).phys.index();
    begin_event(out, scenario.item(step->item).name, "X");
    obs::json_field(out, "pid", kSimPid);
    obs::json_field(out, "tid", link_track_id(phys));
    obs::json_field(out, "ts", step->start.usec());
    obs::json_field(out, "dur", (step->arrival - step->start).usec());
    begin_args(out);
    obs::json_field(out, "from", scenario.machine(step->from).name);
    obs::json_field(out, "to", scenario.machine(step->to).name);
    obs::json_field(out, "vlink", step->link.index());
    out += "}}";
  }

  if (options.outcomes != nullptr) {
    for (std::size_t i = 0; i < scenario.items.size(); ++i) {
      const DataItem& item = scenario.items[i];
      for (std::size_t k = 0; k < item.requests.size(); ++k) {
        if ((*options.outcomes)[i][k].satisfied) continue;
        const Request& request = item.requests[k];
        begin_event(out,
                    "miss " + item.name + " @" + scenario.machine(request.destination).name,
                    "i");
        obs::json_field(out, "s", "t");
        obs::json_field(out, "pid", kSimPid);
        obs::json_field(out, "tid", miss_tid);
        obs::json_field(out, "ts", request.deadline.usec());
        begin_args(out);
        obs::json_field(out, "item", i);
        obs::json_field(out, "k", k);
        out += "}}";
      }
    }
  }

  // --- pid 2: wall-clock engine phases, laid end to end -------------------
  if (options.phases != nullptr && !options.phases->phases().empty()) {
    append_metadata(out, "process_name", kWallPid, 0, "engine (wall clock)");
    append_metadata(out, "thread_name", kWallPid, 1, "phases");
    std::vector<std::string> order;
    for (const char* canonical : {"load", "schedule", "replay"}) {
      if (options.phases->nanos(canonical) > 0) order.emplace_back(canonical);
    }
    for (const auto& [phase, nanos] : options.phases->phases()) {
      if (std::find(order.begin(), order.end(), phase) == order.end()) {
        order.push_back(phase);
      }
    }
    double cursor_us = 0.0;
    for (const std::string& phase : order) {
      const double dur_us = static_cast<double>(options.phases->nanos(phase)) / 1e3;
      begin_event(out, phase, "X");
      obs::json_field(out, "pid", kWallPid);
      obs::json_field(out, "tid", 1);
      obs::json_field(out, "ts", cursor_us);
      obs::json_field(out, "dur", dur_us);
      begin_args(out);
      out += "}}";
      cursor_us += dur_us;
    }
  }

  out += "]}";
  return out;
}

}  // namespace datastage::sim
