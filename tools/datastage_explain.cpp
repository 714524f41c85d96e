// datastage_explain — answer "why did request X miss its deadline?" from a
// structured run trace.
//
//   $ datastage_run case7.ds --trace-out=run.jsonl
//   $ datastage_explain run.jsonl --summary
//   $ datastage_explain run.jsonl --request=3:0
//
// Modes (default: --summary):
//   --summary        run overview plus a loss-reason x priority breakdown
//                    table over the final per-request outcome events
//   --request=I[:K]  full decision history of item I (optionally narrowed to
//                    request k): recomputes, commits, invalidations,
//                    feasibility transitions and the final outcome, in trace
//                    order with the structured loss reason
//   --schedule=F     cross-check: also list the saved schedule's steps for
//                    the item under --request
//
// Exit status: 0 on success, 1 on usage errors, 2 when the trace or schedule
// file cannot be read or parsed.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule_io.hpp"
#include "obs/trace_reader.hpp"
#include "util/cli.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

using namespace datastage;

namespace {

struct RequestSelector {
  std::int64_t item = -1;
  std::int64_t k = -1;  ///< -1: every request of the item
};

std::optional<RequestSelector> parse_request_flag(const std::string& spec) {
  RequestSelector sel;
  const std::string_view text(spec);
  const std::size_t colon = text.find(':');
  if (parse_number(text.substr(0, colon), sel.item) != NumberParse::kOk ||
      (colon != std::string::npos &&
       parse_number(text.substr(colon + 1), sel.k) != NumberParse::kOk)) {
    return std::nullopt;
  }
  if (sel.item < 0 || (colon != std::string::npos && sel.k < 0)) return std::nullopt;
  return sel;
}

std::string priority_label(std::int64_t p) {
  switch (p) {
    case 0:
      return "low";
    case 1:
      return "medium";
    case 2:
      return "high";
    default:
      return "P" + std::to_string(p);
  }
}

/// True when `e` is part of the decision history of (item[, k]).
bool concerns(const obs::TraceEvent& e, const RequestSelector& sel) {
  if (e.type == "recompute" || e.type == "commit") {
    return e.num("item") == sel.item;
  }
  if (e.type == "invalidate") {
    return e.num("item") == sel.item || e.num("by_item") == sel.item;
  }
  if (e.type == "request_lost" || e.type == "request_revived" ||
      e.type == "request_satisfied" || e.type == "request") {
    if (e.num("item") != sel.item) return false;
    return sel.k < 0 || e.num("k") == sel.k;
  }
  return false;
}

std::string describe(const obs::TraceEvent& e) {
  std::string out = "seq=" + std::to_string(e.seq);
  if (e.has("iter")) out += " iter=" + std::to_string(e.num("iter"));
  out += "  " + e.type;
  if (e.type == "recompute") {
    out += std::string(": route tree ") +
           (e.flag("repaired")   ? "repaired"
            : e.flag("replayed") ? "replayed"
                                 : "recomputed") +
           " (" +
           std::to_string(e.num("pending")) + " pending)";
  } else if (e.type == "commit") {
    out += ": transfer " + std::to_string(e.num("from")) + " -> " +
           std::to_string(e.num("to")) + " over link " +
           std::to_string(e.num("link")) + " [" +
           std::to_string(e.num("start_usec")) + ", " +
           std::to_string(e.num("arrival_usec")) + ") us";
    const std::int64_t satisfied = e.num("satisfied", 0);
    if (satisfied > 0) {
      out += ", satisfied " + std::to_string(satisfied) + " request(s)";
    }
  } else if (e.type == "invalidate") {
    out += ": plan of item " + std::to_string(e.num("item")) +
           " dirtied by item " + std::to_string(e.num("by_item")) + " (" +
           e.str("cause") + " conflict)";
  } else if (e.type == "request_lost") {
    out += ": request k=" + std::to_string(e.num("k")) + " at machine " +
           std::to_string(e.num("dest")) + " became infeasible (" +
           e.str("reason") + ")";
    if (e.has("lost_to")) {
      out += " after a commit for item " + std::to_string(e.num("lost_to"));
    }
  } else if (e.type == "request_revived") {
    out += ": request k=" + std::to_string(e.num("k")) + " feasible again";
  } else if (e.type == "request_satisfied") {
    out += ": request k=" + std::to_string(e.num("k")) + " satisfied at " +
           std::to_string(e.num("arrival_usec")) + " us (slack " +
           std::to_string(e.num("slack_usec")) + " us)";
  } else if (e.type == "request") {
    out += ": final outcome k=" + std::to_string(e.num("k")) + " " +
           (e.flag("satisfied") ? "SATISFIED" : "UNSATISFIED");
    if (e.has("arrival_usec")) {
      out += " (arrived " + std::to_string(e.num("arrival_usec")) +
             " us, deadline " + std::to_string(e.num("deadline_usec")) + " us)";
    } else {
      out += " (never arrived, deadline " +
             std::to_string(e.num("deadline_usec")) + " us)";
    }
    if (e.has("reason")) out += " reason=" + e.str("reason");
    if (e.has("lost_to")) out += " lost_to=item " + std::to_string(e.num("lost_to"));
  }
  return out;
}

int explain_request(const std::vector<obs::TraceEvent>& events,
                    const RequestSelector& sel, const std::string& schedule_path) {
  std::printf("Decision history for item %lld%s:\n",
              static_cast<long long>(sel.item),
              sel.k >= 0 ? (", request k=" + std::to_string(sel.k)).c_str() : "");
  std::size_t shown = 0;
  for (const obs::TraceEvent& e : events) {
    if (!concerns(e, sel)) continue;
    std::printf("  %s\n", describe(e).c_str());
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (no trace events mention this request — wrong item id, or the "
                "trace was recorded without lifecycle events)\n");
  }

  if (!schedule_path.empty()) {
    std::string error;
    const std::optional<Schedule> schedule = load_schedule(schedule_path, &error);
    if (!schedule.has_value()) {
      std::fprintf(stderr, "cannot load schedule: %s\n", error.c_str());
      return 2;
    }
    std::printf("\nScheduled transfers of item %lld in %s:\n",
                static_cast<long long>(sel.item), schedule_path.c_str());
    std::size_t steps = 0;
    for (const CommStep& step : schedule->steps()) {
      if (step.item.value() != sel.item) continue;
      std::printf("  %s -> %s over vlink %d [%lld, %lld) us\n",
                  std::to_string(step.from.value()).c_str(),
                  std::to_string(step.to.value()).c_str(), step.link.value(),
                  static_cast<long long>(step.start.usec()),
                  static_cast<long long>(step.arrival.usec()));
      ++steps;
    }
    if (steps == 0) std::printf("  (none)\n");
  }
  return 0;
}

int explain_summary(const std::vector<obs::TraceEvent>& events) {
  std::size_t satisfied = 0;
  std::size_t unsatisfied = 0;
  std::size_t requeues = 0;
  std::size_t recovered = 0;
  // reason -> priority -> count, insertion-ordered by first sighting.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> reasons;
  const obs::TraceEvent* finish = nullptr;

  for (const obs::TraceEvent& e : events) {
    if (e.type == "finish") finish = &e;
    if (e.type == "requeue") ++requeues;
    if (e.type == "request_recovered") ++recovered;
    if (e.type != "request") continue;
    if (e.flag("satisfied")) {
      ++satisfied;
      continue;
    }
    ++unsatisfied;
    const std::string reason = e.str("reason", "(traced without lifecycle)");
    const std::int64_t priority = e.num("priority", 0);
    auto it = std::find_if(reasons.begin(), reasons.end(),
                           [&](const auto& r) { return r.first == reason; });
    if (it == reasons.end()) {
      reasons.emplace_back(reason, std::vector<std::size_t>(3, 0));
      it = reasons.end() - 1;
    }
    if (priority >= 0 && priority < 3) ++it->second[static_cast<std::size_t>(priority)];
  }

  std::printf("Run summary:\n");
  if (finish != nullptr) {
    std::printf("  iterations:     %lld\n",
                static_cast<long long>(finish->num("iterations")));
    std::printf("  transfers:      %lld\n", static_cast<long long>(finish->num("steps")));
    std::printf("  dijkstra runs:  %lld\n",
                static_cast<long long>(finish->num("dijkstra_runs")));
    if (finish->flag("guard_tripped")) {
      std::printf("  iteration guard TRIPPED — the loop was cut short\n");
    }
  }
  std::printf("  satisfied:      %zu\n", satisfied);
  std::printf("  unsatisfied:    %zu\n", unsatisfied);
  if (requeues > 0 || recovered > 0) {
    std::printf("  fault requeues: %zu (%zu recovered)\n", requeues, recovered);
  }

  if (!reasons.empty()) {
    Table table({"loss reason", priority_label(2), priority_label(1),
                 priority_label(0), "total"});
    for (const auto& [reason, by_priority] : reasons) {
      const std::size_t total = by_priority[0] + by_priority[1] + by_priority[2];
      table.add_row({reason, std::to_string(by_priority[2]),
                     std::to_string(by_priority[1]), std::to_string(by_priority[0]),
                     std::to_string(total)});
    }
    std::printf("\nLoss reasons (by priority class):\n%s", table.to_text().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!flags.parse(argc, argv, {"request", "summary", "schedule"})) return 1;
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: datastage_explain <trace.jsonl> "
                         "[--request=ITEM[:K]] [--summary] [--schedule=F]\n");
    return 1;
  }

  std::string error;
  const std::optional<std::vector<obs::TraceEvent>> events =
      obs::read_trace_file(flags.positional().front(), &error);
  if (!events.has_value()) {
    std::fprintf(stderr, "cannot read trace: %s\n", error.c_str());
    return 2;
  }

  const std::string request_spec = flags.get_string("request", "");
  if (!request_spec.empty()) {
    const std::optional<RequestSelector> sel = parse_request_flag(request_spec);
    if (!sel.has_value()) {
      std::fprintf(stderr, "bad --request '%s' (expected ITEM or ITEM:K)\n",
                   request_spec.c_str());
      return 1;
    }
    return explain_request(*events, *sel, flags.get_string("schedule", ""));
  }
  return explain_summary(*events);
}
