#include "serve/serve_session.hpp"

#include <utility>

#include "obs/json.hpp"
#include "util/assert.hpp"

namespace datastage {

namespace {

const char* request_status_name(DynamicRequestStatus status) {
  switch (status) {
    case DynamicRequestStatus::kUnknown:
      return "unknown";
    case DynamicRequestStatus::kPending:
      return "pending";
    case DynamicRequestStatus::kSatisfied:
      return "satisfied";
    case DynamicRequestStatus::kUnsatisfied:
      return "unsatisfied";
    case DynamicRequestStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// Starts a success line: {"v":1,"ok":true,"cmd":"<cmd>". Every response
/// opens with the same two fixed keys so consumers can dispatch cheaply.
std::string begin_ok(const char* cmd) {
  std::string line = "{";
  obs::json_field(line, "v", kServeProtocolVersion);
  obs::json_field(line, "ok", true);
  obs::json_field(line, "cmd", cmd);
  return line;
}

std::string session_error(ServeErrorCode code, std::string message) {
  return error_response(ServeError{code, std::move(message)});
}

}  // namespace

ServeSession::ServeSession(Scenario initial, ServiceOptions options)
    : service_(initial, options),
      weighting_(std::move(options.engine.weighting)) {
  for (std::size_t i = 0; i < initial.machines.size(); ++i) {
    machines_.emplace(initial.machines[i].name,
                      MachineId(static_cast<std::int32_t>(i)));
  }
}

std::string ServeSession::handle_line(std::string_view line) {
  ServeError error;
  const std::optional<ServeCommand> command = parse_command(line, &error);
  if (!command.has_value()) return error_response(error);
  return handle(*command);
}

std::string ServeSession::handle(const ServeCommand& command) {
  if (shut_down_) {
    return session_error(ServeErrorCode::kShutdown,
                         "session is shut down");
  }
  if (const auto* submit = std::get_if<SubmitCommand>(&command)) {
    return handle_submit(*submit);
  }
  if (const auto* cancel = std::get_if<CancelCommand>(&command)) {
    return handle_cancel(*cancel);
  }
  if (const auto* query = std::get_if<QueryCommand>(&command)) {
    return handle_query(*query);
  }
  if (const auto* advance = std::get_if<AdvanceCommand>(&command)) {
    if (advance->to < service_.now()) {
      return session_error(ServeErrorCode::kTimeRegression,
                           "cannot advance to the past");
    }
    service_.advance_to(advance->to);
    std::string line = begin_ok("advance");
    obs::json_field(line, "now_usec", service_.now().usec());
    line += "}";
    return line;
  }
  if (std::holds_alternative<StatsCommand>(command)) return handle_stats();
  return handle_shutdown();
}

std::string ServeSession::handle_submit(const SubmitCommand& submit) {
  if (requests_.find(submit.id) != requests_.end()) {
    return session_error(ServeErrorCode::kDuplicateId,
                         "id '" + submit.id + "' was already submitted");
  }
  if (submit.at < service_.now()) {
    return session_error(ServeErrorCode::kTimeRegression,
                         "cannot submit in the past");
  }
  const auto dest = machines_.find(submit.dest);
  if (dest == machines_.end()) {
    return session_error(ServeErrorCode::kUnknownMachine,
                         "unknown machine '" + submit.dest + "'");
  }

  SubmitRequest request;
  request.at = submit.at;
  request.item_name = submit.item;
  request.request =
      Request{dest->second, submit.deadline, submit.priority};
  if (submit.new_item.has_value()) {
    if (service_.has_item(submit.item)) {
      return session_error(ServeErrorCode::kInvalidItem,
                           "item '" + submit.item + "' already exists");
    }
    DataItem item;
    item.name = submit.item;
    item.size_bytes = submit.new_item->size_bytes;
    for (const NewItemPayload::Source& source : submit.new_item->sources) {
      const auto machine = machines_.find(source.machine);
      if (machine == machines_.end()) {
        return session_error(ServeErrorCode::kUnknownMachine,
                             "unknown machine '" + source.machine + "'");
      }
      for (const SourceLocation& earlier : item.sources) {
        if (earlier.machine == machine->second) {
          return session_error(ServeErrorCode::kInvalidItem,
                               "item '" + submit.item + "' names source machine '" +
                                   source.machine + "' twice");
        }
      }
      item.sources.push_back(SourceLocation{machine->second,
                                            source.available_at});
    }
    request.new_item = std::move(item);
  } else if (!service_.has_item(submit.item)) {
    return session_error(ServeErrorCode::kUnknownItem,
                         "unknown item '" + submit.item + "'");
  }
  if (service_.request_status(submit.item, dest->second) ==
      DynamicRequestStatus::kPending) {
    return session_error(ServeErrorCode::kDuplicateRequest,
                         "a request for ('" + submit.item + "', '" +
                             submit.dest + "') is already outstanding");
  }
  const AdmissionDecision decision = service_.submit(request);
  if (decision.outcome == AdmissionOutcome::kInvalidItem) {
    return session_error(ServeErrorCode::kInvalidItem,
                         "item '" + submit.item + "' does not fit its source machines");
  }
  requests_.emplace(submit.id, decision.admitted()
                                   ? std::optional<RequestRef>(decision.request)
                                   : std::nullopt);

  std::string line = begin_ok("submit");
  obs::json_field(line, "id", submit.id);
  obs::json_field(line, "outcome", admission_outcome_name(decision.outcome));
  obs::json_field(line, "admitted", decision.admitted());
  obs::json_field(line, "quick_checked", decision.quick_checked);
  obs::json_field(line, "quick_feasible", decision.quick_feasible);
  if (!decision.quick_arrival.is_infinite()) {
    obs::json_field(line, "quick_arrival_usec", decision.quick_arrival.usec());
  }
  if (!decision.planned_arrival.is_infinite()) {
    obs::json_field(line, "planned_arrival_usec", decision.planned_arrival.usec());
  }
  obs::json_field(line, "replans", decision.replans);
  obs::json_field(line, "committed_value", decision.committed_value);
  line += "}";
  return line;
}

std::string ServeSession::handle_cancel(const CancelCommand& cancel) {
  const auto it = requests_.find(cancel.id);
  if (it == requests_.end()) {
    return session_error(ServeErrorCode::kUnknownId,
                         "unknown id '" + cancel.id + "'");
  }
  if (cancel.at < service_.now()) {
    return session_error(ServeErrorCode::kTimeRegression,
                         "cannot cancel in the past");
  }
  // A rejected or resolved request has nothing outstanding to withdraw;
  // the cancel is then a no-op, but time still passes to `at`.
  bool withdrawn = false;
  if (it->second.has_value()) {
    withdrawn = service_.cancel(*it->second, cancel.at);
  } else {
    service_.advance_to(cancel.at);
  }
  std::string line = begin_ok("cancel");
  obs::json_field(line, "id", cancel.id);
  obs::json_field(line, "cancelled", withdrawn);
  obs::json_field(line, "now_usec", service_.now().usec());
  line += "}";
  return line;
}

std::string ServeSession::handle_query(const QueryCommand& query) {
  const auto it = requests_.find(query.id);
  if (it == requests_.end()) {
    return session_error(ServeErrorCode::kUnknownId,
                         "unknown id '" + query.id + "'");
  }
  std::string line = begin_ok("query");
  obs::json_field(line, "id", query.id);
  if (!it->second.has_value()) {
    obs::json_field(line, "status", "rejected");
  } else {
    const DynamicRequestStatus status = service_.request_status(*it->second);
    obs::json_field(line, "status", request_status_name(status));
    const SimTime arrival = service_.planned_arrival(*it->second);
    if ((status == DynamicRequestStatus::kSatisfied ||
         status == DynamicRequestStatus::kPending) &&
        !arrival.is_infinite()) {
      obs::json_field(line, "arrival_usec", arrival.usec());
    }
  }
  line += "}";
  return line;
}

std::string ServeSession::handle_stats() const {
  const ServiceSnapshot snap = service_.snapshot();
  std::string line = begin_ok("stats");
  obs::json_field(line, "now_usec", snap.now.usec());
  obs::json_field(line, "submits", snap.admission.submits);
  obs::json_field(line, "admitted", snap.admission.admitted);
  obs::json_field(line, "already_satisfied", snap.admission.already_satisfied);
  obs::json_field(line, "quick_rejects", snap.admission.quick_rejects);
  obs::json_field(line, "full_rejects", snap.admission.full_rejects);
  obs::json_field(line, "cancelled", snap.admission.cancelled);
  obs::json_field(line, "replans", snap.dynamic.replans);
  obs::json_field(line, "committed_steps", snap.committed_steps);
  obs::json_field(line, "planned_steps", snap.planned_steps);
  obs::json_field(line, "committed_value", snap.committed_value);
  obs::json_field(line, "topology_builds", snap.dynamic.topology_builds);
  obs::json_field(line, "residual_builds", snap.dynamic.residual_builds);
  obs::json_field(line, "world_patches", snap.dynamic.world_patches);
  obs::json_field(line, "tree_replays", snap.dynamic.engine.tree_replays);
  obs::json_field(line, "replay_misses", snap.dynamic.engine.total_misses());
  obs::json_key(line, "replay_misses_by_reason");
  line += "{";
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
    obs::json_field(line, replay_miss_name(static_cast<ReplayMiss>(r)),
                    snap.dynamic.engine.replay_misses[r]);
  }
  line += "}";
  obs::json_field(line, "withdrawals_kept_plan", snap.dynamic.withdrawals_kept_plan);
  obs::json_field(line, "shadow_refreshes", snap.dynamic.engine.shadow_refreshes);
  obs::json_field(line, "gc_extensions_refused", snap.dynamic.gc_extensions_refused);
  if (snap.phase_seconds.has_value()) {
    // Wall time, so only with a phase timer attached (--metrics-out): the
    // decision log stays byte-identical without one.
    obs::json_key(line, "phase_seconds");
    line += "{";
    for (std::size_t p = 0; p < kServePhases.size(); ++p) {
      obs::json_field(line, kServePhases[p], (*snap.phase_seconds)[p]);
    }
    line += "}";
  }
  line += "}";
  return line;
}

std::string ServeSession::handle_shutdown() {
  const DynamicResult result = service_.finish();
  shut_down_ = true;
  std::string line = begin_ok("shutdown");
  obs::json_field(line, "requests", result.requests.size());
  obs::json_field(line, "satisfied", result.satisfied_count());
  obs::json_field(line, "value", result.weighted_value(weighting_));
  obs::json_field(line, "replans", result.replans);
  line += "}";
  return line;
}

}  // namespace datastage
