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
  std::string line = "{\"v\":";
  line += std::to_string(kServeProtocolVersion);
  line += ",\"ok\":true,\"cmd\":\"";
  line += cmd;
  line += "\"";
  return line;
}

void append_string(std::string& line, const char* key, std::string_view value) {
  line += ",\"";
  line += key;
  line += "\":\"";
  line += obs::json_escape(value);
  line += "\"";
}

void append_int(std::string& line, const char* key, std::int64_t value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += std::to_string(value);
}

void append_size(std::string& line, const char* key, std::size_t value) {
  append_int(line, key, static_cast<std::int64_t>(value));
}

void append_bool(std::string& line, const char* key, bool value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += value ? "true" : "false";
}

void append_double(std::string& line, const char* key, double value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += obs::json_number(value);
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
    append_int(line, "now_usec", service_.now().usec());
    line += "}";
    return line;
  }
  if (std::holds_alternative<StatsCommand>(command)) return handle_stats();
  return handle_shutdown();
}

std::pair<DynamicRequestStatus, SimTime> ServeSession::record_status(
    const RequestRecord& record) const {
  if (record.terminal) return {record.status, record.arrival};
  const DynamicRequestStatus status =
      service_.request_status(record.item, record.destination);
  SimTime arrival = SimTime::infinity();
  if (status == DynamicRequestStatus::kSatisfied ||
      status == DynamicRequestStatus::kPending) {
    arrival = service_.planned_arrival(record.item, record.destination);
  }
  return {status, arrival};
}

void ServeSession::freeze(RequestRecord& record) {
  if (record.terminal) return;
  const auto [status, arrival] = record_status(record);
  record.terminal = true;
  record.status = status;
  record.arrival = arrival;
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
    // Copies committed by `at` charge storage too: check the fit there.
    service_.advance_to(submit.at);
    if (!service_.new_item_fits(item)) {
      return session_error(
          ServeErrorCode::kInvalidItem,
          "item '" + submit.item + "' does not fit its source machines");
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
  // The (item, dest) slot is free again: the previous occupant (if any) is
  // resolved. Freeze its outcome before the service's "latest request wins"
  // queries start answering for the new one.
  const std::pair<std::string, std::int32_t> slot{submit.item,
                                                  dest->second.value()};
  const auto previous = slots_.find(slot);
  if (previous != slots_.end()) freeze(requests_.at(previous->second));

  const AdmissionDecision decision = service_.submit(request);

  RequestRecord record;
  record.item = submit.item;
  record.destination = dest->second;
  record.deadline = submit.deadline;
  record.admitted = decision.admitted();
  if (!record.admitted) {
    record.terminal = true;
    record.status = DynamicRequestStatus::kUnknown;  // reported as "rejected"
  }
  requests_.emplace(submit.id, std::move(record));
  slots_[slot] = submit.id;

  std::string line = begin_ok("submit");
  append_string(line, "id", submit.id);
  append_string(line, "outcome", admission_outcome_name(decision.outcome));
  append_bool(line, "admitted", decision.admitted());
  append_bool(line, "quick_checked", decision.quick_checked);
  append_bool(line, "quick_feasible", decision.quick_feasible);
  if (!decision.quick_arrival.is_infinite()) {
    append_int(line, "quick_arrival_usec", decision.quick_arrival.usec());
  }
  if (!decision.planned_arrival.is_infinite()) {
    append_int(line, "planned_arrival_usec", decision.planned_arrival.usec());
  }
  append_size(line, "replans", decision.replans);
  append_double(line, "committed_value", decision.committed_value);
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
  RequestRecord& record = it->second;
  bool withdrawn = false;
  // A rejected or already-frozen request has nothing outstanding to
  // withdraw; the cancel is then a no-op, but time still passes to `at`.
  if (record.admitted && !record.terminal) {
    withdrawn = service_.cancel(record.item, record.destination, cancel.at);
    freeze(record);
  } else {
    service_.advance_to(cancel.at);
  }
  std::string line = begin_ok("cancel");
  append_string(line, "id", cancel.id);
  append_bool(line, "cancelled", withdrawn);
  append_int(line, "now_usec", service_.now().usec());
  line += "}";
  return line;
}

std::string ServeSession::handle_query(const QueryCommand& query) {
  const auto it = requests_.find(query.id);
  if (it == requests_.end()) {
    return session_error(ServeErrorCode::kUnknownId,
                         "unknown id '" + query.id + "'");
  }
  const RequestRecord& record = it->second;
  std::string line = begin_ok("query");
  append_string(line, "id", query.id);
  if (!record.admitted) {
    append_string(line, "status", "rejected");
  } else {
    const auto [status, arrival] = record_status(record);
    append_string(line, "status", request_status_name(status));
    if (!arrival.is_infinite()) {
      append_int(line, "arrival_usec", arrival.usec());
    }
  }
  line += "}";
  return line;
}

std::string ServeSession::handle_stats() const {
  const ServiceSnapshot snap = service_.snapshot();
  std::string line = begin_ok("stats");
  append_int(line, "now_usec", snap.now.usec());
  append_size(line, "submits", snap.submits);
  append_size(line, "admitted", snap.admitted);
  append_size(line, "already_satisfied", snap.already_satisfied);
  append_size(line, "quick_rejects", snap.quick_rejects);
  append_size(line, "full_rejects", snap.full_rejects);
  append_size(line, "cancelled", snap.cancelled);
  append_size(line, "replans", snap.replans);
  append_size(line, "committed_steps", snap.committed_steps);
  append_size(line, "planned_steps", snap.planned_steps);
  append_double(line, "committed_value", snap.committed_value);
  append_size(line, "topology_builds", snap.topology_builds);
  append_size(line, "residual_builds", snap.residual_builds);
  append_size(line, "world_patches", snap.world_patches);
  append_size(line, "tree_replays", snap.replay.replays);
  append_size(line, "replay_misses", snap.replay.total_misses());
  line += ",\"replay_misses_by_reason\":{";
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
    if (r > 0) line += ",";
    line += "\"";
    line += replay_miss_name(static_cast<ReplayMiss>(r));
    line += "\":" + std::to_string(snap.replay.misses[r]);
  }
  line += "}";
  if (snap.phase_seconds.has_value()) {
    // Wall time, so only with a phase timer attached (--metrics-out): the
    // decision log stays byte-identical without one.
    line += ",\"phase_seconds\":{";
    for (std::size_t p = 0; p < kServePhases.size(); ++p) {
      if (p > 0) line += ",";
      line += "\"";
      line += kServePhases[p];
      line += "\":";
      line += obs::json_number((*snap.phase_seconds)[p]);
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
  append_size(line, "requests", result.requests.size());
  append_size(line, "satisfied", result.satisfied_count());
  append_double(line, "value", result.weighted_value(weighting_));
  append_size(line, "replans", result.replans);
  line += "}";
  return line;
}

}  // namespace datastage
