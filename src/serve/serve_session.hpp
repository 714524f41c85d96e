// One datastage_serve session: the command handler between the wire protocol
// and the SchedulerService.
//
// A ServeSession owns a SchedulerService plus the client-facing bookkeeping
// the service deliberately does not carry: the client-chosen request-id
// ledger (duplicate ids, cancel/query by id), machine-name resolution, and
// the shutdown latch. handle_line() is the daemon's whole request loop body:
// one request line in, exactly one response line out — deterministically, so
// replaying a command script reproduces the decision log byte for byte.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "serve/scheduler_service.hpp"
#include "serve/serve_protocol.hpp"

namespace datastage {

class ServeSession {
 public:
  ServeSession(Scenario initial, ServiceOptions options);

  /// Parses one request line and executes it; returns the response line
  /// (no trailing newline). Never throws — protocol and session errors
  /// become error_response lines.
  std::string handle_line(std::string_view line);

  /// Executes one already-parsed command.
  std::string handle(const ServeCommand& command);

  /// True once a shutdown command was processed; every later command is
  /// answered with the `shutdown` error code.
  bool shut_down() const { return shut_down_; }

  const SchedulerService& service() const { return service_; }

 private:
  std::string handle_submit(const SubmitCommand& submit);
  std::string handle_cancel(const CancelCommand& cancel);
  std::string handle_query(const QueryCommand& query);
  std::string handle_stats() const;
  std::string handle_shutdown();

  SchedulerService service_;
  PriorityWeighting weighting_;
  std::map<std::string, MachineId, std::less<>> machines_;
  /// Per id, the handle of its admitted request (queries and cancels ask the
  /// service about that request alone); nullopt when the submit was rejected.
  std::map<std::string, std::optional<RequestRef>, std::less<>> requests_;
  bool shut_down_ = false;
};

}  // namespace datastage
