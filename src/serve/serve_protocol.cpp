#include "serve/serve_protocol.hpp"

#include <cmath>
#include <initializer_list>
#include <utility>

#include "obs/json.hpp"

namespace datastage {

namespace {

using obs::JsonValue;

/// Largest integer a double carries exactly; times beyond it are rejected
/// rather than silently rounded.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

bool fail(ServeError* error, ServeErrorCode code, std::string message) {
  if (error != nullptr) {
    error->code = code;
    error->message = std::move(message);
  }
  return false;
}

bool get_string(const JsonValue& object, const char* key, std::string* out,
                ServeError* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fail(error, ServeErrorCode::kMissingField,
                std::string("missing field '") + key + "'");
  }
  if (value->kind != JsonValue::Kind::kString || value->string.empty()) {
    return fail(error, ServeErrorCode::kBadField,
                std::string("field '") + key + "' must be a non-empty string");
  }
  *out = value->string;
  return true;
}

/// Reads a non-negative integer (exact in double) into `out`.
bool get_integer(const JsonValue& object, const char* key, std::int64_t* out,
                 ServeError* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    return fail(error, ServeErrorCode::kMissingField,
                std::string("missing field '") + key + "'");
  }
  const double v = value->number;
  if (!value->is_number() || !(v >= 0.0) || v > kMaxExactInteger ||
      v != std::floor(v)) {
    return fail(error, ServeErrorCode::kBadField,
                std::string("field '") + key +
                    "' must be a non-negative integer");
  }
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool get_time(const JsonValue& object, const char* key, SimTime* out,
              ServeError* error) {
  std::int64_t usec = 0;
  if (!get_integer(object, key, &usec, error)) return false;
  *out = SimTime::from_usec(usec);
  return true;
}

/// Strictness backstop: every key of `object` must be in `allowed`.
bool only_fields(const JsonValue& object,
                 std::initializer_list<std::string_view> allowed,
                 ServeError* error) {
  for (const auto& [key, value] : object.object) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (key == a) known = true;
    }
    if (!known) {
      return fail(error, ServeErrorCode::kBadField,
                  "unexpected field '" + key + "'");
    }
  }
  return true;
}

bool parse_new_item(const JsonValue& value, NewItemPayload* out,
                    ServeError* error) {
  if (!value.is_object()) {
    return fail(error, ServeErrorCode::kBadField,
                "field 'new_item' must be an object");
  }
  if (!only_fields(value, {"size_bytes", "sources"}, error)) return false;
  if (!get_integer(value, "size_bytes", &out->size_bytes, error)) return false;
  if (out->size_bytes <= 0) {
    return fail(error, ServeErrorCode::kBadField,
                "field 'size_bytes' must be positive");
  }
  const JsonValue* sources = value.find("sources");
  if (sources == nullptr) {
    return fail(error, ServeErrorCode::kMissingField,
                "missing field 'sources'");
  }
  if (!sources->is_array() || sources->array.empty()) {
    return fail(error, ServeErrorCode::kBadField,
                "field 'sources' must be a non-empty array");
  }
  for (const JsonValue& entry : sources->array) {
    if (!entry.is_object()) {
      return fail(error, ServeErrorCode::kBadField,
                  "each source must be an object");
    }
    if (!only_fields(entry, {"machine", "available_at_usec"}, error)) {
      return false;
    }
    NewItemPayload::Source source;
    if (!get_string(entry, "machine", &source.machine, error)) return false;
    if (!get_time(entry, "available_at_usec", &source.available_at, error)) {
      return false;
    }
    out->sources.push_back(std::move(source));
  }
  return true;
}

}  // namespace

const char* serve_error_code_name(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kNone:
      return "none";
    case ServeErrorCode::kBadJson:
      return "bad_json";
    case ServeErrorCode::kBadVersion:
      return "bad_version";
    case ServeErrorCode::kMissingField:
      return "missing_field";
    case ServeErrorCode::kBadField:
      return "bad_field";
    case ServeErrorCode::kUnknownCommand:
      return "unknown_command";
    case ServeErrorCode::kDuplicateId:
      return "duplicate_id";
    case ServeErrorCode::kUnknownId:
      return "unknown_id";
    case ServeErrorCode::kUnknownItem:
      return "unknown_item";
    case ServeErrorCode::kUnknownMachine:
      return "unknown_machine";
    case ServeErrorCode::kDuplicateRequest:
      return "duplicate_request";
    case ServeErrorCode::kInvalidItem:
      return "invalid_item";
    case ServeErrorCode::kTimeRegression:
      return "time_regression";
    case ServeErrorCode::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::optional<ServeCommand> parse_command(std::string_view line,
                                          ServeError* error) {
  std::string parse_error;
  const std::optional<JsonValue> parsed = obs::json_parse(line, &parse_error);
  if (!parsed.has_value()) {
    fail(error, ServeErrorCode::kBadJson, parse_error);
    return std::nullopt;
  }
  if (!parsed->is_object()) {
    fail(error, ServeErrorCode::kBadJson, "command must be a JSON object");
    return std::nullopt;
  }
  const JsonValue& object = *parsed;

  const JsonValue* version = object.find("v");
  if (version == nullptr) {
    fail(error, ServeErrorCode::kMissingField, "missing field 'v'");
    return std::nullopt;
  }
  if (!version->is_number() ||
      version->number != static_cast<double>(kServeProtocolVersion)) {
    fail(error, ServeErrorCode::kBadVersion,
         "unsupported protocol version (expected " +
             std::to_string(kServeProtocolVersion) + ")");
    return std::nullopt;
  }

  std::string cmd;
  if (!get_string(object, "cmd", &cmd, error)) return std::nullopt;

  if (cmd == "submit") {
    SubmitCommand submit;
    if (!only_fields(object,
                     {"v", "cmd", "id", "t_usec", "item", "dest",
                      "deadline_usec", "priority", "new_item"},
                     error)) {
      return std::nullopt;
    }
    if (!get_string(object, "id", &submit.id, error)) return std::nullopt;
    if (!get_time(object, "t_usec", &submit.at, error)) return std::nullopt;
    if (!get_string(object, "item", &submit.item, error)) return std::nullopt;
    if (!get_string(object, "dest", &submit.dest, error)) return std::nullopt;
    if (!get_time(object, "deadline_usec", &submit.deadline, error)) {
      return std::nullopt;
    }
    std::int64_t priority = 0;
    if (!get_integer(object, "priority", &priority, error)) return std::nullopt;
    if (priority > kPriorityHigh) {
      fail(error, ServeErrorCode::kBadField,
           "field 'priority' must lie in [0, 2]");
      return std::nullopt;
    }
    submit.priority = static_cast<Priority>(priority);
    if (const JsonValue* new_item = object.find("new_item")) {
      NewItemPayload payload;
      if (!parse_new_item(*new_item, &payload, error)) return std::nullopt;
      submit.new_item = std::move(payload);
    }
    return ServeCommand(std::move(submit));
  }
  if (cmd == "cancel") {
    CancelCommand cancel;
    if (!only_fields(object, {"v", "cmd", "id", "t_usec"}, error)) {
      return std::nullopt;
    }
    if (!get_string(object, "id", &cancel.id, error)) return std::nullopt;
    if (!get_time(object, "t_usec", &cancel.at, error)) return std::nullopt;
    return ServeCommand(std::move(cancel));
  }
  if (cmd == "advance") {
    AdvanceCommand advance;
    if (!only_fields(object, {"v", "cmd", "to_usec"}, error)) {
      return std::nullopt;
    }
    if (!get_time(object, "to_usec", &advance.to, error)) return std::nullopt;
    return ServeCommand(advance);
  }
  if (cmd == "query") {
    QueryCommand query;
    if (!only_fields(object, {"v", "cmd", "id"}, error)) return std::nullopt;
    if (!get_string(object, "id", &query.id, error)) return std::nullopt;
    return ServeCommand(std::move(query));
  }
  if (cmd == "stats") {
    if (!only_fields(object, {"v", "cmd"}, error)) return std::nullopt;
    return ServeCommand(StatsCommand{});
  }
  if (cmd == "shutdown") {
    if (!only_fields(object, {"v", "cmd"}, error)) return std::nullopt;
    return ServeCommand(ShutdownCommand{});
  }
  fail(error, ServeErrorCode::kUnknownCommand,
       "unknown command '" + cmd + "'");
  return std::nullopt;
}

std::string serialize_command(const ServeCommand& command) {
  std::string line = "{";
  obs::json_field(line, "v", kServeProtocolVersion);
  if (const auto* submit = std::get_if<SubmitCommand>(&command)) {
    obs::json_field(line, "cmd", "submit");
    obs::json_field(line, "id", submit->id);
    obs::json_field(line, "t_usec", submit->at.usec());
    obs::json_field(line, "item", submit->item);
    obs::json_field(line, "dest", submit->dest);
    obs::json_field(line, "deadline_usec", submit->deadline.usec());
    obs::json_field(line, "priority", submit->priority);
    if (submit->new_item.has_value()) {
      obs::json_key(line, "new_item");
      line += "{";
      obs::json_field(line, "size_bytes", submit->new_item->size_bytes);
      obs::json_key(line, "sources");
      line += "[";
      bool first = true;
      for (const NewItemPayload::Source& source : submit->new_item->sources) {
        if (!first) line += ",";
        first = false;
        line += "{";
        obs::json_field(line, "machine", source.machine);
        obs::json_field(line, "available_at_usec", source.available_at.usec());
        line += "}";
      }
      line += "]}";
    }
  } else if (const auto* cancel = std::get_if<CancelCommand>(&command)) {
    obs::json_field(line, "cmd", "cancel");
    obs::json_field(line, "id", cancel->id);
    obs::json_field(line, "t_usec", cancel->at.usec());
  } else if (const auto* advance = std::get_if<AdvanceCommand>(&command)) {
    obs::json_field(line, "cmd", "advance");
    obs::json_field(line, "to_usec", advance->to.usec());
  } else if (const auto* query = std::get_if<QueryCommand>(&command)) {
    obs::json_field(line, "cmd", "query");
    obs::json_field(line, "id", query->id);
  } else if (std::holds_alternative<StatsCommand>(command)) {
    obs::json_field(line, "cmd", "stats");
  } else {
    obs::json_field(line, "cmd", "shutdown");
  }
  line += "}";
  return line;
}

std::string error_response(const ServeError& error) {
  std::string line = "{";
  obs::json_field(line, "v", kServeProtocolVersion);
  obs::json_field(line, "ok", false);
  obs::json_field(line, "error", serve_error_code_name(error.code));
  obs::json_field(line, "message", error.message);
  line += "}";
  return line;
}

}  // namespace datastage
