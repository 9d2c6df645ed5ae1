#include "tsu/rest/rest.hpp"

#include "tsu/json/json.hpp"
#include "tsu/util/strings.hpp"

namespace tsu::rest {

namespace {

// Datapath numbers may be JSON numbers or numeric strings.
Result<DatapathId> as_dpid(const json::Value& value) {
  if (value.is_number()) {
    const std::int64_t n = value.as_int();
    if (n < 0) return make_error(Errc::kParseError, "negative datapath id");
    return static_cast<DatapathId>(n);
  }
  if (value.is_string()) {
    const auto n = parse_int(value.as_string());
    if (!n.has_value() || *n < 0)
      return make_error(Errc::kParseError,
                        "datapath id string is not a non-negative integer");
    return static_cast<DatapathId>(*n);
  }
  return make_error(Errc::kParseError, "datapath id must be number or string");
}

Result<std::vector<DatapathId>> as_path(const json::Value& value,
                                        const char* field) {
  if (!value.is_array())
    return make_error(Errc::kParseError,
                      std::string(field) + " must be an array");
  std::vector<DatapathId> path;
  for (const json::Value& item : value.as_array()) {
    Result<DatapathId> dpid = as_dpid(item);
    if (!dpid.ok()) return dpid.error();
    path.push_back(dpid.value());
  }
  return path;
}

Result<proto::FlowModCommand> command_for_key(std::string_view key) {
  if (key == "add") return proto::FlowModCommand::kAdd;
  if (key == "modify") return proto::FlowModCommand::kModify;
  if (key == "delete") return proto::FlowModCommand::kDelete;
  return make_error(Errc::kParseError,
                    "unknown body key '" + std::string(key) + "'");
}

Result<FlowModSpec> parse_flow_mod(const json::Value& value,
                                   proto::FlowModCommand command) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "FlowMod entry must be an object");
  const json::Object& obj = value.as_object();

  FlowModSpec spec;
  spec.mod.command = command;

  const json::Value* dpid = obj.find("dpid");
  if (dpid == nullptr)
    return make_error(Errc::kParseError, "FlowMod entry missing 'dpid'");
  Result<DatapathId> dp = as_dpid(*dpid);
  if (!dp.ok()) return dp.error();
  spec.dpid = dp.value();

  if (const json::Value* priority = obj.find("priority")) {
    if (!priority->is_number())
      return make_error(Errc::kParseError, "'priority' must be a number");
    const std::int64_t p = priority->as_int();
    if (p < 0 || p > 0xffff)
      return make_error(Errc::kOutOfRange, "'priority' out of range");
    spec.mod.priority = static_cast<std::uint16_t>(p);
  }
  if (const json::Value* cookie = obj.find("cookie")) {
    if (!cookie->is_number())
      return make_error(Errc::kParseError, "'cookie' must be a number");
    spec.mod.cookie = static_cast<std::uint64_t>(cookie->as_int());
  }

  if (const json::Value* match = obj.find("match")) {
    if (!match->is_object())
      return make_error(Errc::kParseError, "'match' must be an object");
    for (const auto& [key, field] : match->as_object()) {
      if (!field.is_number())
        return make_error(Errc::kParseError,
                          "match field '" + key + "' must be a number");
      if (key == "flow")
        spec.mod.match.flow = static_cast<FlowId>(field.as_int());
      else if (key == "src")
        spec.mod.match.src_host = static_cast<NodeId>(field.as_int());
      else if (key == "dst")
        spec.mod.match.dst_host = static_cast<NodeId>(field.as_int());
      else if (key == "in_port")
        spec.mod.match.in_port = static_cast<std::uint32_t>(field.as_int());
      else
        return make_error(Errc::kParseError,
                          "unknown match field '" + key + "'");
    }
  }

  if (const json::Value* actions = obj.find("actions")) {
    if (!actions->is_array())
      return make_error(Errc::kParseError, "'actions' must be an array");
    for (const json::Value& entry : actions->as_array()) {
      if (!entry.is_object() || entry.as_object().find("type") == nullptr)
        return make_error(Errc::kParseError, "action needs a 'type'");
      const json::Object& action = entry.as_object();
      const std::string& type = action.find("type")->as_string();
      if (type == "OUTPUT") {
        const json::Value* port = action.find("port");
        if (port == nullptr || !port->is_number())
          return make_error(Errc::kParseError,
                            "OUTPUT action needs numeric 'port'");
        spec.mod.action =
            flow::Action::forward(static_cast<NodeId>(port->as_int()));
      } else if (type == "DELIVER") {
        spec.mod.action = flow::Action::deliver();
      } else if (type == "DROP") {
        spec.mod.action = flow::Action::drop();
      } else {
        return make_error(Errc::kParseError,
                          "unknown action type '" + type + "'");
      }
    }
  }

  return spec;
}

}  // namespace

Result<RestUpdateMessage> parse_update_message(std::string_view json_text) {
  Result<json::Value> doc = json::parse(json_text);
  if (!doc.ok()) return doc.error();
  if (!doc.value().is_object())
    return make_error(Errc::kParseError, "REST message must be an object");
  const json::Object& obj = doc.value().as_object();

  RestUpdateMessage message;
  bool saw_oldpath = false;
  bool saw_newpath = false;

  for (const auto& [key, value] : obj) {
    if (key == "oldpath") {
      Result<std::vector<DatapathId>> path = as_path(value, "oldpath");
      if (!path.ok()) return path.error();
      message.old_path = std::move(path).value();
      saw_oldpath = true;
    } else if (key == "newpath") {
      Result<std::vector<DatapathId>> path = as_path(value, "newpath");
      if (!path.ok()) return path.error();
      message.new_path = std::move(path).value();
      saw_newpath = true;
    } else if (key == "wp") {
      Result<DatapathId> wp = as_dpid(value);
      if (!wp.ok()) return wp.error();
      message.waypoint = wp.value();
    } else if (key == "interval") {
      if (!value.is_number())
        return make_error(Errc::kParseError, "'interval' must be a number");
      message.interval_ms = value.as_double();
      if (message.interval_ms < 0)
        return make_error(Errc::kOutOfRange, "'interval' must be >= 0");
    } else if (key == "admission") {
      if (!value.is_string())
        return make_error(Errc::kParseError, "'admission' must be a string");
      const std::optional<controller::AdmissionPolicy> policy =
          controller::admission_policy_from_string(value.as_string());
      if (!policy.has_value())
        return make_error(Errc::kParseError,
                          "unknown admission policy '" + value.as_string() +
                              "' (blind | conflict_aware | serialize)");
      message.admission = *policy;
    } else if (key == "admission_release") {
      if (!value.is_string())
        return make_error(Errc::kParseError,
                          "'admission_release' must be a string");
      const std::optional<controller::AdmissionRelease> release =
          controller::admission_release_from_string(value.as_string());
      if (!release.has_value())
        return make_error(Errc::kParseError,
                          "unknown admission release '" + value.as_string() +
                              "' (request | round)");
      message.admission_release = *release;
    } else if (key == "shards") {
      if (!value.is_number() || value.as_int() < 1 ||
          value.as_int() >
              static_cast<std::int64_t>(proto::kMaxXidShards))
        return make_error(Errc::kOutOfRange, "'shards' must be in [1, 256]");
      message.shards = static_cast<std::size_t>(value.as_int());
    } else if (key == "partition") {
      if (!value.is_string())
        return make_error(Errc::kParseError, "'partition' must be a string");
      const std::optional<topo::PartitionScheme> scheme =
          topo::partition_scheme_from_string(value.as_string());
      if (!scheme.has_value())
        return make_error(Errc::kParseError,
                          "unknown partition scheme '" + value.as_string() +
                              "' (hash | block | greedy_cut)");
      message.partition = *scheme;
    } else if (key == "plan_cache") {
      if (!value.is_string() ||
          (value.as_string() != "on" && value.as_string() != "off"))
        return make_error(Errc::kParseError,
                          "'plan_cache' must be \"on\" or \"off\"");
      message.plan_cache = value.as_string() == "on";
    } else if (key == "liveness_timeout_ms") {
      if (!value.is_number() || value.as_double() < 0)
        return make_error(Errc::kOutOfRange,
                          "'liveness_timeout_ms' must be >= 0");
      message.liveness_timeout_ms = value.as_double();
    } else if (key == "failure_response") {
      if (!value.is_string())
        return make_error(Errc::kParseError,
                          "'failure_response' must be a string");
      const std::optional<controller::FailureResponse> response =
          controller::failure_response_from_string(value.as_string());
      if (!response.has_value())
        return make_error(Errc::kParseError,
                          "unknown failure response '" + value.as_string() +
                              "' (wait | rollback)");
      message.failure_response = *response;
    } else if (key == "priority_class") {
      if (!value.is_number() || value.as_int() < 0 || value.as_int() > 255)
        return make_error(Errc::kOutOfRange,
                          "'priority_class' must be in [0, 255]");
      message.priority_class = static_cast<std::uint32_t>(value.as_int());
    } else if (key == "max_in_flight") {
      if (!value.is_number() || value.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'max_in_flight' must be >= 1");
      message.max_in_flight = static_cast<std::size_t>(value.as_int());
    } else if (key == "batch_mode") {
      if (!value.is_string())
        return make_error(Errc::kParseError, "'batch_mode' must be a string");
      const std::optional<controller::BatchMode> mode =
          controller::batch_mode_from_string(value.as_string());
      if (!mode.has_value())
        return make_error(Errc::kParseError,
                          "unknown batch mode '" + value.as_string() +
                              "' (off | instant | window | adaptive)");
      message.batch_mode = *mode;
    } else if (key == "batch_window_ms") {
      if (!value.is_number() || value.as_double() < 0)
        return make_error(Errc::kOutOfRange, "'batch_window_ms' must be >= 0");
      message.batch_window_ms = value.as_double();
    } else if (key == "batch_bytes") {
      if (!value.is_number() || value.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'batch_bytes' must be >= 1");
      message.batch_bytes = static_cast<std::size_t>(value.as_int());
    } else {
      Result<proto::FlowModCommand> command = command_for_key(key);
      if (!command.ok()) return command.error();
      if (!value.is_array())
        return make_error(Errc::kParseError,
                          "body key '" + key + "' must hold an array");
      for (const json::Value& entry : value.as_array()) {
        Result<FlowModSpec> spec = parse_flow_mod(entry, command.value());
        if (!spec.ok()) return spec.error();
        message.flow_mods.push_back(std::move(spec).value());
      }
    }
  }

  if (!saw_oldpath || !saw_newpath)
    return make_error(Errc::kParseError,
                      "REST message requires 'oldpath' and 'newpath'");
  return message;
}

std::string to_json(const RestUpdateMessage& message) {
  json::Object root;
  const auto path_array = [](const std::vector<DatapathId>& path) {
    json::Array array;
    for (const DatapathId dp : path)
      array.emplace_back(static_cast<std::int64_t>(dp));
    return array;
  };
  root.set("oldpath", json::Value(path_array(message.old_path)));
  root.set("newpath", json::Value(path_array(message.new_path)));
  if (message.waypoint.has_value())
    root.set("wp", json::Value(static_cast<std::int64_t>(*message.waypoint)));
  root.set("interval", json::Value(message.interval_ms));
  if (message.admission.has_value())
    root.set("admission",
             json::Value(controller::to_string(*message.admission)));
  if (message.admission_release.has_value())
    root.set("admission_release",
             json::Value(controller::to_string(*message.admission_release)));
  if (message.shards.has_value())
    root.set("shards",
             json::Value(static_cast<std::int64_t>(*message.shards)));
  if (message.partition.has_value())
    root.set("partition", json::Value(topo::to_string(*message.partition)));
  if (message.plan_cache.has_value())
    root.set("plan_cache", json::Value(*message.plan_cache ? "on" : "off"));
  if (message.liveness_timeout_ms.has_value())
    root.set("liveness_timeout_ms", json::Value(*message.liveness_timeout_ms));
  if (message.failure_response.has_value())
    root.set("failure_response",
             json::Value(controller::to_string(*message.failure_response)));
  if (message.priority_class.has_value())
    root.set("priority_class",
             json::Value(static_cast<std::int64_t>(*message.priority_class)));
  if (message.max_in_flight.has_value())
    root.set("max_in_flight",
             json::Value(static_cast<std::int64_t>(*message.max_in_flight)));
  if (message.batch_mode.has_value())
    root.set("batch_mode",
             json::Value(controller::to_string(*message.batch_mode)));
  if (message.batch_window_ms.has_value())
    root.set("batch_window_ms", json::Value(*message.batch_window_ms));
  if (message.batch_bytes.has_value())
    root.set("batch_bytes",
             json::Value(static_cast<std::int64_t>(*message.batch_bytes)));

  json::Array add, modify, del;
  for (const FlowModSpec& spec : message.flow_mods) {
    json::Object entry;
    entry.set("dpid", json::Value(static_cast<std::int64_t>(spec.dpid)));
    entry.set("priority",
              json::Value(static_cast<std::int64_t>(spec.mod.priority)));
    json::Object match;
    if (spec.mod.match.flow.has_value())
      match.set("flow",
                json::Value(static_cast<std::int64_t>(*spec.mod.match.flow)));
    if (spec.mod.match.src_host.has_value())
      match.set("src", json::Value(static_cast<std::int64_t>(
                           *spec.mod.match.src_host)));
    if (spec.mod.match.dst_host.has_value())
      match.set("dst", json::Value(static_cast<std::int64_t>(
                           *spec.mod.match.dst_host)));
    if (spec.mod.match.in_port.has_value())
      match.set("in_port", json::Value(static_cast<std::int64_t>(
                               *spec.mod.match.in_port)));
    entry.set("match", json::Value(std::move(match)));

    json::Array actions;
    json::Object action;
    switch (spec.mod.action.kind) {
      case flow::ActionKind::kForward:
        action.set("type", json::Value("OUTPUT"));
        action.set("port", json::Value(static_cast<std::int64_t>(
                               spec.mod.action.port)));
        break;
      case flow::ActionKind::kDeliver:
        action.set("type", json::Value("DELIVER"));
        break;
      case flow::ActionKind::kDrop:
        action.set("type", json::Value("DROP"));
        break;
    }
    actions.push_back(json::Value(std::move(action)));
    entry.set("actions", json::Value(std::move(actions)));

    switch (spec.mod.command) {
      case proto::FlowModCommand::kAdd:
        add.push_back(json::Value(std::move(entry)));
        break;
      case proto::FlowModCommand::kModify:
        modify.push_back(json::Value(std::move(entry)));
        break;
      default:
        del.push_back(json::Value(std::move(entry)));
        break;
    }
  }
  if (!add.empty()) root.set("add", json::Value(std::move(add)));
  if (!modify.empty()) root.set("modify", json::Value(std::move(modify)));
  if (!del.empty()) root.set("delete", json::Value(std::move(del)));
  return json::write(json::Value(std::move(root)));
}

Result<update::Instance> to_instance(const RestUpdateMessage& message,
                                     const topo::Topology& topology) {
  const auto map_path =
      [&topology](const std::vector<DatapathId>& dpids,
                  const char* name) -> Result<graph::Path> {
    graph::Path path;
    for (const DatapathId dp : dpids) {
      const std::optional<NodeId> node = topology.node_of_dpid(dp);
      if (!node.has_value())
        return make_error(Errc::kNotFound,
                          std::string(name) + " references unknown datapath " +
                              std::to_string(dp));
      path.push_back(*node);
    }
    return path;
  };

  Result<graph::Path> old_path = map_path(message.old_path, "oldpath");
  if (!old_path.ok()) return old_path.error();
  Result<graph::Path> new_path = map_path(message.new_path, "newpath");
  if (!new_path.ok()) return new_path.error();

  std::optional<NodeId> waypoint;
  if (message.waypoint.has_value()) {
    const std::optional<NodeId> node = topology.node_of_dpid(*message.waypoint);
    if (!node.has_value())
      return make_error(Errc::kNotFound, "wp references unknown datapath");
    waypoint = *node;
  }

  return update::Instance::make(std::move(old_path).value(),
                                std::move(new_path).value(), waypoint);
}

void apply_controller_overrides(const RestUpdateMessage& message,
                                controller::ControllerConfig& config) {
  if (message.admission.has_value()) config.admission = *message.admission;
  if (message.admission_release.has_value())
    config.admission_release = *message.admission_release;
  if (message.shards.has_value()) config.shards = *message.shards;
  if (message.partition.has_value()) config.partition = *message.partition;
  if (message.plan_cache.has_value()) config.plan_cache = *message.plan_cache;
  if (message.max_in_flight.has_value())
    config.max_in_flight = *message.max_in_flight;
  if (message.batch_mode.has_value()) config.batch_mode = *message.batch_mode;
  if (message.batch_window_ms.has_value())
    config.batch_window = sim::from_ms(*message.batch_window_ms);
  if (message.batch_bytes.has_value())
    config.batch_bytes = *message.batch_bytes;
  if (message.liveness_timeout_ms.has_value())
    config.liveness_timeout = sim::from_ms(*message.liveness_timeout_ms);
  if (message.failure_response.has_value())
    config.failure_response = *message.failure_response;
}

}  // namespace tsu::rest
