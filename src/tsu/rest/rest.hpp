// The paper's REST update message (§2):
//
//   {
//     "oldpath":[<dp-num>,<dp-num>,<dp-num>],
//     "newpath":[<dp-num>,<dp-num>,<dp-num>],
//     "wp":<dp-num>,
//     "interval":<time in ms>,
//     <type>:[<OpenFlow message information>],
//     ...
//   }
//
// Header fields parameterize the scheduler (routes, waypoint, inter-round
// interval); the body carries explicit FlowMod descriptions keyed by type
// ("add" / "modify" / "delete"), in the style of Ryu's ofctl_rest. As in
// Ryu, datapath numbers may arrive as JSON numbers or numeric strings ("the
// waypoint is a string, which can be converted to an integer value").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tsu/controller/admission.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/topo/topology.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/status.hpp"

namespace tsu::rest {

struct FlowModSpec {
  DatapathId dpid = kInvalidDatapath;
  proto::FlowMod mod;
};

struct RestUpdateMessage {
  std::vector<DatapathId> old_path;
  std::vector<DatapathId> new_path;
  std::optional<DatapathId> waypoint;
  double interval_ms = 0;
  std::vector<FlowModSpec> flow_mods;
  // Optional controller knobs carried in the header, beyond the paper's
  // schema: how the serving controller should admit this and concurrent
  // requests, how its per-switch outbox batches frames, and how the
  // control plane is sharded (controller/shard.hpp). Absent fields leave
  // the controller's configuration alone.
  std::optional<controller::AdmissionPolicy> admission;
  std::optional<controller::AdmissionRelease> admission_release;
  std::optional<std::size_t> max_in_flight;
  std::optional<controller::BatchMode> batch_mode;
  std::optional<double> batch_window_ms;
  std::optional<std::size_t> batch_bytes;
  std::optional<std::size_t> shards;
  std::optional<topo::PartitionScheme> partition;
  // Compiled-plan cache for service-mode submissions ("on" | "off" in the
  // wire document, matching the config key; controller.hpp plan_cache).
  std::optional<bool> plan_cache;
  // Fault-tolerance knobs (controller/controller.hpp): liveness detection
  // timeout (0 disables the whole fault path) and what a timed-out update
  // does (wait-and-retry or roll back).
  std::optional<double> liveness_timeout_ms;
  std::optional<controller::FailureResponse> failure_response;
  // Admission priority class for THIS update (0 = highest, served first by
  // the open-loop service and by the controller's start scan). Unlike the
  // knobs above it configures the request, not the controller.
  std::optional<std::uint32_t> priority_class;
};

// Parses the JSON request body. Unknown body keys are rejected; "add",
// "modify", "delete" carry FlowMod arrays.
Result<RestUpdateMessage> parse_update_message(std::string_view json_text);

// Round-trip support (compact JSON).
std::string to_json(const RestUpdateMessage& message);

// Maps datapath numbers to topology nodes and validates the two routes as
// an update instance.
Result<update::Instance> to_instance(const RestUpdateMessage& message,
                                     const topo::Topology& topology);

// Applies the message's optional controller knobs (admission policy and
// release granularity, max_in_flight, the batching knobs batch_mode /
// batch_window_ms / batch_bytes, the sharding knobs shards / partition,
// plan_cache, and the fault-tolerance knobs liveness_timeout_ms /
// failure_response) onto a controller configuration.
void apply_controller_overrides(const RestUpdateMessage& message,
                                controller::ControllerConfig& config);

}  // namespace tsu::rest
