#include <gtest/gtest.h>

#include "tsu/rest/rest.hpp"
#include "tsu/topo/generators.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::rest {
namespace {

// The paper's example message shape (§2), concretized for Figure 1.
constexpr const char* kFig1Request = R"({
  "oldpath": [1, 2, 3, 4, 8, 5, 6, 12],
  "newpath": [1, 7, 5, 3, 2, 9, 10, 11, 12],
  "wp": 3,
  "interval": 50,
  "add": [
    {"dpid": 7, "priority": 100, "match": {"flow": 1},
     "actions": [{"type": "OUTPUT", "port": 5}]}
  ],
  "modify": [
    {"dpid": 1, "priority": 100, "match": {"flow": 1},
     "actions": [{"type": "OUTPUT", "port": 7}]}
  ]
})";

TEST(RestParseTest, ParsesPaperShapedMessage) {
  const Result<RestUpdateMessage> parsed = parse_update_message(kFig1Request);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const RestUpdateMessage& m = parsed.value();
  EXPECT_EQ(m.old_path,
            (std::vector<DatapathId>{1, 2, 3, 4, 8, 5, 6, 12}));
  EXPECT_EQ(m.new_path,
            (std::vector<DatapathId>{1, 7, 5, 3, 2, 9, 10, 11, 12}));
  EXPECT_EQ(m.waypoint, 3u);
  EXPECT_DOUBLE_EQ(m.interval_ms, 50.0);
  ASSERT_EQ(m.flow_mods.size(), 2u);
  EXPECT_EQ(m.flow_mods[0].dpid, 7u);
  EXPECT_EQ(m.flow_mods[0].mod.command, proto::FlowModCommand::kAdd);
  EXPECT_EQ(m.flow_mods[0].mod.action, flow::Action::forward(5));
  EXPECT_EQ(m.flow_mods[1].mod.command, proto::FlowModCommand::kModify);
}

TEST(RestParseTest, AcceptsNumericStrings) {
  // "the waypoint is a string, which can be converted to an integer value"
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": ["1", "2", "3"], "newpath": ["1", "4", "3"],
          "wp": "2", "interval": 0})");
  // wp=2 is not on the new path; parsing still succeeds - instance
  // validation is a separate step.
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().old_path, (std::vector<DatapathId>{1, 2, 3}));
  EXPECT_EQ(parsed.value().waypoint, 2u);
}

TEST(RestParseTest, WaypointAndBodyOptional) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().waypoint.has_value());
  EXPECT_TRUE(parsed.value().flow_mods.empty());
  EXPECT_DOUBLE_EQ(parsed.value().interval_ms, 0.0);
}

TEST(RestParseTest, ControllerKnobsParsedAndApplied) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2],
          "admission": "conflict_aware", "max_in_flight": 16,
          "batch_mode": "instant"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().admission,
            controller::AdmissionPolicy::kConflictAware);
  EXPECT_EQ(parsed.value().max_in_flight, 16u);
  EXPECT_EQ(parsed.value().batch_mode, controller::BatchMode::kInstant);

  controller::ControllerConfig config;
  apply_controller_overrides(parsed.value(), config);
  EXPECT_EQ(config.admission, controller::AdmissionPolicy::kConflictAware);
  EXPECT_EQ(config.max_in_flight, 16u);
  EXPECT_EQ(config.batch_mode, controller::BatchMode::kInstant);

  // Absent knobs leave the config alone.
  const Result<RestUpdateMessage> plain =
      parse_update_message(R"({"oldpath": [1, 2], "newpath": [1, 2]})");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().admission.has_value());
  controller::ControllerConfig untouched;
  untouched.max_in_flight = 4;
  apply_controller_overrides(plain.value(), untouched);
  EXPECT_EQ(untouched.max_in_flight, 4u);
  EXPECT_EQ(untouched.admission, controller::AdmissionPolicy::kBlind);
}

TEST(RestParseTest, BatchingKnobsParsedAndApplied) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2],
          "batch_mode": "adaptive", "batch_window_ms": 0.25,
          "batch_bytes": 4096})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().batch_mode, controller::BatchMode::kAdaptive);
  EXPECT_DOUBLE_EQ(*parsed.value().batch_window_ms, 0.25);
  EXPECT_EQ(parsed.value().batch_bytes, 4096u);

  controller::ControllerConfig config;
  apply_controller_overrides(parsed.value(), config);
  EXPECT_EQ(config.batch_mode, controller::BatchMode::kAdaptive);
  EXPECT_EQ(config.batch_window, sim::microseconds(250));
  EXPECT_EQ(config.batch_bytes, 4096u);

  // An explicit "off" header overrides a server-side batch mode.
  const Result<RestUpdateMessage> off = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2], "batch_mode": "off"})");
  ASSERT_TRUE(off.ok());
  controller::ControllerConfig batched;
  batched.batch_mode = controller::BatchMode::kInstant;
  apply_controller_overrides(off.value(), batched);
  EXPECT_EQ(batched.batch_mode, controller::BatchMode::kOff);
}

TEST(RestParseTest, RejectsBadControllerKnobs) {
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "admission": "optimistic"})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1], "max_in_flight": 0})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "batch_frames": true})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "batch_mode": "eager"})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "batch_window_ms": -1})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1], "batch_bytes": 0})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1], "shards": 0})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1], "shards": 300})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "partition": "modulo"})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1], "newpath": [1],
                       "admission_release": "never"})")
                   .ok());
}

TEST(RestParseTest, ShardingKnobsParsedAndApplied) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2],
          "shards": 4, "partition": "block",
          "admission_release": "round"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().shards, 4u);
  EXPECT_EQ(parsed.value().partition, topo::PartitionScheme::kBlock);
  EXPECT_EQ(parsed.value().admission_release,
            controller::AdmissionRelease::kRound);

  controller::ControllerConfig config;
  apply_controller_overrides(parsed.value(), config);
  EXPECT_EQ(config.shards, 4u);
  EXPECT_EQ(config.partition, topo::PartitionScheme::kBlock);
  EXPECT_EQ(config.admission_release, controller::AdmissionRelease::kRound);

  // The sharded clock has one stepper: the old parallel-stepper knobs are
  // unknown header fields, rejected even when well-typed.
  for (const char* doc :
       {R"({"oldpath": [1], "newpath": [1], "exec": "sequential"})",
        R"({"oldpath": [1], "newpath": [1], "threads": 4})",
        R"({"oldpath": [1], "newpath": [1], "speculate": true})",
        R"({"oldpath": [1], "newpath": [1], "steal": false})"})
    EXPECT_FALSE(parse_update_message(doc).ok()) << doc;

  // Absent sharding knobs leave the server's configuration alone.
  const Result<RestUpdateMessage> plain =
      parse_update_message(R"({"oldpath": [1, 2], "newpath": [1, 2]})");
  ASSERT_TRUE(plain.ok());
  controller::ControllerConfig untouched;
  untouched.shards = 2;
  untouched.partition = topo::PartitionScheme::kGreedyCut;
  apply_controller_overrides(plain.value(), untouched);
  EXPECT_EQ(untouched.shards, 2u);
  EXPECT_EQ(untouched.partition, topo::PartitionScheme::kGreedyCut);
  EXPECT_EQ(untouched.admission_release,
            controller::AdmissionRelease::kRequest);
}

TEST(RestParseTest, RejectsMissingPaths) {
  EXPECT_FALSE(parse_update_message(R"({"newpath": [1, 2]})").ok());
  EXPECT_FALSE(parse_update_message(R"({"oldpath": [1, 2]})").ok());
  EXPECT_FALSE(parse_update_message(R"({})").ok());
}

TEST(RestParseTest, RejectsMalformedFields) {
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": "nope", "newpath": [1, 2]})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, "x"], "newpath": [1, 2]})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2], "wp": -3})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2],
                       "interval": -1})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2],
                       "frobnicate": []})")
                   .ok());
}

TEST(RestParseTest, RejectsBadFlowMods) {
  // Missing dpid.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"priority": 1}]})")
                   .ok());
  // Unknown action type.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1,
                                "actions": [{"type": "TELEPORT"}]}]})")
                   .ok());
  // Unknown match field.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1, "match": {"vlan": 5}}]})")
                   .ok());
  // Priority out of range.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1, "priority": 70000}]})")
                   .ok());
  // Not even JSON.
  EXPECT_FALSE(parse_update_message("oldpath=1,2").ok());
}

TEST(RestParseTest, DeleteEntriesSupported) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2],
          "delete": [{"dpid": 4, "match": {"flow": 1}}]})");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().flow_mods.size(), 1u);
  EXPECT_EQ(parsed.value().flow_mods[0].mod.command,
            proto::FlowModCommand::kDelete);
}

TEST(RestRoundTripTest, ToJsonParsesBack) {
  const Result<RestUpdateMessage> first = parse_update_message(kFig1Request);
  ASSERT_TRUE(first.ok());
  const std::string rendered = to_json(first.value());
  const Result<RestUpdateMessage> second = parse_update_message(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  EXPECT_EQ(second.value().old_path, first.value().old_path);
  EXPECT_EQ(second.value().new_path, first.value().new_path);
  EXPECT_EQ(second.value().waypoint, first.value().waypoint);
  ASSERT_EQ(second.value().flow_mods.size(), first.value().flow_mods.size());
  for (std::size_t i = 0; i < second.value().flow_mods.size(); ++i) {
    EXPECT_EQ(second.value().flow_mods[i].dpid,
              first.value().flow_mods[i].dpid);
    EXPECT_EQ(second.value().flow_mods[i].mod.match,
              first.value().flow_mods[i].mod.match);
    EXPECT_EQ(second.value().flow_mods[i].mod.action,
              first.value().flow_mods[i].mod.action);
  }
}

TEST(RestRoundTripTest, ControllerKnobsSurviveRoundTrip) {
  RestUpdateMessage message;
  message.old_path = {1, 2};
  message.new_path = {1, 2};
  message.admission = controller::AdmissionPolicy::kSerialize;
  message.max_in_flight = 8;
  message.batch_mode = controller::BatchMode::kWindow;
  message.batch_window_ms = 0.5;
  message.batch_bytes = 2048;
  message.shards = 4;
  message.partition = topo::PartitionScheme::kHash;
  message.admission_release = controller::AdmissionRelease::kRound;
  message.plan_cache = false;
  const Result<RestUpdateMessage> back =
      parse_update_message(to_json(message));
  ASSERT_TRUE(back.ok()) << to_json(message);
  EXPECT_EQ(back.value().admission, controller::AdmissionPolicy::kSerialize);
  EXPECT_EQ(back.value().max_in_flight, 8u);
  EXPECT_EQ(back.value().batch_mode, controller::BatchMode::kWindow);
  EXPECT_DOUBLE_EQ(*back.value().batch_window_ms, 0.5);
  EXPECT_EQ(back.value().batch_bytes, 2048u);
  EXPECT_EQ(back.value().shards, 4u);
  EXPECT_EQ(back.value().partition, topo::PartitionScheme::kHash);
  EXPECT_EQ(back.value().admission_release,
            controller::AdmissionRelease::kRound);
  EXPECT_EQ(back.value().plan_cache, false);  // false is an explicit value
}

TEST(RestToInstanceTest, MapsDatapathsToNodes) {
  const topo::Fig1 fig = topo::fig1();
  const Result<RestUpdateMessage> parsed = parse_update_message(kFig1Request);
  ASSERT_TRUE(parsed.ok());
  const Result<update::Instance> inst =
      to_instance(parsed.value(), fig.topology);
  ASSERT_TRUE(inst.ok()) << inst.error().to_string();
  EXPECT_EQ(inst.value().old_path(), fig.instance.old_path());
  EXPECT_EQ(inst.value().new_path(), fig.instance.new_path());
  EXPECT_EQ(inst.value().waypoint(), fig.instance.waypoint());
}

TEST(RestToInstanceTest, UnknownDatapathRejected) {
  const topo::Fig1 fig = topo::fig1();
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 99], "newpath": [1, 99]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(to_instance(parsed.value(), fig.topology).ok());
}

TEST(RestToInstanceTest, InvalidRoutePairRejected) {
  const topo::Fig1 fig = topo::fig1();
  // Different endpoints.
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2, 3], "newpath": [2, 3]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(to_instance(parsed.value(), fig.topology).ok());
}

TEST(RestToInstanceTest, CustomDpidMappingHonored) {
  topo::Topology topology = topo::line(3);
  topology.set_dpid(0, 100);
  topology.set_dpid(1, 200);
  topology.set_dpid(2, 300);
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [100, 200, 300], "newpath": [100, 300]})");
  ASSERT_TRUE(parsed.ok());
  const Result<update::Instance> inst =
      to_instance(parsed.value(), topology);
  ASSERT_TRUE(inst.ok()) << inst.error().to_string();
  EXPECT_EQ(inst.value().old_path(), (graph::Path{0, 1, 2}));
  EXPECT_EQ(inst.value().new_path(), (graph::Path{0, 2}));
}

}  // namespace
}  // namespace tsu::rest
