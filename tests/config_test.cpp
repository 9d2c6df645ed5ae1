#include <gtest/gtest.h>

#include "tsu/core/config.hpp"

namespace tsu::core {
namespace {

Result<ExecutorConfig> parse(std::string_view text) {
  return config_from_json(text);
}

TEST(ConfigTest, EmptyObjectYieldsDefaults) {
  const Result<ExecutorConfig> config = parse("{}");
  ASSERT_TRUE(config.ok());
  const ExecutorConfig defaults;
  EXPECT_EQ(config.value().seed, defaults.seed);
  EXPECT_EQ(config.value().with_traffic, defaults.with_traffic);
  EXPECT_EQ(config.value().priority, defaults.priority);
}

TEST(ConfigTest, FullDocumentParses) {
  const Result<ExecutorConfig> config = parse(R"({
    "seed": 99,
    "channel": {
      "latency": {"kind": "uniform", "lo_ms": 0.1, "hi_ms": 8},
      "loss": 0.05,
      "retransmit_timeout_ms": 30
    },
    "switch": {
      "install": {"kind": "lognormal", "median_ms": 2, "sigma": 1.0},
      "barrier_us": 50,
      "processing_us": 5
    },
    "use_barriers": false,
    "flow": 7,
    "priority": 321,
    "interval_ms": 12.5,
    "traffic": {
      "enabled": false,
      "interarrival": {"kind": "exponential", "mean_ms": 0.2},
      "link": {"kind": "constant", "ms": 0.05},
      "ttl": 32,
      "warmup_ms": 2,
      "drain_ms": 10
    }
  })");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  const ExecutorConfig& c = config.value();
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.channel.latency.kind, sim::LatencyKind::kUniform);
  EXPECT_DOUBLE_EQ(c.channel.loss_probability, 0.05);
  EXPECT_EQ(c.channel.retransmit_timeout, sim::milliseconds(30));
  EXPECT_EQ(c.switch_config.install_latency.kind,
            sim::LatencyKind::kLognormal);
  EXPECT_EQ(c.switch_config.barrier_processing, sim::microseconds(50));
  EXPECT_FALSE(c.controller.use_barriers);
  EXPECT_EQ(c.flow, 7u);
  EXPECT_EQ(c.priority, 321);
  EXPECT_EQ(c.interval, sim::from_ms(12.5));
  EXPECT_FALSE(c.with_traffic);
  EXPECT_EQ(c.ttl, 32);
  EXPECT_EQ(c.warmup, sim::milliseconds(2));
}

TEST(ConfigTest, AllLatencyKindsParse) {
  for (const char* text : {
           R"({"kind": "constant", "ms": 1})",
           R"({"kind": "uniform", "lo_ms": 1, "hi_ms": 2})",
           R"({"kind": "exponential", "mean_ms": 1})",
           R"({"kind": "lognormal", "median_ms": 1, "sigma": 0.5})",
           R"({"kind": "pareto", "lo_ms": 0.5, "hi_ms": 50, "alpha": 1.3})",
       }) {
    const Result<json::Value> doc = json::parse(text);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(latency_from_json(doc.value()).ok()) << text;
  }
}

TEST(ConfigTest, LatencyRejectsBadInput) {
  for (const char* text : {
           R"("constant")",                                  // not an object
           R"({"ms": 1})",                                   // missing kind
           R"({"kind": "warp", "ms": 1})",                   // unknown kind
           R"({"kind": "constant"})",                        // missing field
           R"({"kind": "constant", "ms": -1})",              // negative
           R"({"kind": "uniform", "lo_ms": 5, "hi_ms": 1})", // inverted
           R"({"kind": "exponential", "mean_ms": 0})",       // zero mean
           R"({"kind": "pareto", "lo_ms": 0, "hi_ms": 1, "alpha": 1})",
       }) {
    const Result<json::Value> doc = json::parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    EXPECT_FALSE(latency_from_json(doc.value()).ok()) << text;
  }
}

TEST(ConfigTest, UnknownFieldsRejected) {
  EXPECT_FALSE(parse(R"({"sedd": 1})").ok());
  EXPECT_FALSE(parse(R"({"channel": {"latencyy": {}}})").ok());
  EXPECT_FALSE(parse(R"({"traffic": {"rate": 1}})").ok());
  EXPECT_FALSE(parse(R"({"switch": {"install_ms": 1}})").ok());
}

TEST(ConfigTest, RangeChecks) {
  EXPECT_FALSE(parse(R"({"seed": -1})").ok());
  EXPECT_FALSE(parse(R"({"channel": {"loss": 1.5}})").ok());
  EXPECT_FALSE(parse(R"({"priority": 70000})").ok());
  EXPECT_FALSE(parse(R"({"interval_ms": -2})").ok());
  EXPECT_FALSE(parse(R"({"traffic": {"ttl": 0}})").ok());
  EXPECT_FALSE(parse(R"({"use_barriers": "yes"})").ok());
  EXPECT_FALSE(parse(R"({"max_in_flight": 0})").ok());
  EXPECT_FALSE(parse(R"({"batch_mode": "eager"})").ok());
  EXPECT_FALSE(parse(R"({"batch_window_ms": -0.5})").ok());
  EXPECT_FALSE(parse(R"({"batch_bytes": 0})").ok());
  EXPECT_FALSE(parse(R"({"admission": "optimistic"})").ok());
  EXPECT_FALSE(parse(R"({"admission_release": "eventually"})").ok());
  EXPECT_FALSE(parse(R"({"shards": 0})").ok());
  EXPECT_FALSE(parse(R"({"shards": 257})").ok());
  EXPECT_FALSE(parse(R"({"partition": "modulo"})").ok());
  EXPECT_FALSE(parse(R"({"switch": {"batch_replies": 1}})").ok());
  EXPECT_FALSE(parse(R"(42)").ok());
  EXPECT_FALSE(parse(R"(not json)").ok());
}

TEST(ConfigTest, ShardingKnobsParse) {
  const Result<ExecutorConfig> parsed = parse(
      R"({"shards": 8, "partition": "block",
          "admission_release": "round",
          "switch": {"batch_replies": true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().controller.shards, 8u);
  EXPECT_EQ(parsed.value().controller.partition,
            topo::PartitionScheme::kBlock);
  EXPECT_EQ(parsed.value().controller.admission_release,
            controller::AdmissionRelease::kRound);
  EXPECT_TRUE(parsed.value().switch_config.batch_replies);

  // Defaults: the single controller, per-request release, plain replies.
  const Result<ExecutorConfig> defaults = parse("{}");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().controller.shards, 1u);
  EXPECT_EQ(defaults.value().controller.admission_release,
            controller::AdmissionRelease::kRequest);
  EXPECT_FALSE(defaults.value().switch_config.batch_replies);
}

// The sharded clock has one stepper, so the old parallel-stepper knobs are
// unknown fields, rejected even when their values are well-typed.
TEST(ConfigTest, ParallelStepperKnobsAreUnknownFields) {
  for (const char* doc :
       {R"({"exec": "sequential"})", R"({"threads": 4})",
        R"({"speculate": true})", R"({"steal": false})"}) {
    const Result<ExecutorConfig> parsed = parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.error().code, Errc::kParseError) << doc;
    EXPECT_NE(parsed.error().message.find("unknown config field"),
              std::string::npos)
        << doc;
  }
}

TEST(ConfigTest, ControllerKnobsParse) {
  const Result<ExecutorConfig> parsed = parse(
      R"({"max_in_flight": 64,
          "batch_mode": "window", "batch_window_ms": 0.25,
          "batch_bytes": 8192, "admission": "conflict_aware"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().controller.max_in_flight, 64u);
  EXPECT_EQ(parsed.value().controller.batch_mode,
            controller::BatchMode::kWindow);
  EXPECT_EQ(parsed.value().controller.batch_window, sim::microseconds(250));
  EXPECT_EQ(parsed.value().controller.batch_bytes, 8192u);
  EXPECT_EQ(parsed.value().controller.admission,
            controller::AdmissionPolicy::kConflictAware);
}

// batch_mode is the one batching knob: the retired batch_frames bool is
// an unknown field like any other, never a silent alias.
TEST(ConfigTest, BatchFramesIsAnUnknownField) {
  const Result<ExecutorConfig> legacy = parse(R"({"batch_frames": true})");
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.error().code, Errc::kParseError);
  EXPECT_EQ(legacy.error().message, "unknown config field 'batch_frames'");

  const Result<ExecutorConfig> instant = parse(R"({"batch_mode": "instant"})");
  ASSERT_TRUE(instant.ok());
  EXPECT_EQ(instant.value().controller.batch_mode,
            controller::BatchMode::kInstant);
}

TEST(ConfigTest, RoundTripThroughJson) {
  ExecutorConfig config;
  config.seed = 17;
  config.channel.latency =
      sim::LatencyModel::pareto(sim::microseconds(500),
                                sim::milliseconds(50), 1.3);
  config.channel.loss_probability = 0.02;
  config.controller.use_barriers = false;
  config.controller.max_in_flight = 32;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::microseconds(750);
  config.controller.batch_bytes = 4096;
  config.controller.admission = controller::AdmissionPolicy::kSerialize;
  config.controller.admission_release = controller::AdmissionRelease::kRound;
  config.controller.shards = 4;
  config.controller.partition = topo::PartitionScheme::kBlock;
  config.switch_config.batch_replies = true;
  config.with_traffic = false;
  config.ttl = 48;
  config.interval = sim::milliseconds(7);

  const json::Value doc = config_to_json(config);
  for (const char* gone : {"exec", "threads", "speculate", "steal"})
    EXPECT_FALSE(doc.as_object().contains(gone)) << gone;
  const std::string rendered = json::write(doc);
  const Result<ExecutorConfig> reparsed =
      config_from_json(std::string_view(rendered));
  ASSERT_TRUE(reparsed.ok()) << rendered;
  const ExecutorConfig& c = reparsed.value();
  EXPECT_EQ(c.seed, 17u);
  EXPECT_EQ(c.channel.latency.kind, sim::LatencyKind::kPareto);
  EXPECT_NEAR(c.channel.latency.c, 1.3, 1e-9);
  EXPECT_DOUBLE_EQ(c.channel.loss_probability, 0.02);
  EXPECT_FALSE(c.controller.use_barriers);
  EXPECT_EQ(c.controller.max_in_flight, 32u);
  EXPECT_EQ(c.controller.batch_mode, controller::BatchMode::kAdaptive);
  EXPECT_EQ(c.controller.batch_window, sim::microseconds(750));
  EXPECT_EQ(c.controller.batch_bytes, 4096u);
  EXPECT_EQ(c.controller.admission, controller::AdmissionPolicy::kSerialize);
  EXPECT_EQ(c.controller.admission_release,
            controller::AdmissionRelease::kRound);
  EXPECT_EQ(c.controller.shards, 4u);
  EXPECT_EQ(c.controller.partition, topo::PartitionScheme::kBlock);
  EXPECT_TRUE(c.switch_config.batch_replies);
  EXPECT_FALSE(c.with_traffic);
  EXPECT_EQ(c.ttl, 48);
  EXPECT_EQ(c.interval, sim::milliseconds(7));
}

}  // namespace
}  // namespace tsu::core
