// Seeded mutation fuzzing of the four external document readers: the
// executor config, the service config, the REST update message (with its
// controller overrides applied) and the fault schedule. Each loop starts
// from a valid document that sets every field the reader knows, applies
// one to three random edits - byte flips, deletions, truncations and swaps
// of a numeric literal for 1e308, -1, 2.5, 2^64 or -0 - and hands the
// result to the reader. Every input must come back as a value or an
// error; an assertion failure or a sanitizer report fails the test. The
// loops are deterministic per seed, so a failing input reproduces on
// every rerun.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "tsu/core/config.hpp"
#include "tsu/rest/rest.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

constexpr int kInputsPerReader = 4000;

constexpr std::string_view kExecutorDoc = R"({
  "seed": 99,
  "channel": {"latency": {"kind": "uniform", "lo_ms": 0.1, "hi_ms": 8},
              "loss": 0.05, "retransmit_timeout_ms": 30},
  "switch": {"install": {"kind": "lognormal", "median_ms": 2, "sigma": 1.0},
             "barrier_us": 50, "processing_us": 5, "batch_replies": true},
  "use_barriers": true, "max_in_flight": 16, "batch_mode": "window",
  "batch_window_ms": 0.25, "batch_bytes": 8192,
  "admission": "conflict_aware", "admission_release": "round",
  "plan_cache": "on", "shards": 4, "partition": "block",
  "flow": 7, "priority": 321, "interval_ms": 12.5,
  "liveness_timeout_ms": 10, "failure_response": "rollback",
  "retry_backoff_ms": 1, "resubmit": true,
  "faults": [{"kind": "crash", "at_ms": 3, "node": 4, "down_ms": 2}],
  "traffic": {"enabled": true,
              "interarrival": {"kind": "exponential", "mean_ms": 0.2},
              "link": {"kind": "pareto", "lo_ms": 0.01, "hi_ms": 1,
                       "alpha": 1.5},
              "ttl": 64, "warmup_ms": 5, "drain_ms": 20}
})";

constexpr std::string_view kServiceDoc = R"({
  "seed": 5, "max_in_flight": 8,
  "channel": {"latency": {"kind": "constant", "ms": 1}},
  "service": {"flows": 8, "pool_switches": 48, "alternate_directions": true,
              "rate_per_sec": 700, "trace_us": [100, 250.5, 3],
              "trace_cycle": true, "horizon_ms": 1000, "target": 20000,
              "max_pending": 1024, "submit_depth": 4,
              "classes": [{"rate_limit_per_sec": 100, "burst": 4,
                           "weight": 2}, {"weight": 1}],
              "snapshot_interval_ms": 100, "snapshot_window": 4}
})";

constexpr std::string_view kRestDoc = R"({
  "oldpath": [1, 2, 3, 4, 8, 5, 6, 12],
  "newpath": [1, 7, 5, 3, 2, 9, 10, 11, 12],
  "wp": "3", "interval": 50,
  "admission": "conflict_aware", "admission_release": "round",
  "shards": 2, "partition": "hash", "plan_cache": "off",
  "liveness_timeout_ms": 20, "failure_response": "wait",
  "priority_class": 3, "max_in_flight": 16, "batch_mode": "adaptive",
  "batch_window_ms": 0.3, "batch_bytes": 4096,
  "add": [{"dpid": 7, "priority": 100, "cookie": 9,
           "match": {"flow": 1, "src": 2, "dst": 3, "in_port": 4},
           "actions": [{"type": "OUTPUT", "port": 5}]}],
  "modify": [{"dpid": "1", "priority": 100, "match": {"flow": 1},
              "actions": [{"type": "DELIVER"}]}],
  "delete": [{"dpid": 4, "match": {"flow": 1},
              "actions": [{"type": "DROP"}]}]
})";

constexpr std::string_view kFaultDoc = R"({"events": [
  {"kind": "crash", "at_ms": 3, "node": 4, "down_ms": 2, "lose_state": true},
  {"kind": "link_down", "at_ms": 5.5, "node": 2, "down_ms": 1},
  {"kind": "blackhole", "at_ms": 8, "node": 10, "frames": 3}
]})";

constexpr std::string_view kNumberSwaps[] = {"1e308", "-1", "2.5",
                                             "18446744073709551616", "-0"};

// Replaces the numeric literal around a random digit of `doc` (quoted
// numbers included) with one of kNumberSwaps.
void swap_number(std::string& doc, Rng& rng) {
  const auto is_digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  const auto in_number = [&](char c) {
    return is_digit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
           c == 'E';
  };
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < doc.size(); ++i)
    if (is_digit(doc[i])) digits.push_back(i);
  if (digits.empty()) return;
  std::size_t begin = digits[rng.index(digits.size())];
  std::size_t end = begin;
  while (begin > 0 && in_number(doc[begin - 1])) --begin;
  while (end < doc.size() && in_number(doc[end])) ++end;
  doc.replace(begin, end - begin,
              kNumberSwaps[rng.index(std::size(kNumberSwaps))]);
}

std::string mutate(std::string doc, Rng& rng) {
  const std::size_t edits = 1 + rng.index(3);
  for (std::size_t e = 0; e < edits && !doc.empty(); ++e) {
    switch (rng.index(5)) {
      case 0:  // flip one byte to any value
        doc[rng.index(doc.size())] = static_cast<char>(rng.index(256));
        break;
      case 1:  // delete a short run of bytes
        doc.erase(rng.index(doc.size()), 1 + rng.index(8));
        break;
      case 2:  // truncate
        doc.resize(rng.index(doc.size()));
        break;
      default:  // swap a numeric literal (the likeliest edit)
        swap_number(doc, rng);
        break;
    }
  }
  return doc;
}

// Feeds `kInputsPerReader` mutants of `seed_doc` to `read`, which returns
// whether the reader accepted the input. The unmutated document must be
// accepted, and the mutants must land on both sides.
void fuzz(std::string_view seed_doc, std::uint64_t seed,
          const std::function<bool(std::string_view)>& read) {
  ASSERT_TRUE(read(seed_doc)) << "the seed document must parse";
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kInputsPerReader; ++i)
    if (read(mutate(std::string(seed_doc), rng))) ++accepted;
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kInputsPerReader);
}

TEST(DocumentFuzzTest, ExecutorConfigNeverAborts) {
  fuzz(kExecutorDoc, 1, [](std::string_view text) {
    const Result<core::ExecutorConfig> config = core::config_from_json(text);
    if (!config.ok()) return false;
    json::write(core::config_to_json(config.value()));
    return true;
  });
}

TEST(DocumentFuzzTest, ServiceConfigNeverAborts) {
  fuzz(kServiceDoc, 2, [](std::string_view text) {
    const Result<core::ServiceConfig> config =
        core::service_config_from_json(text);
    if (!config.ok()) return false;
    json::write(core::service_config_to_json(config.value()));
    return true;
  });
}

TEST(DocumentFuzzTest, RestUpdateMessageNeverAborts) {
  fuzz(kRestDoc, 3, [](std::string_view text) {
    const Result<rest::RestUpdateMessage> message =
        rest::parse_update_message(text);
    if (!message.ok()) return false;
    controller::ControllerConfig config;
    rest::apply_controller_overrides(message.value(), config);
    rest::to_json(message.value());
    return true;
  });
}

TEST(DocumentFuzzTest, FaultScheduleNeverAborts) {
  fuzz(kFaultDoc, 4, [](std::string_view text) {
    const Result<sim::FaultSchedule> schedule =
        sim::FaultSchedule::from_json(text);
    if (!schedule.ok()) return false;
    json::write(schedule.value().to_json());
    return true;
  });
}

}  // namespace
}  // namespace tsu
