#include <gtest/gtest.h>

#include <vector>

#include "tsu/channel/channel.hpp"

namespace tsu::channel {
namespace {

struct Fixture {
  sim::Simulator sim;
  std::vector<std::pair<sim::SimTime, proto::Message>> received;

  ControlChannel make(ChannelConfig config, std::uint64_t seed = 1) {
    ControlChannel channel(sim, config, Rng(seed));
    channel.set_receiver([this](const proto::Message& m) {
      received.emplace_back(sim.now(), m);
    });
    return channel;
  }
};

TEST(ChannelTest, DeliversAfterConstantLatency) {
  Fixture f;
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(2));
  ControlChannel channel = f.make(config);
  channel.send(proto::make_hello(1));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].first, sim::milliseconds(2));
  EXPECT_EQ(f.received[0].second.type(), proto::MsgType::kHello);
}

TEST(ChannelTest, PreservesMessageContentThroughWire) {
  Fixture f;
  ControlChannel channel = f.make(ChannelConfig{});
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kModify;
  mod.priority = 42;
  mod.match.flow = 9;
  mod.action = flow::Action::forward(5);
  channel.send(proto::make_flow_mod(77, mod));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  const auto& decoded = std::get<proto::FlowMod>(f.received[0].second.body);
  EXPECT_EQ(f.received[0].second.xid, 77u);
  EXPECT_EQ(decoded.priority, 42);
  EXPECT_EQ(decoded.match.flow, 9u);
  EXPECT_EQ(decoded.action, flow::Action::forward(5));
}

TEST(ChannelTest, InOrderDeliveryDespiteJitter) {
  Fixture f;
  ChannelConfig config;
  config.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(10));
  ControlChannel channel = f.make(config, 99);
  for (Xid xid = 0; xid < 50; ++xid)
    channel.send(proto::make_barrier_request(xid));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 50u);
  for (Xid xid = 0; xid < 50; ++xid)
    EXPECT_EQ(f.received[xid].second.xid, xid);  // FIFO per channel
  for (std::size_t i = 1; i < f.received.size(); ++i)
    EXPECT_GE(f.received[i].first, f.received[i - 1].first);
}

TEST(ChannelTest, IndependentChannelsReorderFreely) {
  // The asynchrony of the paper: two switches' channels race.
  Fixture f;
  ChannelConfig slow;
  slow.latency = sim::LatencyModel::constant(sim::milliseconds(10));
  ChannelConfig fast;
  fast.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  ControlChannel to_s1(f.sim, slow, Rng(1));
  ControlChannel to_s2(f.sim, fast, Rng(2));
  std::vector<int> order;
  to_s1.set_receiver([&](const proto::Message&) { order.push_back(1); });
  to_s2.set_receiver([&](const proto::Message&) { order.push_back(2); });
  to_s1.send(proto::make_hello(1));  // sent first...
  to_s2.send(proto::make_hello(2));
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));  // ...but arrives second
}

TEST(ChannelTest, LossSurfacesAsRetransmitDelay) {
  Fixture f;
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  config.loss_probability = 1.0;  // would retransmit forever...
  config.retransmit_timeout = sim::milliseconds(30);
  // ...so dial it to lose exactly once via a crafted probability: use 0.5
  // and just assert delivery is never *earlier* than the base latency and
  // everything still arrives.
  config.loss_probability = 0.5;
  ControlChannel channel = f.make(config, 7);
  for (Xid xid = 0; xid < 20; ++xid) channel.send(proto::make_hello(xid));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 20u);
  EXPECT_GT(channel.retransmissions(), 0u);
  for (const auto& [at, message] : f.received)
    EXPECT_GE(at, sim::milliseconds(1));
}

TEST(ChannelTest, CountsFramesAndBytes) {
  Fixture f;
  ControlChannel channel = f.make(ChannelConfig{});
  channel.send(proto::make_hello(1));
  channel.send(proto::make_barrier_request(2));
  f.sim.run();
  EXPECT_EQ(channel.frames_sent(), 2u);
  EXPECT_EQ(channel.bytes_sent(), 16u);  // two 8-byte header-only frames
}

TEST(ChannelTest, DuplexDirectionsAreIndependent) {
  sim::Simulator sim;
  Rng rng(5);
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  DuplexChannel duplex(sim, config, rng);
  int to_switch = 0;
  int to_controller = 0;
  duplex.to_switch.set_receiver(
      [&](const proto::Message&) { ++to_switch; });
  duplex.to_controller.set_receiver(
      [&](const proto::Message&) { ++to_controller; });
  duplex.to_switch.send(proto::make_hello(1));
  duplex.to_controller.send(proto::make_hello(2));
  duplex.to_controller.send(proto::make_hello(3));
  sim.run();
  EXPECT_EQ(to_switch, 1);
  EXPECT_EQ(to_controller, 2);
}

// A blackhole window eats frames until it has eaten a barrier request,
// whether the barrier travels alone or inside a batch, and whether the
// frame was handed over as bytes (send_frame, the controller's link) or
// as a Message (send).
TEST(ChannelTest, BlackholeWindowClosesOnlyOnAFrameCarryingABarrier) {
  proto::FlowMod mod;
  mod.match.flow = 3;
  mod.action = flow::Action::forward(2);
  const std::vector<proto::Message> sequence = {
      proto::make_batch(1, {proto::make_flow_mod(2, mod),
                            proto::make_flow_mod(3, mod)}),
      proto::make_flow_mod(4, mod),
      proto::make_batch(5, {proto::make_flow_mod(6, mod),
                            proto::make_barrier_request(7)}),
      proto::make_batch(8, {proto::make_barrier_request(9),
                            proto::make_flow_mod(10, mod)}),
  };
  for (const bool as_bytes : {false, true}) {
    Fixture f;
    ControlChannel channel = f.make(ChannelConfig{});
    channel.drop_next(1);
    for (const proto::Message& message : sequence) {
      if (as_bytes)
        channel.send_frame(proto::encode(message), message.xid);
      else
        channel.send(message);
    }
    f.sim.run();
    // The first batch exhausts the budget without a barrier, so the window
    // stays open through the plain FlowMod and closes on the batch whose
    // tail is a barrier; the next frame gets through.
    EXPECT_EQ(channel.frames_dropped(), 3u) << "as_bytes " << as_bytes;
    ASSERT_EQ(f.received.size(), 1u) << "as_bytes " << as_bytes;
    EXPECT_EQ(f.received.front().second.xid, 8u);
    EXPECT_EQ(channel.messages_sent(), 2u);
  }
}

TEST(ChannelDeathTest, SendWithoutReceiverAsserts) {
  sim::Simulator sim;
  ControlChannel channel(sim, ChannelConfig{}, Rng(1));
  EXPECT_DEATH(channel.send(proto::make_hello(1)), "receiver");
}

}  // namespace
}  // namespace tsu::channel
