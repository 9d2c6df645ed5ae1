// Asynchronous control channel between the controller and one switch.
//
// OpenFlow runs over TCP: per-connection delivery is reliable and in-order,
// but *different* switches' connections race each other freely - which is
// exactly the asynchrony the paper's schedulers defend against. The model:
// every frame samples a latency from the configured distribution; delivery
// order within one channel direction is forced FIFO (a later frame never
// overtakes an earlier one); loss is modelled as TCP would surface it, as an
// extra retransmission delay rather than an actual drop.
//
// Frames are round-tripped through the binary codec on every send, so the
// wire format is exercised by every simulation, not just by codec tests.
// Frame buffers are pooled: a send encodes into a recycled vector (capacity
// retained) and the delivery event returns it to the pool, so steady-state
// traffic allocates nothing once buffers hit their high-water size.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tsu/proto/codec.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::channel {

struct ChannelConfig {
  sim::LatencyModel latency = sim::LatencyModel::constant(sim::milliseconds(1));
  // Probability that a frame transmission is lost and must be retransmitted
  // after `retransmit_timeout` (repeatable; geometric number of attempts).
  double loss_probability = 0.0;
  sim::Duration retransmit_timeout = sim::milliseconds(50);
};

class ControlChannel {
 public:
  using DeliverFn = std::function<void(const proto::Message&)>;

  ControlChannel(sim::Simulator& simulator, ChannelConfig config, Rng rng)
      : sim_(simulator), config_(config), rng_(rng) {}

  void set_receiver(DeliverFn receiver) { receiver_ = std::move(receiver); }

  // Enqueues `message` for delivery to the receiver side.
  void send(const proto::Message& message);

  // Zero-encode variant for the compiled-plan submission path: `bytes` is
  // a complete pre-encoded frame (single message, never a batch) whose xid
  // field is patched to `xid` after copying into a pooled buffer - the
  // caller's bytes stay immutable. Delivery is byte-identical to send() of
  // the equivalent message: same counters, same single latency sample,
  // same FIFO clamp, same fault gates.
  void send_encoded(std::span<const std::byte> bytes, std::uint32_t xid);

  // --- fault injection (sim/faults.hpp; inert unless driven) -----------
  // Link outage: frames sent while down are dropped at the sender (the TCP
  // session is gone - nothing buffers), and frames already in flight at
  // the down transition are lost too (each delivery is fenced on the link
  // epoch captured at send time). Taking the link back up starts a fresh
  // epoch; it never resurrects lost frames.
  void set_down(bool down) noexcept {
    if (down_ != down) ++epoch_;
    down_ = down;
  }
  bool down() const noexcept { return down_; }
  // Blackhole: silently drop the next `frames` frames (no session loss).
  // The glitch window always closes on a barrier boundary - if none of the
  // eaten frames carried a barrier request, dropping continues until one
  // does. A later barrier delivered after a silently lost FlowMod would
  // otherwise fence the loss and hide it from liveness detection forever.
  void drop_next(std::size_t frames) noexcept { pending_drops_ += frames; }
  // Frames lost to outages and blackholes.
  std::size_t frames_dropped() const noexcept { return frames_dropped_; }

  std::size_t frames_sent() const noexcept { return frames_sent_; }
  std::size_t bytes_sent() const noexcept { return bytes_sent_; }
  std::size_t retransmissions() const noexcept { return retransmissions_; }
  // Logical messages carried; a batch frame counts its contained messages,
  // so messages_sent() - frames_sent() is the coalescing saving.
  std::size_t messages_sent() const noexcept { return messages_sent_; }

 private:
  // Shared fault gate: returns true when the frame was consumed by an
  // outage or blackhole window (counted in frames_dropped_). `barrier` is
  // whether the frame carries a barrier request - blackhole windows only
  // close on barrier boundaries.
  bool faulted_drop(bool barrier);
  // Shared back half of send()/send_encoded(): counts the frame, samples
  // one latency (plus loss retransmits) and schedules the FIFO-clamped
  // delivery event that decodes and hands the message to the receiver.
  void transmit(std::vector<std::byte>&& frame, std::size_t messages);

  // Frame-buffer pool. acquire hands out a cleared vector that keeps its
  // high-water capacity; release returns it after delivery (or epoch drop).
  std::vector<std::byte> acquire_frame() {
    if (frame_pool_.empty()) return {};
    std::vector<std::byte> frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    return frame;
  }
  void release_frame(std::vector<std::byte>&& frame) {
    frame.clear();
    frame_pool_.push_back(std::move(frame));
  }

  sim::Simulator& sim_;
  ChannelConfig config_;
  Rng rng_;
  DeliverFn receiver_;
  sim::SimTime last_delivery_ = 0;

  // Fault state: down flag, link-session epoch (bumped on every up/down
  // transition; deliveries from an older epoch are dropped), and the
  // blackhole countdown. All untouched on the fault-free path.
  bool down_ = false;
  std::uint64_t epoch_ = 0;
  std::size_t pending_drops_ = 0;
  bool drop_until_barrier_ = false;
  std::size_t frames_dropped_ = 0;

  std::size_t frames_sent_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t messages_sent_ = 0;

  std::vector<std::vector<std::byte>> frame_pool_;
};

// The duplex controller<->switch connection.
struct DuplexChannel {
  ControlChannel to_switch;
  ControlChannel to_controller;

  DuplexChannel(sim::Simulator& simulator, const ChannelConfig& config,
                Rng& parent_rng)
      : to_switch(simulator, config, parent_rng.fork()),
        to_controller(simulator, config, parent_rng.fork()) {}
};

}  // namespace tsu::channel
