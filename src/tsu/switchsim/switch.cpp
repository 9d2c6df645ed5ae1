#include "tsu/switchsim/switch.hpp"

#include <algorithm>
#include <iterator>

#include "tsu/proto/apply.hpp"
#include "tsu/util/log.hpp"

namespace tsu::switchsim {

void SimSwitch::receive(const proto::Message& message) {
  if (!up_) {
    // The process is dead; the frame reached a closed port. Counting, not
    // queueing: the controller's liveness timeout owns the recovery.
    ++frames_dropped_;
    return;
  }
  if (message.type() == proto::MsgType::kBatch) {
    // Unpack atomically: the contained messages enter the FIFO in order, so
    // a FlowMod-then-Barrier sequence keeps its fencing semantics while the
    // whole group paid only one channel frame.
    ++batches_received_;
    const proto::Batch& batch = std::get<proto::Batch>(message.body);
    batched_messages_received_ += batch.messages.size();
    largest_batch_ = std::max(largest_batch_, batch.messages.size());
    for (const proto::Message& m : batch.messages) inbox_.push_back(m);
  } else {
    inbox_.push_back(message);
  }
  if (!busy_) start_next();
}

void SimSwitch::start_next() {
  TSU_ASSERT(!busy_);
  if (inbox_.empty()) return;
  busy_ = true;
  const proto::Message message = std::move(inbox_.front());
  inbox_.pop_front();

  sim::Duration processing = config_.message_processing;
  if (message.type() == proto::MsgType::kFlowMod) {
    processing = config_.install_latency.sample(rng_);
    install_times_.add(static_cast<double>(processing));
  } else if (message.type() == proto::MsgType::kBarrierRequest) {
    processing = config_.barrier_processing;
  }

  // The captured epoch fences this completion across a crash: if the
  // process dies before the install lands, the event no-ops.
  auto completion = [this, message = std::move(message), epoch = epoch_]() {
    if (epoch != epoch_) return;
    complete(message);
    busy_ = false;
    start_next();
    // Arm (or re-arm) the reply flush AFTER start_next scheduled the
    // next completion: the flush event then sorts after every
    // completion of this instant, so all same-instant replies share
    // one frame.
    maybe_flush_replies();
  };
  // Per-message completion is the switch's hot-path event: it must stay
  // within the event fabric's inline buffer or every install allocates.
  static_assert(sim::EventFn::fits_inline<decltype(completion)>(),
                "switch completion closure outgrew the inline event buffer");
  sim_.schedule(processing, std::move(completion));
}

void SimSwitch::complete(const proto::Message& message) {
  switch (message.type()) {
    case proto::MsgType::kFlowMod:
      apply_flow_mod(std::get<proto::FlowMod>(message.body));
      ++flow_mods_applied_;
      break;
    case proto::MsgType::kBarrierRequest:
      ++barriers_replied_;
      send_to_controller(proto::make_barrier_reply(message.xid));
      break;
    case proto::MsgType::kEchoRequest:
      send_to_controller(proto::make_echo_reply(
          message.xid, std::get<proto::Echo>(message.body).payload));
      break;
    case proto::MsgType::kHello:
      send_to_controller(proto::make_hello(message.xid));
      break;
    case proto::MsgType::kFeaturesRequest: {
      // Count populated tables: resident-but-empty tables are unwound
      // state, not capacity the datapath advertises.
      const std::size_t populated = populated_tables();
      proto::Message reply;
      reply.xid = message.xid;
      reply.body = proto::FeaturesReply{
          dpid_, static_cast<std::uint32_t>(populated == 0 ? 1 : populated)};
      send_to_controller(std::move(reply));
      break;
    }
    default:
      TSU_LOG(kDebug) << "switch " << node_ << " ignoring "
                      << message.to_string();
      break;
  }
}

void SimSwitch::send_to_controller(proto::Message message) {
  if (to_controller_ == nullptr) return;
  if (!config_.batch_replies) {
    to_controller_(message);
    return;
  }
  // Same-instant coalescing towards the controller: collect until the
  // zero-delay flush (armed by the completion event), mirroring the
  // controller's kInstant outbox.
  reply_outbox_.push_back(std::move(message));
}

void SimSwitch::maybe_flush_replies() {
  if (reply_outbox_.empty()) return;
  // Re-arming on every completion keeps the flush sorted after the last
  // same-instant completion; the lazy-cancel event queue absorbs the
  // churn (see sim/event_queue.hpp).
  if (reply_flush_scheduled_) sim_.cancel(reply_flush_event_);
  reply_flush_scheduled_ = true;
  reply_flush_event_ = sim_.schedule(0, [this]() { flush_replies(); });
}

void SimSwitch::flush_replies() {
  reply_flush_scheduled_ = false;
  if (reply_outbox_.empty() || to_controller_ == nullptr) return;
  reply_scratch_.clear();
  std::vector<proto::Message>& replies = reply_scratch_;
  replies.swap(reply_outbox_);
  // Chunk against the shared frame-cap-derived bound (proto).
  std::size_t begin = 0;
  while (begin < replies.size()) {
    const std::size_t end =
        std::min(begin + proto::kMaxBatchMessages, replies.size());
    // A lone reply gains nothing from batch framing: send it plain. The
    // batch frame's own xid carries no routing information (each contained
    // reply keeps its shard-tagged xid), so 0 is fine.
    if (end - begin == 1) {
      to_controller_(replies[begin]);
    } else {
      std::vector<proto::Message> chunk(
          std::make_move_iterator(replies.begin() + begin),
          std::make_move_iterator(replies.begin() + end));
      batched_replies_sent_ += chunk.size();
      ++reply_batches_sent_;
      to_controller_(proto::make_batch(0, std::move(chunk)));
    }
    begin = end;
  }
}

void SimSwitch::apply_flow_mod(const proto::FlowMod& mod) {
  // Mods mutate the table named in the message, so updates admitted as
  // non-conflicting on the table dimension really touch disjoint state.
  // Shared semantics with the controller's shadow tables (proto/apply.hpp):
  // crash resync reconstructs exactly what this would have built.
  proto::apply_flow_mod(tables_, mod);
}

void SimSwitch::crash(bool lose_state) {
  ++crashes_;
  ++epoch_;  // orphan any in-flight completion event
  up_ = false;
  serving_ = false;
  busy_ = false;
  frames_dropped_ += inbox_.size();
  inbox_.clear();
  reply_outbox_.clear();
  if (reply_flush_scheduled_) {
    reply_flush_scheduled_ = false;
    sim_.cancel(reply_flush_event_);
  }
  if (lose_state) tables_.clear();
}

void SimSwitch::restart() {
  up_ = true;
  announce();
}

void SimSwitch::announce() {
  if (!up_) return;  // a dead process can't greet a revived link
  // A fresh session's handshake frame. Straight onto the channel: the
  // reply outbox belongs to the previous session's batching discipline.
  // The xid carries the handshake's state bit (stand-in for the
  // features/stats exchange of a real reconnect): nonzero means the
  // tables survived, so the controller can resync just the uncertain keys.
  // Populated, not resident: a switch whose rules were all unwound holds
  // no state worth resyncing, exactly as if the tables had been dropped.
  if (to_controller_ != nullptr)
    to_controller_(proto::make_hello(populated_tables() == 0 ? 0 : 1));
}

}  // namespace tsu::switchsim
