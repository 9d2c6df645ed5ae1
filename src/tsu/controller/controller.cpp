#include "tsu/controller/controller.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "tsu/proto/apply.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/util/log.hpp"

namespace tsu::controller {

namespace {

// Keep batch frames comfortably below the codec's 64 KiB frame cap: a
// flush splits its outbox into chunks bounded by the shared message bound
// (proto::kMaxBatchMessages) and this byte budget.
constexpr std::size_t kMaxBatchBytes = 48 * 1024;

// kAdaptive: the hold window grows linearly with queue pressure (in-flight
// plus queued updates) and reaches the full batch_window here.
constexpr std::size_t kAdaptiveSaturation = 8;

}  // namespace

const char* to_string(BatchMode mode) noexcept {
  switch (mode) {
    case BatchMode::kOff: return "off";
    case BatchMode::kInstant: return "instant";
    case BatchMode::kWindow: return "window";
    case BatchMode::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<BatchMode> batch_mode_from_string(std::string_view name) {
  if (name == "off") return BatchMode::kOff;
  if (name == "instant") return BatchMode::kInstant;
  if (name == "window") return BatchMode::kWindow;
  if (name == "adaptive") return BatchMode::kAdaptive;
  return std::nullopt;
}

const char* to_string(AdmissionRelease release) noexcept {
  switch (release) {
    case AdmissionRelease::kRequest: return "request";
    case AdmissionRelease::kRound: return "round";
  }
  return "?";
}

std::optional<AdmissionRelease> admission_release_from_string(
    std::string_view name) noexcept {
  if (name == "request") return AdmissionRelease::kRequest;
  if (name == "round") return AdmissionRelease::kRound;
  return std::nullopt;
}

const char* to_string(FailureResponse response) noexcept {
  switch (response) {
    case FailureResponse::kWait: return "wait";
    case FailureResponse::kRollback: return "rollback";
  }
  return "?";
}

std::optional<FailureResponse> failure_response_from_string(
    std::string_view name) noexcept {
  if (name == "wait") return FailureResponse::kWait;
  if (name == "rollback") return FailureResponse::kRollback;
  return std::nullopt;
}

void Controller::attach_switch(NodeId node, SendFn send) {
  TSU_ASSERT_MSG(send != nullptr, "null switch link");
  switches_[node] = std::move(send);
}

void Controller::attach_switch_encoded(NodeId node, SendEncodedFn send) {
  TSU_ASSERT_MSG(send != nullptr, "null encoded switch link");
  encoded_switches_[node] = std::move(send);
}

Controller::ActiveUpdate& Controller::insert_active(UpdateId id) {
  if (active_pool_.empty())
    return active_.emplace(id, ActiveUpdate{}).first->second;
  ActiveMap::node_type node = std::move(active_pool_.back());
  active_pool_.pop_back();
  node.key() = id;
  return active_.insert(std::move(node)).position->second;
}

void Controller::recycle_active(ActiveMap::iterator it) {
  ActiveMap::node_type node = active_.extract(it);
  ActiveUpdate& slot = node.mapped();
  slot.plan.reset();
  slot.next_round = 0;
  slot.waiting = 0;
  slot.coordinated = false;
  slot.token = 0;
  slot.system = false;
  // request / metrics / release_plan keep their buffers; the next occupant
  // assigns over them.
  active_pool_.push_back(std::move(node));
}

void Controller::insert_waiting(Xid xid, UpdateId id, NodeId node) {
  if (waiting_pool_.empty()) {
    waiting_.emplace(xid, std::make_pair(id, node));
    return;
  }
  WaitingMap::node_type handle = std::move(waiting_pool_.back());
  waiting_pool_.pop_back();
  handle.key() = xid;
  handle.mapped() = std::make_pair(id, node);
  waiting_.insert(std::move(handle));
}

void Controller::recycle_waiting(WaitingMap::iterator it) {
  waiting_pool_.push_back(waiting_.extract(it));
}

void Controller::submit(UpdateRequest request) {
  PendingUpdate pending;
  pending.id = update_counter_++;
  pending.metrics.name = request.name;
  pending.metrics.flow = request.flow;
  pending.metrics.priority_class = request.priority_class;
  pending.metrics.submitted = sim_.now();
  pending.metrics.enqueued = request.enqueued.value_or(sim_.now());
  // Register in the conflict DAG before anything can start: a later
  // submission must see this request's footprint. Only conflict-aware
  // admission reads footprints; don't compute them for the other policies.
  admission_.submit(pending.id,
                    config_.admission == AdmissionPolicy::kConflictAware
                        ? Footprint::of(request)
                        : Footprint{});
  pending.request = std::move(request);
  queue_.push_back(std::move(pending));
  maybe_start_next_request();
}

void Controller::submit_plan(std::shared_ptr<const CompiledPlan> plan,
                             std::uint8_t priority_class,
                             std::optional<sim::SimTime> enqueued) {
  TSU_ASSERT_MSG(plan != nullptr, "null compiled plan");
  // A plan-backed pending entry owns no heap state (the plan carries the
  // request), so filling a warm queue slot allocates nothing.
  queue_.emplace_back();
  PendingUpdate& pending = queue_.back();
  pending.id = update_counter_++;
  // The empty request doubles as the per-submission parameter stash: the
  // start scan reads priority_class off it, and a rollback resubmission
  // reads both back when re-materializing the request.
  pending.request.priority_class = priority_class;
  pending.request.enqueued = enqueued;
  pending.metrics.flow = plan->request.flow;
  pending.metrics.priority_class = priority_class;
  pending.metrics.submitted = sim_.now();
  pending.metrics.enqueued = enqueued.value_or(sim_.now());
  // metrics.name is deferred to start_pending (copied from the plan into
  // pooled storage), keeping this slot heap-free.
  static const Footprint kNoFootprint;
  admission_.submit(pending.id,
                    config_.admission == AdmissionPolicy::kConflictAware
                        ? plan->footprint
                        : kNoFootprint);
  pending.plan = std::move(plan);
  maybe_start_next_request();
}

void Controller::maybe_start_next_request() {
  // Start every admissible request in arrival order while capacity lasts;
  // blocked requests are skipped, not waited on, so a conflicting head
  // never holds back independent work behind it. Held coordinated
  // sub-requests are also skipped: they start only when the coordinator
  // has every participating shard ready. Among the admissible entries the
  // strictly lowest priority class starts first; ties keep arrival order,
  // so all-default classes reproduce the pre-priority start order exactly.
  // The scan restarts after each start because start_round can
  // synchronously finish a degenerate update and re-enter here,
  // invalidating any held iterator.
  bool started = true;
  while (started && active_.size() < config_.max_in_flight) {
    started = false;
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->held) continue;
      if (best != queue_.end() &&
          it->request.priority_class >= best->request.priority_class)
        continue;
      if (!admission_.admissible(it->id)) continue;
      best = it;
      if (best->request.priority_class == 0) break;
    }
    if (best != queue_.end()) {
      start_pending(best);
      started = true;
    }
  }
}

void Controller::start_pending(std::vector<PendingUpdate>::iterator it) {
  const UpdateId id = it->id;
  ActiveUpdate& active = insert_active(id);
  active.plan = std::move(it->plan);
  active.request = std::move(it->request);
  // Copy, not move: the pooled entry's string/vector buffers are reused,
  // and a plan-backed pending's metrics hold nothing worth stealing.
  active.metrics = it->metrics;
  if (active.plan != nullptr) active.metrics.name = active.plan->request.name;
  active.metrics.started = sim_.now();
  active.coordinated = it->held;
  active.token = it->token;
  // Per-round footprint release only means anything when footprints exist
  // (conflict-aware) and rounds complete one at a time (barriers on).
  if (config_.admission_release == AdmissionRelease::kRound &&
      config_.admission == AdmissionPolicy::kConflictAware &&
      config_.use_barriers) {
    if (active.plan != nullptr)
      // Copy-assign: a recycled entry's slices keep their capacity.
      active.release_plan = active.plan->release_plan;
    else
      active.release_plan = round_release_plan(active.request);
  } else {
    active.release_plan.clear();
  }
  queue_.erase(it);
  max_in_flight_observed_ = std::max(max_in_flight_observed_, active_.size());
  start_round(id);
}

void Controller::release_completed_round_rules(UpdateId id) {
  const auto it = active_.find(id);
  TSU_ASSERT(it != active_.end());
  ActiveUpdate& active = it->second;
  if (active.release_plan.empty()) return;
  const std::size_t round = active.next_round - 1;  // the just-completed one
  if (round >= active.release_plan.size()) return;
  // Copy the slice into the member scratch and clear it in place: starting
  // an unblocked request below can rehash active_ (invalidating the
  // reference), and clearing - not moving - keeps the slice's capacity for
  // the pooled entry's next occupant.
  release_rules_scratch_ = active.release_plan[round];
  active.release_plan[round].clear();
  if (release_rules_scratch_.empty()) return;
  if (admission_.release_rules(id, release_rules_scratch_).empty()) return;
  maybe_start_next_request();
  if (hooks_ != nullptr) hooks_->on_progress(shard_id_);
}

void Controller::submit_coordinated(UpdateRequest request,
                                    std::uint64_t token) {
  PendingUpdate pending;
  pending.id = update_counter_++;
  pending.held = true;
  pending.token = token;
  pending.metrics.name = request.name;
  pending.metrics.flow = request.flow;
  pending.metrics.priority_class = request.priority_class;
  pending.metrics.submitted = sim_.now();
  pending.metrics.enqueued = request.enqueued.value_or(sim_.now());
  admission_.submit(pending.id,
                    config_.admission == AdmissionPolicy::kConflictAware
                        ? Footprint::of(request)
                        : Footprint{});
  pending.request = std::move(request);
  coordinated_ids_[token] = pending.id;
  queue_.push_back(std::move(pending));
  // No start attempt: a held entry adds no start opportunity for the local
  // queue, and its own start is the coordinator's call.
}

bool Controller::coordinated_admissible(std::uint64_t token) const noexcept {
  const auto it = coordinated_ids_.find(token);
  return it != coordinated_ids_.end() && admission_.admissible(it->second);
}

void Controller::start_coordinated(std::uint64_t token) {
  const auto id_it = coordinated_ids_.find(token);
  TSU_ASSERT_MSG(id_it != coordinated_ids_.end(),
                 "start of unknown coordinated token");
  const UpdateId id = id_it->second;
  TSU_ASSERT_MSG(admission_.admissible(id) && has_capacity(),
                 "coordinated start without admission or capacity");
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [id](const PendingUpdate& p) { return p.id == id; });
  TSU_ASSERT_MSG(it != queue_.end(),
                 "coordinated start of a non-pending update");
  start_pending(it);
}

void Controller::release_round(std::uint64_t token) {
  const auto id_it = coordinated_ids_.find(token);
  TSU_ASSERT_MSG(id_it != coordinated_ids_.end(),
                 "round release of unknown coordinated token");
  const UpdateId id = id_it->second;
  const auto it = active_.find(id);
  TSU_ASSERT_MSG(it != active_.end(), "round release of an inactive update");
  const sim::Duration interval = request_of(it->second).interval;
  if (interval == 0) {
    start_round(id);
  } else {
    sim_.schedule(interval, [this, id]() { start_round(id); });
  }
}

sim::Duration Controller::adaptive_window() const noexcept {
  // Round-boundary collapse: with at most one update in the system, a
  // round's trailing barrier is provably the last message for its switches
  // until the replies return - holding it would buy nothing but latency.
  const std::size_t pressure = active_.size() + queue_.size();
  if (pressure <= 1) return 0;
  if (pressure >= kAdaptiveSaturation) return config_.batch_window;
  return config_.batch_window * pressure / kAdaptiveSaturation;
}

void Controller::send_to_switch(NodeId node, proto::Message message) {
  const auto it = switches_.find(node);
  TSU_ASSERT_MSG(it != switches_.end(), "message for unattached switch");
  // Fault tolerance: every FlowMod headed for the wire - round ops,
  // retries, resync pushes, rollback undos - commits to the shadow and the
  // unfenced log here, before batching can obscure it.
  if (fault_tolerance() && message.type() == proto::MsgType::kFlowMod)
    record_send(node, std::get<proto::FlowMod>(message.body));
  if (config_.batch_mode == BatchMode::kOff) {
    it->second(message);
    return;
  }

  Outbox& box = outbox_[node];
  const std::size_t bytes = proto::encoded_size(message);
  box.bytes += bytes;
  box.entries.push_back(OutboxEntry{std::move(message), sim_.now(), bytes});

  if (config_.batch_mode == BatchMode::kInstant) {
    // Same-instant coalescing: one zero-delay event ships every outbox.
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      sim_.schedule(0, [this]() {
        flush_scheduled_ = false;
        flush_all(FlushTrigger::kInstant);
      });
    }
    return;
  }

  // kWindow / kAdaptive: the byte budget (or frame cap) force-flushes
  // ahead of the hold window...
  if (box.bytes >= config_.batch_bytes ||
      box.entries.size() >= proto::kMaxBatchMessages) {
    flush_switch(node, FlushTrigger::kBudget);
    return;
  }
  // ...otherwise the first message of a fill arms the cancellable flush
  // timer. Arming on first-touch is what bounds the hold: every later
  // message of this fill waits strictly less than the full window.
  if (!box.timer_armed) {
    box.timer_armed = true;
    const sim::Duration window = config_.batch_mode == BatchMode::kAdaptive
                                     ? adaptive_window()
                                     : config_.batch_window;
    box.timer = sim_.schedule(window, [this, node]() {
      outbox_.at(node).timer_armed = false;
      flush_switch(node, FlushTrigger::kTimer);
    });
  }
}

void Controller::flush_switch(NodeId node, FlushTrigger trigger) {
  Outbox& box = outbox_.at(node);
  if (box.timer_armed) {
    box.timer_armed = false;
    sim_.cancel(box.timer);
    ++flush_timers_cancelled_;
  }
  if (box.entries.empty()) return;
  switch (trigger) {
    case FlushTrigger::kInstant: break;
    case FlushTrigger::kTimer: ++timer_flushes_; break;
    case FlushTrigger::kBudget: ++budget_flushes_; break;
  }

  flush_scratch_.clear();
  std::vector<OutboxEntry>& entries = flush_scratch_;
  entries.swap(box.entries);
  box.bytes = 0;
  const sim::SimTime now = sim_.now();
  for (const OutboxEntry& entry : entries)
    max_hold_ = std::max(max_hold_, now - entry.enqueued);

  const SendFn& send = switches_.at(node);
  std::size_t begin = 0;
  while (begin < entries.size()) {
    // Grow the chunk until either frame limit would be crossed.
    std::size_t end = begin + 1;
    std::size_t chunk_bytes = entries[begin].bytes;
    while (end < entries.size() && end - begin < proto::kMaxBatchMessages &&
           chunk_bytes + entries[end].bytes <= kMaxBatchBytes) {
      chunk_bytes += entries[end].bytes;
      ++end;
    }
    // A chunk of one (lone message, or the tail of a split) gains nothing
    // from batch framing: send it plain.
    if (end - begin == 1) {
      send(entries[begin].message);
    } else {
      std::vector<proto::Message> chunk;
      chunk.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        chunk.push_back(std::move(entries[i].message));
      messages_coalesced_ += chunk.size();
      ++batches_sent_;
      const Xid xid = next_xid();
      send(proto::make_batch(xid, std::move(chunk)));
      retire_xid(xid);  // nothing routes on batch xids
    }
    begin = end;
  }
}

void Controller::flush_all(FlushTrigger trigger) {
  for (auto& [node, box] : outbox_) {
    (void)box;
    flush_switch(node, trigger);
  }
}

void Controller::send_round_ops(ActiveUpdate& active, std::size_t round) {
  const UpdateRequest& request = request_of(active);
  const std::vector<RoundOp>& ops = request.rounds[round];
  // Compiled-plan fast path: ship the cached frame with the live xid
  // patched in instead of building and encoding a Message - byte-identical
  // wire traffic, no encoder on the hot path. Only when eligible (see the
  // constructor) and the switch has an encoded link; otherwise fall back
  // per op.
  const bool pre_encoded = active.plan != nullptr && encoded_eligible_;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RoundOp& op = ops[i];
    const Xid xid = next_xid();
    bool sent = false;
    if (pre_encoded) {
      const auto link = encoded_switches_.find(op.node);
      if (link != encoded_switches_.end()) {
        link->second(active.plan->flow_mod_frame(round, i), xid);
        sent = true;
      }
    }
    if (!sent) send_to_switch(op.node, proto::make_flow_mod(xid, op.mod));
    retire_xid(xid);  // nothing routes on FlowMod xids
    ++active.metrics.flow_mods_sent;
    ++active.metrics.rounds.back().flow_mods;
  }
}

void Controller::send_round_barrier(ActiveUpdate& active, UpdateId id,
                                    NodeId node) {
  const Xid xid = next_xid();
  insert_waiting(xid, id, node);
  ++active.waiting;
  bool sent = false;
  if (active.plan != nullptr && encoded_eligible_) {
    const auto link = encoded_switches_.find(node);
    if (link != encoded_switches_.end()) {
      link->second(active.plan->barrier_frame(), xid);
      sent = true;
    }
  }
  if (!sent) send_to_switch(node, proto::make_barrier_request(xid));
  fence_barrier(node, xid);
  ++active.metrics.barriers_sent;
  ++active.metrics.rounds.back().barriers;
}

void Controller::start_round(UpdateId id) {
  const auto it = active_.find(id);
  TSU_ASSERT(it != active_.end());
  ActiveUpdate& active = it->second;
  const UpdateRequest& request = request_of(active);

  if (active.next_round >= request.rounds.size()) {
    finish_update(id);
    return;
  }

  active.metrics.rounds.push_back(RoundMetrics{});
  active.metrics.rounds.back().started = sim_.now();

  if (config_.use_barriers) {
    // The paper's FSM: send the round's FlowMods, then barrier every switch
    // of the round and wait for all replies.
    const std::size_t round = active.next_round;
    send_round_ops(active, round);
    if (active.plan != nullptr) {
      // The plan's pre-deduplicated barrier targets, compiled by replaying
      // the set construction below - same switches, same order, no
      // per-submission set.
      for (const NodeId node : active.plan->barrier_order[round])
        send_round_barrier(active, id, node);
    } else {
      const std::vector<RoundOp>& ops = request.rounds[round];
      std::unordered_set<NodeId> round_switches;
      for (const RoundOp& op : ops) round_switches.insert(op.node);
      for (const NodeId node : round_switches)
        send_round_barrier(active, id, node);
    }
    ++active.next_round;
    if (active.waiting == 0) finish_round(id);  // empty round: advance
    return;
  }

  // Reckless mode (ablation): blast every round back-to-back; one trailing
  // barrier per touched switch detects completion.
  std::unordered_set<NodeId> touched;
  while (active.next_round < request.rounds.size()) {
    send_round_ops(active, active.next_round);
    for (const RoundOp& op : request.rounds[active.next_round])
      touched.insert(op.node);
    ++active.next_round;
  }
  for (const NodeId node : touched) send_round_barrier(active, id, node);
  if (active.waiting == 0) finish_round(id);
}

void Controller::on_message(NodeId from, const proto::Message& message) {
  switch (message.type()) {
    case proto::MsgType::kBarrierReply: {
      if (fault_tolerance()) {
        // FIFO channels: this reply fences every send up to its barrier,
        // whichever update the barrier belonged to.
        const auto seq_it = barrier_seq_.find(message.xid);
        if (seq_it != barrier_seq_.end()) {
          auto& pending = unfenced_[from];
          while (!pending.empty() && pending.front().seq <= seq_it->second)
            pending.pop_front();
          if (pending.empty()) full_resync_.erase(from);
          barrier_seq_.erase(seq_it);
        }
        const auto resync_it = resync_waiting_.find(message.xid);
        if (resync_it != resync_waiting_.end()) {
          if (resync_it->second == from) finish_resync(from, message.xid);
          return;
        }
      }
      // "For every barrier reply received ... determine the source switch
      //  ... removed from the set of switches of the current round." The
      //  xid routes the reply to the owning in-flight update.
      const auto it = waiting_.find(message.xid);
      if (it == waiting_.end() || it->second.second != from) {
        // With fault tolerance on, a late reply to a retried or rolled-back
        // barrier is expected traffic, not a protocol error.
        if (fault_tolerance()) {
          TSU_LOG(kDebug) << "late barrier xid " << message.xid
                          << " from switch " << from;
        } else {
          TSU_LOG(kWarn) << "unexpected barrier xid " << message.xid
                         << " from switch " << from;
        }
        return;
      }
      const UpdateId id = it->second.first;
      recycle_waiting(it);
      // Clean completion: kill the now-moot liveness timer (releasing its
      // closure eagerly) and recycle the xid.
      disarm_liveness(message.xid);
      retire_xid(message.xid);
      const auto update_it = active_.find(id);
      TSU_ASSERT_MSG(update_it != active_.end(),
                     "barrier reply for a finished update");
      TSU_ASSERT(update_it->second.waiting > 0);
      if (--update_it->second.waiting == 0) finish_round(id);
      return;
    }
    case proto::MsgType::kBatch: {
      // Reply batching (switchsim): a switch coalesced several replies of
      // one instant into a single frame; unpack and dispatch in order.
      for (const proto::Message& m :
           std::get<proto::Batch>(message.body).messages)
        on_message(from, m);
      return;
    }
    case proto::MsgType::kEchoRequest: {
      const auto it = switches_.find(from);
      if (it != switches_.end())
        it->second(proto::make_echo_reply(
            message.xid, std::get<proto::Echo>(message.body).payload));
      return;
    }
    case proto::MsgType::kHello:
      // A fresh control session: the switch rebooted (maybe stateless) or
      // its link flapped. The xid carries the handshake's state bit (the
      // stand-in for a features/stats exchange): nonzero means the tables
      // survived. Without fault tolerance this stays session plumbing.
      if (fault_tolerance()) handle_reconnect(from, message.xid != 0);
      return;
    case proto::MsgType::kEchoReply:
    case proto::MsgType::kFeaturesReply:
      return;  // session plumbing; nothing to do
    case proto::MsgType::kError:
      TSU_LOG(kError) << "switch " << from << " reported: "
                      << std::get<proto::Error>(message.body).text;
      return;
    default:
      TSU_LOG(kWarn) << "controller ignoring " << message.to_string();
      return;
  }
}

void Controller::finish_round(UpdateId id) {
  {
    const auto it = active_.find(id);
    TSU_ASSERT(it != active_.end());
    it->second.metrics.rounds.back().finished = sim_.now();
  }
  // Per-round footprint release may start unblocked requests, which can
  // rehash active_ - refetch the entry afterwards.
  release_completed_round_rules(id);
  const auto it = active_.find(id);
  TSU_ASSERT(it != active_.end());
  ActiveUpdate& active = it->second;

  const bool more_rounds = active.next_round < request_of(active).rounds.size();
  if (!more_rounds || !config_.use_barriers) {
    // A coordinated sub-request still confirms its final round (the
    // coordinator's sync accounting sees the full spread; with no next
    // round the confirmation releases nothing), then finishes locally:
    // its installed slice never changes again, so holding its footprint
    // for the other shards would only serialize needlessly.
    const bool coordinated = active.coordinated;
    const std::uint64_t token = active.token;
    const std::size_t round = active.next_round - 1;
    if (coordinated && config_.use_barriers && hooks_ != nullptr)
      hooks_->on_round_done(shard_id_, token, round);
    finish_update(id);
    return;
  }
  if (active.coordinated) {
    // Two-phase round barrier: confirm round completion and hold until
    // the coordinator releases the next round. The hook may synchronously
    // call release_round() when this was the last outstanding
    // confirmation, so nothing may touch `active` afterwards.
    const std::uint64_t token = active.token;
    const std::size_t round = active.next_round - 1;
    if (hooks_ != nullptr) hooks_->on_round_done(shard_id_, token, round);
    return;
  }
  const sim::Duration interval = request_of(active).interval;
  if (interval == 0) {
    start_round(id);
  } else {
    sim_.schedule(interval, [this, id]() { start_round(id); });
  }
}

void Controller::finish_update(UpdateId id) {
  const auto it = active_.find(id);
  TSU_ASSERT(it != active_.end());
  ActiveUpdate& active = it->second;
  active.metrics.finished = sim_.now();
  const bool coordinated = active.coordinated;
  const bool system = active.system;
  const std::uint64_t token = active.token;
  if (system) {
    // A rollback unwind: it never entered admission, and the metrics that
    // matter are the aborted original's (in the rollback context).
    recycle_active(it);
    finish_rollback(id);
    return;
  }

  if (coordinated) {
    // A cross-shard slice: the coordinator merges the per-shard metrics
    // and owns the completed list; this shard only frees its slot.
    UpdateMetrics metrics = std::move(active.metrics);
    recycle_active(it);
    admission_.release(id);
    coordinated_ids_.erase(token);
    maybe_start_next_request();
    if (hooks_ != nullptr) {
      hooks_->on_coordinated_done(shard_id_, token, std::move(metrics));
      hooks_->on_progress(shard_id_);
    }
    return;
  }

  // Record straight from the live entry (the log copy-assigns into its
  // ring slot), then recycle the entry buffers intact - no move chain, so
  // the steady state neither allocates nor frees here. Only after that is
  // the footprint dropped from the conflict DAG so blocked requests can
  // start into the freed slot.
  const UpdateMetrics& done = completed_.record(active.metrics);
  recycle_active(it);
  admission_.release(id);
  if (on_update_done_) on_update_done_(done);
  // "...deletes the message from the queue and starts processing the next
  //  message."
  maybe_start_next_request();
  if (hooks_ != nullptr) hooks_->on_progress(shard_id_);
}

// --- fault tolerance --------------------------------------------------

void Controller::seed_shadow(NodeId node, const proto::FlowMod& mod) {
  if (!fault_tolerance()) return;
  proto::apply_flow_mod(shadow_[node], mod);
}

void Controller::record_send(NodeId node, const proto::FlowMod& mod) {
  proto::apply_flow_mod(shadow_[node], mod);
  unfenced_[node].push_back(
      UnfencedSend{++send_seq_[node], mod.table, mod.priority, mod.match});
  if (mod.command == proto::FlowModCommand::kDelete)
    full_resync_.insert(node);
}

void Controller::fence_barrier(NodeId node, Xid xid) {
  if (!fault_tolerance()) return;
  barrier_seq_[xid] = send_seq_[node];
  arm_liveness(xid);
}

void Controller::arm_liveness(Xid xid) {
  liveness_timers_[xid] =
      sim_.schedule(config_.liveness_timeout,
                    [this, xid]() { on_liveness_timeout(xid); });
}

void Controller::on_liveness_timeout(Xid xid) {
  liveness_timers_.erase(xid);  // this very timer just fired
  // A resync barrier timed out: the switch died again (or the pushes were
  // eaten) mid-resync. Start over, conservatively assuming no state.
  const auto resync_it = resync_waiting_.find(xid);
  if (resync_it != resync_waiting_.end()) {
    const NodeId node = resync_it->second;
    ++timeouts_;
    barrier_seq_.erase(xid);
    resync_waiting_.erase(resync_it);
    handle_reconnect(node, false);
    return;
  }
  const auto it = waiting_.find(xid);
  if (it == waiting_.end()) return;  // fenced in time; stale timer
  const UpdateId id = it->second.first;
  const NodeId node = it->second.second;
  ++timeouts_;
  const ActiveUpdate& update = active_.at(id);
  if (config_.failure_response == FailureResponse::kRollback &&
      !update.coordinated && !update.system) {
    begin_rollback(id);
    return;
  }
  // Wait-style recovery: re-drive the silent switch. While it is down the
  // retry drops at the channel and the fresh barrier's timer fires again -
  // a liveness-period retry loop that ends at the reconnect resync. (Every
  // injected crash schedules its restart, so the loop is finite.)
  retry_update_switch(id, node);
}

void Controller::retry_update_switch(UpdateId id, NodeId node) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  ActiveUpdate& update = it->second;
  // Swap the stale outstanding barrier for a fresh one; `waiting` still
  // counts exactly one outstanding fence for this (update, switch).
  bool outstanding = false;
  for (auto w = waiting_.begin(); w != waiting_.end();) {
    if (w->second.first == id && w->second.second == node) {
      barrier_seq_.erase(w->first);
      // Timer cancelled, but the xid is NOT recycled: the switch may yet
      // answer the stale barrier, and that late reply must stay routable
      // to nothing.
      disarm_liveness(w->first);
      w = waiting_.erase(w);
      outstanding = true;
    } else {
      ++w;
    }
  }
  if (!outstanding) return;  // the reply beat the retry; nothing to re-drive
  ++retries_;
  // Re-send everything this update has sent to `node` so far. FIFO
  // delivery plus OpenFlow's replace-on-identical-match semantics make the
  // replay safe whatever prefix survived: it lands the switch in exactly
  // the already-acknowledged state plus the in-flight round. Metrics only
  // count first sends.
  const UpdateRequest& request = request_of(update);
  const std::size_t sent = std::min(update.next_round, request.rounds.size());
  for (std::size_t r = 0; r < sent; ++r)
    for (const RoundOp& op : request.rounds[r])
      if (op.node == node) {
        const Xid mod_xid = next_xid();
        send_to_switch(node, proto::make_flow_mod(mod_xid, op.mod));
        retire_xid(mod_xid);
      }
  const Xid xid = next_xid();
  waiting_.emplace(xid, std::make_pair(id, node));
  send_to_switch(node, proto::make_barrier_request(xid));
  fence_barrier(node, xid);
}

void Controller::handle_reconnect(NodeId from, bool has_state) {
  // Shadow state is about to be replayed/corrected: any plan compiled
  // against the previous world must not be reused (see resync_generation).
  ++resync_generation_;
  // A second hello while a resync is in flight means the switch died again
  // mid-resync: the fresh image below supersedes the abandoned one.
  for (auto it = resync_waiting_.begin(); it != resync_waiting_.end();) {
    if (it->second == from) {
      barrier_seq_.erase(it->first);
      disarm_liveness(it->first);  // abandoned: cancel timer, keep the xid
      it = resync_waiting_.erase(it);
    } else {
      ++it;
    }
  }
  const auto shadow_it = shadow_.find(from);
  const bool full = !has_state || full_resync_.count(from) != 0;
  std::size_t mods = 0;
  if (full && shadow_it != shadow_.end()) {
    // Cold boot (or a retained table made unknowable by an unfenced
    // non-strict delete): replay the full shadow image. ADD overwrites a
    // rule with identical match and priority, so the replay is also safe
    // when state survived.
    for (const auto& [table_id, table] : shadow_it->second) {
      for (const flow::FlowRule& rule : table.rules()) {
        proto::FlowMod mod;
        mod.command = proto::FlowModCommand::kAdd;
        mod.table = table_id;
        mod.priority = rule.priority;
        mod.cookie = rule.cookie;
        mod.match = rule.match;
        mod.action = rule.action;
        const Xid mod_xid = next_xid();
        send_to_switch(from, proto::make_flow_mod(mod_xid, mod));
        retire_xid(mod_xid);
        ++mods;
      }
    }
  }
  if (has_state) {
    // Retained tables: only sends no barrier reply ever fenced are
    // uncertain - re-assert the shadow's verdict for exactly those keys.
    // (After a full replay this contributes the strict deletes for keys
    // the shadow no longer holds.) Snapshot the keys first: the sends
    // below append to the unfenced log being walked.
    std::vector<UnfencedSend> keys;
    const auto pending_it = unfenced_.find(from);
    if (pending_it != unfenced_.end())
      keys.assign(pending_it->second.begin(), pending_it->second.end());
    std::vector<const UnfencedSend*> unique;
    for (const UnfencedSend& key : keys) {
      const bool seen =
          std::any_of(unique.begin(), unique.end(), [&](const auto* u) {
            return u->table == key.table && u->priority == key.priority &&
                   u->match == key.match;
          });
      if (!seen) unique.push_back(&key);
    }
    for (const UnfencedSend* key : unique) {
      const flow::FlowRule* rule = nullptr;
      if (shadow_it != shadow_.end()) {
        const auto table_it = shadow_it->second.find(key->table);
        if (table_it != shadow_it->second.end()) {
          for (const flow::FlowRule& r : table_it->second.rules()) {
            if (r.match == key->match && r.priority == key->priority) {
              rule = &r;
              break;
            }
          }
        }
      }
      proto::FlowMod mod;
      mod.table = key->table;
      mod.priority = key->priority;
      mod.match = key->match;
      if (rule != nullptr) {
        if (full) continue;  // the full replay already re-asserted it
        mod.command = proto::FlowModCommand::kAdd;
        mod.cookie = rule->cookie;
        mod.action = rule->action;
      } else {
        mod.command = proto::FlowModCommand::kDeleteStrict;
      }
      const Xid mod_xid = next_xid();
      send_to_switch(from, proto::make_flow_mod(mod_xid, mod));
      retire_xid(mod_xid);
      ++mods;
    }
  }
  resync_frames_ += mods;
  // Fence the resync: its barrier reply proves the switch holds the shadow
  // image, and only then does it return to service and get its stalled
  // rounds replayed.
  const Xid xid = next_xid();
  resync_waiting_.emplace(xid, from);
  send_to_switch(from, proto::make_barrier_request(xid));
  fence_barrier(from, xid);
}

void Controller::finish_resync(NodeId node, Xid xid) {
  resync_waiting_.erase(xid);
  // Clean, reply-confirmed completion: safe to cancel the timer and
  // recycle (unlike abandoned resyncs, whose replies may still arrive).
  disarm_liveness(xid);
  retire_xid(xid);
  full_resync_.erase(node);
  ++resyncs_;
  if (on_switch_resynced_) on_switch_resynced_(node);
  // Revive every update stalled on this switch: replay its mods and a
  // fresh barrier now that the switch provably holds the shadow image.
  // (Their liveness timers would get there too; this skips the wait.)
  std::vector<UpdateId> stalled;
  for (const auto& [x, target] : waiting_) {
    (void)x;
    if (target.second == node) stalled.push_back(target.first);
  }
  std::sort(stalled.begin(), stalled.end());
  stalled.erase(std::unique(stalled.begin(), stalled.end()), stalled.end());
  for (const UpdateId id : stalled) retry_update_switch(id, node);
}

void Controller::begin_rollback(UpdateId id) {
  const auto it = active_.find(id);
  TSU_ASSERT(it != active_.end());
  ActiveUpdate aborted = std::move(it->second);
  active_.erase(it);
  for (auto w = waiting_.begin(); w != waiting_.end();) {
    if (w->second.first == id) {
      barrier_seq_.erase(w->first);
      disarm_liveness(w->first);  // rolled back: cancel timer, keep the xid
      w = waiting_.erase(w);
    } else {
      ++w;
    }
  }
  ++rollbacks_;

  // Unwind: replay the undos of every round that sent anything, newest
  // first, each inverse round barrier-fenced, so the unwind walks back
  // through exactly the forward rounds' checked states. Every op of a
  // round is undone, dead switches included: a mixed round - some nodes
  // rolled back, some not - could leave the forwarding graph in a state no
  // schedule checker ever admitted. Drops at dead switches are re-driven
  // by retry and resync like any other send.
  const UpdateRequest& source = request_of(aborted);
  UpdateRequest inverse;
  inverse.name = source.name + "/rollback";
  inverse.flow = source.flow;
  const std::size_t sent = std::min(aborted.next_round, source.rounds.size());
  for (std::size_t r = sent; r-- > 0;) {
    std::vector<RoundOp> ops;
    for (const RoundOp& op : source.rounds[r])
      if (op.undo.has_value()) ops.push_back(RoundOp{op.node, *op.undo, {}});
    if (!ops.empty()) inverse.rounds.push_back(std::move(ops));
  }

  const UpdateId unwind_id = update_counter_++;
  RollbackCtx ctx;
  ctx.original = id;
  if (aborted.plan != nullptr) {
    // Materialize the canonical request for the resubmission; the
    // per-submission class/arrival live on the (otherwise empty) stash
    // request, exactly as submit() would have carried them.
    ctx.request = aborted.plan->request;
    ctx.request.priority_class = aborted.request.priority_class;
    ctx.request.enqueued = aborted.request.enqueued;
  } else {
    ctx.request = std::move(aborted.request);
  }
  ctx.metrics = std::move(aborted.metrics);
  rollback_ctx_.emplace(unwind_id, std::move(ctx));

  ActiveUpdate unwind;
  unwind.request = std::move(inverse);
  unwind.metrics.name = unwind.request.name;
  unwind.metrics.flow = unwind.request.flow;
  unwind.metrics.submitted = sim_.now();
  unwind.metrics.enqueued = sim_.now();
  unwind.metrics.started = sim_.now();
  unwind.system = true;
  active_.emplace(unwind_id, std::move(unwind));
  start_round(unwind_id);
}

void Controller::finish_rollback(UpdateId id) {
  const auto it = rollback_ctx_.find(id);
  TSU_ASSERT_MSG(it != rollback_ctx_.end(), "rollback without context");
  RollbackCtx ctx = std::move(it->second);
  rollback_ctx_.erase(it);
  // The aborted update's footprint protected the touched rules through the
  // whole unwind; only now may conflicting requests start.
  admission_.release(ctx.original);
  if (config_.resubmit_after_rollback) {
    ++resubmissions_;
    // A fresh attempt after a backoff (giving the failed switch time to
    // come back); it re-enters admission as a new arrival.
    sim_.schedule(effective_backoff(),
                  [this, request = std::move(ctx.request)]() mutable {
                    submit(std::move(request));
                  });
  } else {
    ctx.metrics.finished = sim_.now();
    ctx.metrics.aborted = true;
    const UpdateMetrics& done = completed_.record(std::move(ctx.metrics));
    if (on_update_done_) on_update_done_(done);
  }
  maybe_start_next_request();
  if (hooks_ != nullptr) hooks_->on_progress(shard_id_);
}

}  // namespace tsu::controller
