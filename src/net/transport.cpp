#include "net/transport.hpp"

#include <algorithm>
#include <utility>

#include "core/protocol.hpp"

namespace dam::net {

// The channel coin is the protocol kernel's — one definition of the psucc
// law for every engine (see core/protocol.hpp).
using core::protocol::channel_delivers;

// --- EventBodyPool ---------------------------------------------------------

std::uint32_t EventBodyPool::acquire(const Message& msg) {
  const auto it = index_.find(msg.event);
  if (it != index_.end()) {
    Body& body = entries_[it->second];
    if (body.topic == msg.topic && body.payload == msg.payload) {
      ++body.refs;
      return it->second;
    }
    // Same event id, different body (only constructible by hand-built
    // messages, never by the protocol): fall through to a private entry.
  }
  std::uint32_t id;
  if (!spare_.empty()) {
    id = spare_.back();
    spare_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Body& body = entries_[id];
  body.topic = msg.topic;
  body.event = msg.event;
  body.payload = msg.payload;
  body.encoded_size = encoded_size(msg);  // memoized once per publication
  body.refs = 1;
  body.indexed = it == index_.end();
  if (body.indexed) index_.emplace(msg.event, id);
  ++live_;
  bytes_ += sizeof(Body) + body.payload.size();
  return id;
}

void EventBodyPool::release(std::uint32_t id) {
  Body& body = entries_[id];
  if (--body.refs > 0) return;
  bytes_ -= sizeof(Body) + body.payload.size();
  --live_;
  if (body.indexed) index_.erase(body.event);
  body.payload = {};  // actually free the heap block, not just clear()
  spare_.push_back(id);
}

// --- Transport -------------------------------------------------------------

Transport::RoundSlab& Transport::slab_for(sim::Round due) {
  const auto it = in_flight_.find(due);
  if (it != in_flight_.end()) return it->second;
  RoundSlab slab;
  if (!spare_slabs_.empty()) {
    slab = std::move(spare_slabs_.back());
    spare_slabs_.pop_back();
  }
  return in_flight_.emplace(due, std::move(slab)).first->second;
}

void Transport::note_high_water() {
  const std::size_t bytes = queue_bytes();
  stats_.peak_queue_bytes = std::max(stats_.peak_queue_bytes, bytes);
  window_peak_bytes_ = std::max(window_peak_bytes_, bytes);
  stats_.peak_queue_records =
      std::max<std::uint64_t>(stats_.peak_queue_records, queued_records_);
}

std::size_t Transport::take_window_peak() noexcept {
  // The footprint only grows on send (where note_high_water ratchets the
  // window), so max(window, current) covers both a quiet window and bytes
  // still in flight at the boundary.
  const std::size_t current = queue_bytes();
  const std::size_t peak = std::max(window_peak_bytes_, current);
  window_peak_bytes_ = current;
  return peak;
}

void Transport::send(const Message& msg, sim::Round now) {
  ++stats_.sent;
  if (config_.loss_at_send && !channel_delivers(config_.psucc, rng_)) {
    ++stats_.lost_channel;
    stats_.bytes_sent += encoded_size(msg);  // charged whether or not it flies
    return;
  }
  RoundSlab& slab = slab_for(now + config_.delay);
  const std::size_t slab_bytes_before = slab.bytes();
  Record rec;
  rec.from = msg.from;
  rec.to = msg.to;
  rec.sent_at = now;
  rec.kind = msg.kind;
  if (msg.kind == MsgKind::kEvent) {
    rec.flags = msg.intergroup ? 1 : 0;
    rec.ref = bodies_.acquire(msg);
    // The hot fan-out path: the wire size was computed once when the body
    // was interned; every further copy of the publication reuses it.
    stats_.bytes_sent += bodies_[rec.ref].encoded_size;
  } else {
    stats_.bytes_sent += encoded_size(msg);
    ControlExtra extra;
    extra.origin = msg.origin;
    extra.request_id = msg.request_id;
    extra.ttl = msg.ttl;
    extra.answer_topic = msg.answer_topic;
    extra.pid_off = static_cast<std::uint32_t>(slab.pids.size());
    extra.pid_len = static_cast<std::uint32_t>(msg.processes.size());
    slab.pids.insert(slab.pids.end(), msg.processes.begin(),
                     msg.processes.end());
    if (msg.piggyback_topic.has_value()) {
      extra.has_piggyback = true;
      extra.piggyback_topic = *msg.piggyback_topic;
      extra.pig_off = static_cast<std::uint32_t>(slab.pids.size());
      extra.pig_len =
          static_cast<std::uint32_t>(msg.piggyback_super_table.size());
      slab.pids.insert(slab.pids.end(), msg.piggyback_super_table.begin(),
                       msg.piggyback_super_table.end());
    }
    extra.tid_off = static_cast<std::uint32_t>(slab.tids.size());
    extra.tid_len = static_cast<std::uint32_t>(msg.init_msg.size());
    slab.tids.insert(slab.tids.end(), msg.init_msg.begin(),
                     msg.init_msg.end());
    extra.eid_off = static_cast<std::uint32_t>(slab.eids.size());
    extra.eid_len = static_cast<std::uint32_t>(msg.event_ids.size());
    slab.eids.insert(slab.eids.end(), msg.event_ids.begin(),
                     msg.event_ids.end());
    rec.ref = static_cast<std::uint32_t>(slab.extras.size());
    slab.extras.push_back(extra);
  }
  slab.records.push_back(rec);
  slab_bytes_ += slab.bytes() - slab_bytes_before;
  ++queued_records_;
  note_high_water();
}

void Transport::materialize(const Record& rec, const RoundSlab& slab) {
  Message& msg = scratch_;
  msg.reset();
  msg.kind = rec.kind;
  msg.from = rec.from;
  msg.to = rec.to;
  msg.sent_at = rec.sent_at;
  if (rec.kind == MsgKind::kEvent) {
    const EventBodyPool::Body& body = bodies_[rec.ref];
    msg.topic = body.topic;
    msg.event = body.event;
    msg.intergroup = (rec.flags & 1) != 0;
    msg.payload.assign(body.payload.begin(), body.payload.end());
    return;
  }
  const ControlExtra& extra = slab.extras[rec.ref];
  msg.origin = extra.origin;
  msg.request_id = extra.request_id;
  msg.ttl = extra.ttl;
  msg.answer_topic = extra.answer_topic;
  msg.processes.assign(slab.pids.begin() + extra.pid_off,
                       slab.pids.begin() + extra.pid_off + extra.pid_len);
  if (extra.has_piggyback) {
    msg.piggyback_topic = extra.piggyback_topic;
    msg.piggyback_super_table.assign(
        slab.pids.begin() + extra.pig_off,
        slab.pids.begin() + extra.pig_off + extra.pig_len);
  }
  msg.init_msg.assign(slab.tids.begin() + extra.tid_off,
                      slab.tids.begin() + extra.tid_off + extra.tid_len);
  msg.event_ids.assign(slab.eids.begin() + extra.eid_off,
                       slab.eids.begin() + extra.eid_off + extra.eid_len);
}

void Transport::deliver_round(
    sim::Round round, const std::function<void(const Message&)>& sink) {
  const auto it = in_flight_.find(round);
  if (it == in_flight_.end()) return;
  // Move the batch out before invoking handlers: handlers send new
  // messages, which must land in *later* rounds, never this batch.
  RoundSlab slab = std::move(it->second);
  in_flight_.erase(it);
  queued_records_ -= slab.records.size();
  slab_bytes_ -= slab.bytes();
  for (const Record& rec : slab.records) {
    if (!config_.loss_at_send && !channel_delivers(config_.psucc, rng_)) {
      ++stats_.lost_channel;
      if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
      continue;
    }
    if (failures_ != nullptr &&
        !failures_->deliverable(rec.from, rec.to, round, rng_)) {
      ++stats_.lost_failure;
      if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
      continue;
    }
    ++stats_.delivered;
    materialize(rec, slab);
    sink(scratch_);
    // Release AFTER the sink: the scratch holds copies, but keeping the
    // body referenced through the callback means fan-out sends the sink
    // triggers re-intern onto the same entry instead of a fresh one.
    if (rec.kind == MsgKind::kEvent) bodies_.release(rec.ref);
  }
  slab.clear();
  spare_slabs_.push_back(std::move(slab));
}

}  // namespace dam::net
