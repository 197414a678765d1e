#include "net/message.hpp"

#include <algorithm>
#include <cstring>

namespace dam::net {

const char* to_string(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kEvent:
      return "EVENT";
    case MsgKind::kReqContact:
      return "REQCONTACT";
    case MsgKind::kAnsContact:
      return "ANSCONTACT";
    case MsgKind::kNewProcessAsk:
      return "NEWPROCESS?";
    case MsgKind::kNewProcessGive:
      return "NEWPROCESS!";
    case MsgKind::kMembership:
      return "MEMBERSHIP";
    case MsgKind::kEventRequest:
      return "EVENTREQ";
  }
  return "?";
}

void Message::reset() noexcept {
  kind = MsgKind::kEvent;
  from = ProcessId{};
  to = ProcessId{};
  sent_at = 0;
  topic = TopicId{};
  event = EventId{};
  intergroup = false;
  payload.clear();
  origin = ProcessId{};
  request_id = 0;
  init_msg.clear();
  ttl = 0;
  answer_topic = TopicId{};
  processes.clear();
  piggyback_topic.reset();
  piggyback_super_table.clear();
  event_ids.clear();
}

namespace {

// Little-endian primitive writers/readers. A Reader tracks its cursor and
// latches a failure flag instead of throwing; decode() checks it once.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xFF);
  }
  void pid(ProcessId p) { u32(p.value); }
  void tid(TopicId t) { u32(t.value); }
  void pid_list(const std::vector<ProcessId>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (ProcessId p : list) pid(p);
  }
  void tid_list(const std::vector<TopicId>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (TopicId t : list) tid(t);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ + 1 > bytes_.size()) return fail_u8();
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    if (pos_ + 4 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (pos_ + 8 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  ProcessId pid() { return ProcessId{u32()}; }
  TopicId tid() { return TopicId{u32()}; }
  std::vector<ProcessId> pid_list() {
    const std::uint32_t n = u32();
    // Guard against length fields larger than the remaining buffer.
    if (!ok_ || n > remaining() / 4) {
      ok_ = false;
      return {};
    }
    std::vector<ProcessId> list;
    list.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) list.push_back(pid());
    return list;
  }
  std::vector<TopicId> tid_list() {
    const std::uint32_t n = u32();
    if (!ok_ || n > remaining() / 4) {
      ok_ = false;
      return {};
    }
    std::vector<TopicId> list;
    list.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) list.push_back(tid());
    return list;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::uint8_t fail_u8() {
    ok_ = false;
    return 0;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(64);
  Writer w(bytes);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.pid(msg.from);
  w.pid(msg.to);
  w.u64(msg.sent_at);
  switch (msg.kind) {
    case MsgKind::kEvent:
      w.tid(msg.topic);
      w.pid(msg.event.publisher);
      w.u32(msg.event.sequence);
      w.u8(msg.intergroup ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(msg.payload.size()));
      for (std::uint8_t byte : msg.payload) w.u8(byte);
      break;
    case MsgKind::kReqContact:
      w.pid(msg.origin);
      w.u32(msg.request_id);
      w.u32(msg.ttl);
      w.tid_list(msg.init_msg);
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      w.tid(msg.answer_topic);
      w.pid_list(msg.processes);
      break;
    case MsgKind::kNewProcessAsk:
      break;
    case MsgKind::kMembership:
      w.tid(msg.answer_topic);
      w.pid_list(msg.processes);
      w.u8(msg.piggyback_topic.has_value() ? 1 : 0);
      if (msg.piggyback_topic) {
        w.tid(*msg.piggyback_topic);
        w.pid_list(msg.piggyback_super_table);
      }
      w.u32(static_cast<std::uint32_t>(msg.event_ids.size()));
      for (const EventId& id : msg.event_ids) {
        w.pid(id.publisher);
        w.u32(id.sequence);
      }
      break;
    case MsgKind::kEventRequest:
      w.u32(static_cast<std::uint32_t>(msg.event_ids.size()));
      for (const EventId& id : msg.event_ids) {
        w.pid(id.publisher);
        w.u32(id.sequence);
      }
      break;
  }
  return bytes;
}

std::optional<Message> decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  Message msg;
  const std::uint8_t raw_kind = r.u8();
  if (raw_kind < 1 || raw_kind > 7) return std::nullopt;
  msg.kind = static_cast<MsgKind>(raw_kind);
  msg.from = r.pid();
  msg.to = r.pid();
  msg.sent_at = r.u64();
  switch (msg.kind) {
    case MsgKind::kEvent: {
      msg.topic = r.tid();
      msg.event.publisher = r.pid();
      msg.event.sequence = r.u32();
      msg.intergroup = r.u8() != 0;
      const std::uint32_t payload_size = r.u32();
      msg.payload.reserve(std::min<std::uint32_t>(payload_size, 4096));
      for (std::uint32_t i = 0; i < payload_size && r.ok(); ++i) {
        msg.payload.push_back(r.u8());
      }
      break;
    }
    case MsgKind::kReqContact:
      msg.origin = r.pid();
      msg.request_id = r.u32();
      msg.ttl = r.u32();
      msg.init_msg = r.tid_list();
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      msg.answer_topic = r.tid();
      msg.processes = r.pid_list();
      break;
    case MsgKind::kNewProcessAsk:
      break;
    case MsgKind::kMembership: {
      msg.answer_topic = r.tid();
      msg.processes = r.pid_list();
      if (r.u8() != 0) {
        msg.piggyback_topic = r.tid();
        msg.piggyback_super_table = r.pid_list();
      }
      const std::uint32_t digest_size = r.u32();
      for (std::uint32_t i = 0; i < digest_size && r.ok(); ++i) {
        EventId id;
        id.publisher = r.pid();
        id.sequence = r.u32();
        msg.event_ids.push_back(id);
      }
      break;
    }
    case MsgKind::kEventRequest: {
      const std::uint32_t wanted = r.u32();
      for (std::uint32_t i = 0; i < wanted && r.ok(); ++i) {
        EventId id;
        id.publisher = r.pid();
        id.sequence = r.u32();
        msg.event_ids.push_back(id);
      }
      break;
    }
  }
  if (!r.ok() || !r.done()) return std::nullopt;
  return msg;
}

std::string describe(const Message& msg) {
  std::string text = to_string(msg.kind);
  text += ' ' + std::to_string(msg.from.value) + "->" +
          std::to_string(msg.to.value);
  switch (msg.kind) {
    case MsgKind::kEvent:
      text += " topic=" + std::to_string(msg.topic.value);
      text += " event=" + std::to_string(msg.event.publisher.value) + "#" +
              std::to_string(msg.event.sequence);
      if (msg.intergroup) text += " inter";
      if (!msg.payload.empty()) {
        text += " payload=" + std::to_string(msg.payload.size()) + "B";
      }
      break;
    case MsgKind::kReqContact:
      text += " origin=" + std::to_string(msg.origin.value);
      text += " req=" + std::to_string(msg.request_id);
      text += " ttl=" + std::to_string(msg.ttl);
      text += " topics=[";
      for (std::size_t i = 0; i < msg.init_msg.size(); ++i) {
        if (i) text += ',';
        text += std::to_string(msg.init_msg[i].value);
      }
      text += "]";
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      text += " topic=" + std::to_string(msg.answer_topic.value);
      text += " contacts=" + std::to_string(msg.processes.size());
      break;
    case MsgKind::kNewProcessAsk:
      break;
    case MsgKind::kMembership:
      text += " topic=" + std::to_string(msg.answer_topic.value);
      text += " view=" + std::to_string(msg.processes.size());
      if (msg.piggyback_topic) {
        text += " super(" + std::to_string(msg.piggyback_topic->value) +
                ")=" + std::to_string(msg.piggyback_super_table.size());
      }
      if (!msg.event_ids.empty()) {
        text += " digest=" + std::to_string(msg.event_ids.size());
      }
      break;
    case MsgKind::kEventRequest:
      text += " wanted=" + std::to_string(msg.event_ids.size());
      break;
  }
  return text;
}

std::size_t encoded_size(const Message& msg) {
  // Header: kind(1) + from(4) + to(4) + sent_at(8).
  std::size_t size = 17;
  switch (msg.kind) {
    case MsgKind::kEvent:
      size += 4 + 4 + 4 + 1 + 4 + msg.payload.size();
      break;
    case MsgKind::kReqContact:
      size += 4 + 4 + 4 + 4 + 4 * msg.init_msg.size();
      break;
    case MsgKind::kAnsContact:
    case MsgKind::kNewProcessGive:
      size += 4 + 4 + 4 * msg.processes.size();
      break;
    case MsgKind::kNewProcessAsk:
      break;
    case MsgKind::kMembership:
      size += 4 + 4 + 4 * msg.processes.size() + 1;
      if (msg.piggyback_topic) {
        size += 4 + 4 + 4 * msg.piggyback_super_table.size();
      }
      size += 4 + 8 * msg.event_ids.size();
      break;
    case MsgKind::kEventRequest:
      size += 4 + 8 * msg.event_ids.size();
      break;
  }
  return size;
}

}  // namespace dam::net
