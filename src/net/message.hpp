// Protocol message set.
//
// One tagged struct covers every message the paper's pseudo-code exchanges:
//   EVENT        — a published event (Fig. 5/7)
//   REQCONTACT   — bootstrap contact search, carries initMsg (Fig. 4)
//   ANSCONTACT   — bootstrap answer, carries Ψ (Fig. 4)
//   NEWPROC_ASK  — maintenance: "send me fresh superprocesses" (Fig. 6 l.20)
//   NEWPROC_GIVE — maintenance reply carrying Ψ_Tx (Fig. 6 l.4)
//   MEMBERSHIP   — underlying gossip membership exchange ([10]), with the
//                  supertopic table piggybacked (Sec. V-A.2a optimization)
//
// A compact binary wire format (encode/decode) is provided so the payload
// sizes reported by the benches reflect what a deployment would send.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "topics/subscriptions.hpp"
#include "topics/topic.hpp"

namespace dam::net {

using sim::Round;
using topics::ProcessId;
using topics::TopicId;

/// Globally unique event identifier: (publisher, publisher-local sequence).
struct EventId {
  ProcessId publisher{};
  std::uint32_t sequence = 0;

  friend auto operator<=>(const EventId&, const EventId&) = default;
};

enum class MsgKind : std::uint8_t {
  kEvent = 1,
  kReqContact = 2,
  kAnsContact = 3,
  kNewProcessAsk = 4,
  kNewProcessGive = 5,
  kMembership = 6,
  kEventRequest = 7,  ///< recovery: "retransmit these event ids to me"
};

[[nodiscard]] const char* to_string(MsgKind kind) noexcept;

struct Message {
  MsgKind kind = MsgKind::kEvent;
  ProcessId from{};
  ProcessId to{};
  Round sent_at = 0;

  // --- kEvent ---
  TopicId topic{};          ///< topic the event was published on
  EventId event{};
  bool intergroup = false;  ///< true when sent via the supertopic table
  std::vector<std::uint8_t> payload;  ///< opaque application bytes

  // --- kReqContact ---
  ProcessId origin{};              ///< pl, the searching process
  std::uint32_t request_id = 0;    ///< deduplicates flooded requests
  std::vector<TopicId> init_msg;   ///< topics searched for (widening list)
  std::uint32_t ttl = 0;           ///< remaining forwarding hops ("expiry")

  // --- kAnsContact / kNewProcessGive / kMembership ---
  TopicId answer_topic{};            ///< Tx: topic the contacts belong to
  std::vector<ProcessId> processes;  ///< Ψ: contact/view payload

  // --- kMembership piggyback: sender's supertopic table + its topic ---
  std::optional<TopicId> piggyback_topic;
  std::vector<ProcessId> piggyback_super_table;

  // --- kMembership (history digest) / kEventRequest (wanted ids) ---
  // Recovery extension (lpbcast-style, cf. the paper's reference [6]):
  // gossip carries ids of recently seen events; receivers request what
  // they are missing.
  std::vector<EventId> event_ids;

  /// Restores every field to its default value but keeps the vectors'
  /// capacity, so a reused scratch message is rebuilt without touching
  /// the allocator.
  void reset() noexcept;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Serializes `msg` to a compact binary representation.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& msg);

/// Parses bytes produced by `encode`. Returns nullopt on malformed input
/// (never throws, never reads out of bounds).
[[nodiscard]] std::optional<Message> decode(std::span<const std::uint8_t> bytes);

/// Size in bytes of the encoded form (without encoding twice).
[[nodiscard]] std::size_t encoded_size(const Message& msg);

/// One-line human-readable rendering for logs and debuggers, e.g.
/// "EVENT 3->9 topic=2 event=3#17 inter payload=5B".
[[nodiscard]] std::string describe(const Message& msg);

}  // namespace dam::net

template <>
struct std::hash<dam::net::EventId> {
  std::size_t operator()(const dam::net::EventId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.publisher.value) << 32) | id.sequence);
  }
};
