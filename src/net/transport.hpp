// In-memory lossy transport.
//
// Models the paper's "unreliable, i.e. best effort, channels" (Sec. III-A):
// every message is independently delivered with probability `psucc`
// (Sec. VII-A sets 0.85) one round after it is sent, and only if the
// failure model lets it through (target alive / perceived alive). Delivery
// order within a round is the send order, keeping runs deterministic.
//
// In-flight representation (the "message memory wall" fix): the queue does
// NOT hold net::Message objects. A big dissemination wave queues ~10·S
// EVENT copies of the same publication, and a Message is a ~200-byte
// tagged struct with seven heap-owning members — at S=10⁶ that was ~7 GiB
// of RSS holding mostly duplicated bytes. Instead each queued message is a
// 24-byte Record (from, to, sent_at, kind, flags, ref) in a per-round
// slab, and the bodies live in kind-segregated pools:
//
//   * EVENT bodies — (topic, event id, payload) interned ONCE per
//     publication in a refcounted EventBodyPool; every fan-out copy's
//     Record references the same body by id. The body also memoizes the
//     message's encoded wire size, so the hot fan-out path charges
//     Stats::bytes_sent without re-walking identical payloads.
//   * Control bodies — the variable-length fields (init_msg, processes,
//     piggyback_super_table, event_ids) land in per-slab arenas as
//     (offset, len) slices off one ControlExtra record per message.
//
// Round slabs are recycled wave by wave: deliver_round extracts the due
// slab, replays it in send order (materializing each record into one
// reusable scratch Message for the `const Message&` sink), and returns the
// emptied slab — capacity intact — to a spare list for the next round.
// Delivery order, the channel RNG stream, and all Stats counters are
// BIT-IDENTICAL to the historical per-message std::map queue; the golden
// tests in tests/workload and the reference-queue test in tests/net pin
// this. Stats::peak_queue_bytes reports the high-water in-flight footprint
// (slabs + interned bodies) — the measurand the dynamic-scale bench gates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"

namespace dam::net {

/// Refcounted interning pool for EVENT message bodies. Fan-out copies of
/// one publication share one entry (keyed by event id, verified against
/// the full body so a colliding id with different content never aliases);
/// entries are recycled when the last in-flight copy is delivered or
/// dropped. Exposed for the transport tests; everything else should treat
/// it as a Transport implementation detail.
class EventBodyPool {
 public:
  struct Body {
    TopicId topic{};
    EventId event{};
    std::vector<std::uint8_t> payload;
    std::size_t encoded_size = 0;  ///< memoized full-message wire size
    std::uint32_t refs = 0;
    bool indexed = false;  ///< reachable through the event-id index
  };

  /// Interns the body of `msg` (must be kEvent) and takes one reference.
  /// Returns the body id; identical (event, topic, payload) bodies dedup
  /// onto one entry.
  std::uint32_t acquire(const Message& msg);

  /// Drops one reference; the entry is recycled at zero.
  void release(std::uint32_t id);

  [[nodiscard]] const Body& operator[](std::uint32_t id) const {
    return entries_[id];
  }

  /// Live (referenced) entries.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Logical bytes held by live entries (records + payload bytes).
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::vector<Body> entries_;
  std::vector<std::uint32_t> spare_;            // recycled entry slots
  std::unordered_map<EventId, std::uint32_t> index_;
  std::size_t live_ = 0;
  std::size_t bytes_ = 0;
};

class Transport {
 public:
  struct Config {
    double psucc = 1.0;       ///< per-message delivery probability
    sim::Round delay = 1;     ///< rounds between send and delivery
    bool loss_at_send = false;///< drop lost messages at send() time instead
                              ///< of delivery (saves queue space; same law)
  };

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost_channel = 0;   ///< dropped by the psucc coin
    std::uint64_t lost_failure = 0;   ///< dropped because target (perceived) failed
    std::uint64_t bytes_sent = 0;

    /// High-water logical footprint of the in-flight queue: slab records,
    /// control extras, arena slices, and interned event bodies. Logical
    /// (element counts × element sizes), so it is bit-identical across
    /// --jobs/--threads and machines — the dynamic lane's
    /// peak_queue_bytes measurand.
    std::size_t peak_queue_bytes = 0;

    /// High-water count of queued records — multiply by sizeof(Message)
    /// for what the historical per-message queue would have held.
    std::uint64_t peak_queue_records = 0;
  };

  Transport(Config config, util::Rng rng, const sim::FailureModel* failures)
      : config_(config), rng_(rng), failures_(failures) {}

  /// Queues a copy of `msg` for delivery at `now + delay`. The copy goes
  /// into the round slab and the interned body pool, so the caller keeps
  /// `msg` (and its buffers) for its next send.
  void send(const Message& msg, sim::Round now);

  /// Delivers every message due at `round` (in send order) to `sink`.
  /// Messages the channel loses or whose target is (perceived) failed are
  /// counted but not delivered. The Message reference handed to the sink
  /// is a reusable scratch object, valid only for the duration of the
  /// callback — copy what must outlive it (every current sink does).
  void deliver_round(sim::Round round,
                     const std::function<void(const Message&)>& sink);

  /// True if any message is still in flight.
  [[nodiscard]] bool idle() const noexcept { return in_flight_.empty(); }

  /// Swaps the failure model consulted at delivery time. In-flight
  /// messages and the channel RNG stream are untouched, so a model can be
  /// installed mid-setup (even after spawns already sent traffic) without
  /// losing anything.
  void set_failure_model(const sim::FailureModel* failures) noexcept {
    failures_ = failures;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Current logical in-flight footprint (see Stats::peak_queue_bytes):
  /// a running total, kept by send and deliver_round, so ratcheting the
  /// high-water marks on every send costs O(1) however many rounds are in
  /// flight.
  [[nodiscard]] std::size_t queue_bytes() const noexcept {
    return bodies_.bytes() + slab_bytes_;
  }

  /// Queue high-water since the previous take_window_peak call, then
  /// resets the window to the current footprint. The flight recorder
  /// calls this at window boundaries to attribute queue pressure to the
  /// window it happened in; Stats::peak_queue_bytes (whole-run ratchet)
  /// is unaffected.
  [[nodiscard]] std::size_t take_window_peak() noexcept;

  /// Messages currently queued.
  [[nodiscard]] std::size_t queued_records() const noexcept {
    return queued_records_;
  }

  /// Live interned EVENT bodies (test observability).
  [[nodiscard]] const EventBodyPool& bodies() const noexcept {
    return bodies_;
  }

  /// Round slabs parked for reuse (test observability for the recycling
  /// contract: deliver_round returns emptied slabs here, capacity intact).
  [[nodiscard]] std::size_t spare_slabs() const noexcept {
    return spare_slabs_.size();
  }

 private:
  /// One queued message: 24 bytes, no heap. `ref` is an EventBodyPool id
  /// for kEvent and an index into the owning slab's `extras` otherwise.
  struct Record {
    ProcessId from{};
    ProcessId to{};
    sim::Round sent_at = 0;
    std::uint32_t ref = 0;
    MsgKind kind = MsgKind::kEvent;
    std::uint8_t flags = 0;  ///< bit 0: intergroup
  };

  /// Per-message scalar fields + arena slices for the non-EVENT kinds.
  struct ControlExtra {
    ProcessId origin{};
    std::uint32_t request_id = 0;
    std::uint32_t ttl = 0;
    TopicId answer_topic{};
    TopicId piggyback_topic{};
    bool has_piggyback = false;
    std::uint32_t pid_off = 0, pid_len = 0;  ///< processes  -> pids
    std::uint32_t pig_off = 0, pig_len = 0;  ///< piggyback_super_table -> pids
    std::uint32_t tid_off = 0, tid_len = 0;  ///< init_msg   -> tids
    std::uint32_t eid_off = 0, eid_len = 0;  ///< event_ids  -> eids
  };

  /// Everything queued for one delivery round, SoA: compact records plus
  /// shared arenas the control slices point into.
  struct RoundSlab {
    std::vector<Record> records;
    std::vector<ControlExtra> extras;
    std::vector<ProcessId> pids;
    std::vector<TopicId> tids;
    std::vector<EventId> eids;

    [[nodiscard]] std::size_t bytes() const noexcept {
      return records.size() * sizeof(Record) +
             extras.size() * sizeof(ControlExtra) +
             pids.size() * sizeof(ProcessId) +
             tids.size() * sizeof(TopicId) + eids.size() * sizeof(EventId);
    }
    void clear() noexcept {  // keeps capacity — the recycling contract
      records.clear();
      extras.clear();
      pids.clear();
      tids.clear();
      eids.clear();
    }
  };

  /// The slab messages sent at `now` land in, recycling a spare if one is
  /// parked.
  RoundSlab& slab_for(sim::Round due);

  /// Ratchets Stats::peak_queue_bytes / peak_queue_records after a send.
  void note_high_water();

  /// Rebuilds `scratch_` from one record (reusing its heap capacity).
  void materialize(const Record& rec, const RoundSlab& slab);

  Config config_;
  util::Rng rng_;
  const sim::FailureModel* failures_;
  std::map<sim::Round, RoundSlab> in_flight_;
  std::vector<RoundSlab> spare_slabs_;
  EventBodyPool bodies_;
  Message scratch_;
  std::size_t queued_records_ = 0;
  std::size_t slab_bytes_ = 0;  ///< sum of bytes() over in_flight_ slabs
  std::size_t window_peak_bytes_ = 0;  ///< high-water since take_window_peak
  Stats stats_;
};

}  // namespace dam::net
