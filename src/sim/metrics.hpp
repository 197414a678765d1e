// Simulation metrics.
//
// Counts exactly what the paper's figures report: events sent within each
// group (Fig. 8), intergroup events crossing each boundary (Fig. 9), and
// deliveries used to compute reliability (Figs. 10–11). Also tracks the
// invariant counters the test suite asserts on (parasite deliveries,
// duplicate forwards).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sim/clock.hpp"
#include "topics/topic.hpp"
#include "util/quantiles.hpp"
#include "util/timeline.hpp"

namespace dam::sim {

struct GroupCounters {
  std::uint64_t intra_sent = 0;     ///< gossip events sent within the group
  std::uint64_t inter_sent = 0;     ///< events sent from this group upward
  std::uint64_t inter_received = 0; ///< events received from the group below
  std::uint64_t delivered = 0;      ///< first-time deliveries to members
  std::uint64_t duplicates = 0;     ///< repeated receptions (suppressed)
  std::uint64_t control_sent = 0;   ///< membership/bootstrap/maintenance msgs
};

class Metrics {
 public:
  /// Counters of one group. TopicIds are dense interning indices, so the
  /// counters live in a vector indexed by id (grown on first touch) — the
  /// per-message accounting in DamSystem::send/deliver is one index, not a
  /// hash lookup.
  GroupCounters& group(topics::TopicId topic) {
    if (topic.value >= per_group_.size()) per_group_.resize(topic.value + 1);
    return per_group_[topic.value];
  }
  [[nodiscard]] const GroupCounters& group(topics::TopicId topic) const {
    return topic.value < per_group_.size() ? per_group_[topic.value] : kZero;
  }

  void count_parasite_delivery() noexcept { ++parasite_deliveries_; }
  [[nodiscard]] std::uint64_t parasite_deliveries() const noexcept {
    return parasite_deliveries_;
  }

  void note_infection(Round round);

  /// Per-publication latency tracking (the dynamic lane's measurand).
  /// begin_event records the publish round; note_event_delivery folds one
  /// first-time delivery into the event's latency aggregate. Deliveries of
  /// events never begun (e.g. pre-registered history replays) are ignored.
  struct EventLatency {
    Round published_at = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t latency_sum = 0;  ///< sum of (delivery round - publish round)
    Round max_latency = 0;
  };

  void begin_event(net::EventId event, Round now);
  void note_event_delivery(net::EventId event, Round now);

  /// Sustained-service GC: drops one event's latency aggregate once the
  /// workload driver has harvested it at the publication's deadline, so
  /// long-horizon runs hold only in-flight publications. The streaming
  /// sketch and the per-round series keep their folded samples.
  void retire_event(net::EventId event) { event_latencies_.erase(event); }

  [[nodiscard]] const std::unordered_map<net::EventId, EventLatency>&
  event_latencies() const noexcept {
    return event_latencies_;
  }

  /// Per-delivery latency distribution: every note_event_delivery also
  /// folds its latency (in rounds) into a constant-memory streaming
  /// sketch, so percentiles and reliability-vs-deadline curves survive
  /// runs whose per-event maps are too coarse. Latencies are small
  /// integers, so the sketch stays exact (see util/quantiles.hpp).
  [[nodiscard]] const util::QuantileSketch& latency_sketch() const noexcept {
    return latency_sketch_;
  }

  /// Round-attributed control-message sends (index = round). Counts the
  /// same sends as GroupCounters::control_sent, but as a timeline.
  void note_control_send(Round round);

  /// Round-attributed event-message sends, split by hop class. Counts the
  /// same sends as GroupCounters::intra_sent / inter_sent, but feeds the
  /// flight recorder's windowed series.
  void note_event_send(Round round, bool intergroup);

  /// Round-attributed event injections (one per begin_event in practice,
  /// but kept separate so replayed history does not pollute the series).
  void note_publish(Round round);

  /// Run-timeline flight recorder. Deliveries, sends, and control traffic
  /// are fed by the notes above; churn events, queue high-water, and
  /// bookkeeping gauges are fed by the workload driver (which owns the
  /// round loop and the window-boundary sampling cadence).
  [[nodiscard]] const util::Timeline& timeline() const noexcept {
    return timeline_;
  }
  [[nodiscard]] util::Timeline& timeline() noexcept { return timeline_; }

  /// Newly infected process counts per round (index = round).
  [[nodiscard]] const std::vector<std::uint64_t>& infections_per_round()
      const noexcept {
    return infections_per_round_;
  }

  /// First-time event deliveries per round (index = round). Unlike
  /// infections_per_round (one entry per process, any event), this counts
  /// per-event deliveries — the numerator of the deadline curve.
  [[nodiscard]] const std::vector<std::uint64_t>& deliveries_per_round()
      const noexcept {
    return deliveries_per_round_;
  }

  /// Control sends per round (index = round).
  [[nodiscard]] const std::vector<std::uint64_t>& control_per_round()
      const noexcept {
    return control_per_round_;
  }

  [[nodiscard]] std::uint64_t total_event_messages() const;
  [[nodiscard]] std::uint64_t total_control_messages() const;
  [[nodiscard]] std::uint64_t total_deliveries() const;

  void reset();

 private:
  std::vector<GroupCounters> per_group_;  ///< indexed by TopicId::value
  std::unordered_map<net::EventId, EventLatency> event_latencies_;
  std::uint64_t parasite_deliveries_ = 0;
  std::vector<std::uint64_t> infections_per_round_;
  std::vector<std::uint64_t> deliveries_per_round_;
  std::vector<std::uint64_t> control_per_round_;
  util::QuantileSketch latency_sketch_;
  util::Timeline timeline_;
  static const GroupCounters kZero;
};

}  // namespace dam::sim
