// Protocol kernel — the gossip decision logic of daMulticast, implemented
// once and shared by every engine.
//
// The paper's dissemination decisions (Figs. 5 and 7) used to be coded
// three times — in DamNode, in the static figure engine, and in the DAG
// engine. They live here now, as pure functions of (params, rng):
//
//   * self-election for the intergroup leg with probability psel = g/S
//     (Fig. 7 lines 3–4);
//   * per-supertopic-table-entry forwarding with probability pa = a/z
//     (Fig. 7 lines 5–7);
//   * intra-group fanout of ln(S)+c distinct topic-table entries, drawn
//     without replacement — the Ω set (Fig. 7 lines 8–14);
//   * the per-message channel coin psucc (Sec. III-A best-effort links);
//   * forward-on-first-reception duplicate suppression (Fig. 5 lines
//     5–10), as the SeenSet container.
//
// Consumers: core/node.cpp (message-passing engine), core/frozen_sim.cpp
// (unified frozen-table engine behind static_sim/dag_sim), net/transport.cpp
// (channel coin). Nothing here touches engine state, so the kernel is unit-
// testable in isolation (tests/core/protocol_test.cpp).
//
// RNG discipline: every helper documents exactly how many draws it makes,
// because engines rely on reproducible streams (same seed ⇒ same run).
#pragma once

#include <cstddef>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/params.hpp"
#include "util/fifo.hpp"
#include "util/rng.hpp"

namespace dam::core::protocol {

/// Election for the intergroup leg: true with probability psel = g/S.
/// Exactly one RNG draw (zero when psel clamps to 0 or 1).
[[nodiscard]] bool elects_self(const TopicParams& params,
                               std::size_t group_size, util::Rng& rng);

/// Per-entry forwarding decision once elected: true with probability
/// pa = a/z. Exactly one RNG draw (zero when pa clamps to 0 or 1).
[[nodiscard]] bool forwards_to_entry(const TopicParams& params,
                                     util::Rng& rng);

/// The per-message channel coin (best-effort links, Sec. III-A).
[[nodiscard]] bool channel_delivers(double psucc, util::Rng& rng);

/// The complete intergroup leg against one supertopic table (Fig. 7 lines
/// 3–7): elect once, then hit each entry independently with pa, invoking
/// `fn(entry)` for every selected target in table order. An empty table
/// skips the election entirely (root processes send nothing upward).
/// RNG draws: one psel coin when the table is non-empty, then one pa coin
/// per entry when elected. Takes a span so engines can iterate rows of a
/// flat CSR arena without materializing per-process vectors.
template <typename Entry, typename Fn>
void for_each_intergroup_target(const TopicParams& params,
                                std::size_t group_size,
                                std::span<const Entry> super_table,
                                util::Rng& rng, Fn&& fn) {
  if (super_table.empty() || !elects_self(params, group_size, rng)) return;
  for (const Entry& entry : super_table) {
    if (forwards_to_entry(params, rng)) fn(entry);
  }
}

template <typename Entry, typename Fn>
void for_each_intergroup_target(const TopicParams& params,
                                std::size_t group_size,
                                const std::vector<Entry>& super_table,
                                util::Rng& rng, Fn&& fn) {
  for_each_intergroup_target(params, group_size,
                             std::span<const Entry>(super_table), rng,
                             std::forward<Fn>(fn));
}

/// The intra-group gossip leg (Fig. 7 lines 8–14): fanout(S) = ceil(ln S
/// + c) distinct targets drawn uniformly from the topic table without
/// replacement, written into the caller-reused buffer `out` (fewer when
/// the table is smaller than the fanout). Zero allocation per sender once
/// `out` has warmed up; the draws are exactly Rng::sample's. The span
/// reads CSR arena rows / shared views without materializing a vector.
template <typename Entry>
void fanout_targets_into(const TopicParams& params, std::size_t group_size,
                         std::span<const Entry> topic_table, util::Rng& rng,
                         std::vector<Entry>& out) {
  rng.sample_into(topic_table, params.fanout(group_size), out);
}

/// Forward-on-first-reception policy (Fig. 5 lines 5–10): an event is
/// delivered and forwarded exactly once; re-receptions are suppressed.
/// Two independent bounds, both optional (the lpbcast bounded-buffer
/// discipline — at worst extra traffic, never a correctness loss):
///   * count bound — beyond `max_size` entries the oldest are forgotten
///     FIFO (`max_size == 0` means unbounded);
///   * age bound — entries older than `age_horizon` rounds are dropped by
///     evict_older_than(now), the sustained-service GC: a long-lived
///     process holds only the last `age_horizon` rounds of event ids no
///     matter how long the run (`age_horizon == 0` means no age GC).
/// A set with neither bound holds only the hash set; the eviction orders
/// are util::Fifo rings that allocate on first push, so a freshly built
/// SeenSet owns no heap memory at all.
template <typename Key>
class SeenSet {
 public:
  explicit SeenSet(std::size_t max_size = 0) : max_size_(max_size) {}

  /// Enables the age bound; entries remembered after this carry their
  /// reception round. Rounds are plain integers here (no sim dependency).
  void set_age_horizon(std::size_t horizon) { age_horizon_ = horizon; }

  /// Marks `key` seen. Returns true iff this was the first reception —
  /// the caller delivers and forwards only then (idempotence).
  bool remember(const Key& key) { return remember(key, 0); }

  /// remember() with the reception round, required for the age bound to
  /// know when the entry expires. With `age_horizon == 0` the stamp is
  /// ignored and this is exactly remember(key).
  bool remember(const Key& key, std::uint64_t now) {
    if (!seen_.insert(key).second) return false;
    if (max_size_ > 0) {
      order_.push_back(key);
      while (order_.size() > max_size_) {
        seen_.erase(order_.front());
        order_.pop_front();
      }
    }
    if (age_horizon_ > 0) stamped_.push_back({now, key});
    return true;
  }

  /// Drops every entry whose reception round is more than `age_horizon`
  /// rounds before `now`. Returns the number evicted. No-op when the age
  /// bound is off.
  std::size_t evict_older_than(std::uint64_t now) {
    if (age_horizon_ == 0) return 0;
    std::size_t evicted = 0;
    while (!stamped_.empty() &&
           stamped_.front().first + age_horizon_ <= now) {
      // erase() may be a no-op when the count bound already dropped the
      // key; the stamp queue is still drained so it cannot grow unbounded.
      evicted += seen_.erase(stamped_.front().second);
      stamped_.pop_front();
    }
    return evicted;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return seen_.contains(key);
  }

  [[nodiscard]] std::size_t size() const noexcept { return seen_.size(); }
  [[nodiscard]] std::size_t max_size() const noexcept { return max_size_; }
  [[nodiscard]] std::size_t age_horizon() const noexcept {
    return age_horizon_;
  }

  /// Logical footprint: entries held (set + FIFO order + age stamps) ×
  /// element size. Element counts, not allocator bytes — deterministic
  /// across machines, which is what the flight recorder's gauges require.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (seen_.size() + order_.size()) * sizeof(Key) +
           stamped_.size() * (sizeof(Key) + sizeof(std::uint64_t));
  }

 private:
  std::size_t max_size_;
  std::size_t age_horizon_ = 0;
  std::unordered_set<Key> seen_;
  util::Fifo<Key> order_;  // FIFO eviction order when count-bounded
  util::Fifo<std::pair<std::uint64_t, Key>> stamped_;  // age-GC order
};

}  // namespace dam::core::protocol
