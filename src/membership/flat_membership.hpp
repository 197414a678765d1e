// The "flat" gossip-based membership algorithm of [10]
// (A.-M. Kermarrec, L. Massoulié, A. J. Ganesh, "Probabilistic Reliable
// Dissemination in Large-Scale Systems", IEEE TPDS 2003), which daMulticast
// uses unchanged as its per-group substrate (Sec. V-A.1).
//
// Every member of a topic group keeps a partial view of (b+1)·ln(S) group
// members. Each round a member gossips its view (plus itself) to a few
// view entries; receivers merge, evicting uniformly at random. Fresh
// supertopic-table entries are piggybacked on these exchanges
// (Sec. V-A.2a: "this information is disseminated, using the updates of
// the underlying membership algorithm").
//
// This class holds only protocol state; it emits messages through a
// caller-supplied send function so it is unit-testable without a simulator.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "membership/view.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace dam::membership {

using net::Message;
using net::MsgKind;
using topics::TopicId;

class FlatMembership {
 public:
  struct Config {
    double b = 3.0;             ///< view capacity = ceil((b+1)·ln(S))
    std::size_t gossip_fanout = 1;  ///< view exchanges initiated per round
    std::size_t shuffle_size = 8;   ///< entries shipped per exchange
  };

  using SendFn = std::function<void(Message&&)>;

  FlatMembership(ProcessId self, TopicId topic, Config config,
                 std::size_t group_size_estimate, util::Rng rng);

  /// Seeds the view from an initial contact list (join).
  void join(const std::vector<ProcessId>& contacts);

  /// join() for an immutable spawn-batch arena row: the view reads the row
  /// in place (PartialView shared mode, copy-on-churn on first mutation)
  /// instead of copying it. Falls back to per-entry insertion — the exact
  /// join() stream — when the row exceeds the view capacity (a contact mix
  /// only possible when the caller's view-capacity knob outruns ours).
  void adopt(std::span<const ProcessId> base);

  /// One membership round: initiate `gossip_fanout` view exchanges.
  /// `piggyback` is the sender's current supertopic table (may be empty);
  /// it rides along per Sec. V-A.2a. Each message is built in `out` and the
  /// targets are drawn into `targets` — caller-owned buffers (the host's
  /// Env::SendBuffers) whose capacity carries over from round to round, so
  /// a warmed-up round allocates nothing.
  void round(sim::Round now, std::span<const ProcessId> piggyback,
             std::optional<TopicId> piggyback_topic, Message& out,
             std::vector<ProcessId>& targets, const SendFn& send);

  /// round() with buffers of its own, for callers without a host.
  void round(sim::Round now, std::span<const ProcessId> piggyback,
             std::optional<TopicId> piggyback_topic, const SendFn& send) {
    Message out;
    std::vector<ProcessId> targets;
    round(now, piggyback, piggyback_topic, out, targets, send);
  }

  /// Handles an incoming MEMBERSHIP message: merge sender + shipped view.
  void on_membership(const Message& msg);

  /// Removes a peer known to have failed.
  void evict(ProcessId peer) { view_.erase(peer); }

  /// Updates the group-size estimate; resizes the view bound accordingly.
  void set_group_size_estimate(std::size_t size);

  [[nodiscard]] const PartialView& view() const noexcept { return view_; }
  [[nodiscard]] PartialView& view() noexcept { return view_; }
  [[nodiscard]] TopicId topic() const noexcept { return topic_; }
  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  [[nodiscard]] std::size_t group_size_estimate() const noexcept {
    return group_size_estimate_;
  }

  /// View capacity for a group of `size` members under parameter `b`.
  static std::size_t capacity_for(double b, std::size_t size);

 private:
  ProcessId self_;
  TopicId topic_;
  Config config_;
  std::size_t group_size_estimate_;
  PartialView view_;
  util::Rng rng_;
};

}  // namespace dam::membership
