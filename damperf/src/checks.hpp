// damperf checks — independent checks of each simulated publication.
//
// The benchmark recounts what an engine reports from what it can see
// through the public API (group rosters, the failure schedule, delivered
// sets, per-group counters) and from the scenario itself (sizes, topic
// closure, the fanout law ceil(ln S + c)). A publication fails when any
// check fails for it; a run-level check that fails fails every publication
// of the run.
//
// The self-test corrupts a real outcome (one extra delivery, one delivery
// outside the publish topic's closure, one missing message) and requires
// the checks to report each corruption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace damperf {

/// One group's share of one publication, at the publication's deadline.
struct GroupTally {
  bool in_closure = true;       ///< group's topic includes the publish topic
  std::uint64_t members = 0;    ///< processes in the group
  std::uint64_t alive = 0;      ///< members alive at the deadline
  std::uint64_t delivered = 0;  ///< alive members that delivered
  std::uint64_t received = 0;   ///< members that delivered, alive or not
  std::uint64_t sent = 0;       ///< intra-group event messages
  std::uint64_t fanout = 0;     ///< messages per receiver; 0: no law
};

/// One publication as the benchmark recounts it.
struct Tally {
  std::vector<GroupTally> groups;
  std::uint64_t engine_received = 0;  ///< first deliveries the engine counted
};

/// Failures of one publication's checks (empty when it passes):
///   * no delivery outside the publish topic's closure;
///   * delivered <= alive and received <= members in every group;
///   * the recounted deliveries equal the engine's own count;
///   * where a fanout law holds, sent == received * fanout.
[[nodiscard]] std::vector<std::string> check_tally(const Tally& tally);

/// Sum of `alive` over the closure groups: the deliveries a perfectly
/// reliable run would make.
[[nodiscard]] std::uint64_t expected_of(const Tally& tally);

/// p50 <= p999 <= rounds run.
[[nodiscard]] std::vector<std::string> check_latency(double p50, double p999,
                                                     double rounds);

/// One rival engine's run, checked at run level (run_steady_baseline
/// reports aggregates only).
struct RivalTally {
  bool tree = true;
  std::uint64_t publications = 0;         ///< engine's count
  std::uint64_t stream_publications = 0;  ///< publish events in the stream
  std::uint64_t closure_members = 0;  ///< sum over publications of closure
                                      ///< members at publish time
  std::uint64_t interested = 0;       ///< latency sketch count
  std::uint64_t interested_per_round = 0;  ///< sum of deliveries_per_round
  std::uint64_t receptions = 0;       ///< every first reception
  std::uint64_t messages = 0;         ///< event messages
  std::uint64_t fanout_low = 0;       ///< flood: ceil(ln N + c) at start
  std::uint64_t fanout_high = 0;      ///< flood: ceil(ln N + c) at end
  double reliability = 0.0;
};

/// Failures of a rival run's checks:
///   * every publication of the stream was published;
///   * interested deliveries <= closure members (delivered <= expected);
///   * the latency sketch and the per-round series agree;
///   * tree: every reception is an interested delivery (closure);
///     flood: receptions >= interested deliveries;
///   * flood: messages == receptions * ceil(ln N + c);
///   * reliability within [0, 1].
[[nodiscard]] std::vector<std::string> check_rival(const RivalTally& tally);

/// Result of the self-test on one workload. `applicable` is false when the
/// workload's outcome has nothing the corruption could land on (say, a
/// closure that covers every group).
struct SelfTest {
  std::string corruption;
  bool applicable = false;
  bool caught = false;
};

/// Applies each corruption to a copy of `tally` and runs the checks.
[[nodiscard]] std::vector<SelfTest> self_test(const Tally& tally);
[[nodiscard]] std::vector<SelfTest> self_test(const RivalTally& tree,
                                              const RivalTally& flood);

/// Prints the self-test results to stderr; false when an applicable
/// corruption went unnoticed.
bool report_self_test(const std::vector<SelfTest>& results);

}  // namespace damperf
