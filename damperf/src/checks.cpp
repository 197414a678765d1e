#include "checks.hpp"

#include <cstdio>

namespace damperf {

namespace {

std::string group_name(std::size_t index) {
  return "group " + std::to_string(index);
}

}  // namespace

std::vector<std::string> check_tally(const Tally& tally) {
  std::vector<std::string> failures;
  std::uint64_t received = 0;
  for (std::size_t g = 0; g < tally.groups.size(); ++g) {
    const GroupTally& group = tally.groups[g];
    received += group.received;
    if (!group.in_closure && group.received > 0) {
      failures.push_back(group_name(g) + ": " +
                         std::to_string(group.received) +
                         " deliveries outside the publish topic's closure");
    }
    if (group.delivered > group.alive || group.received > group.members) {
      failures.push_back(group_name(g) + ": more deliveries than members");
    }
    if (group.fanout > 0 && group.sent != group.received * group.fanout) {
      failures.push_back(group_name(g) + ": " + std::to_string(group.sent) +
                         " messages, the fanout law gives " +
                         std::to_string(group.received * group.fanout));
    }
  }
  if (received != tally.engine_received) {
    failures.push_back("recounted " + std::to_string(received) +
                       " deliveries, the engine counted " +
                       std::to_string(tally.engine_received));
  }
  return failures;
}

std::uint64_t expected_of(const Tally& tally) {
  std::uint64_t expected = 0;
  for (const GroupTally& group : tally.groups) {
    if (group.in_closure) expected += group.alive;
  }
  return expected;
}

std::vector<std::string> check_latency(double p50, double p999,
                                       double rounds) {
  if (p50 <= p999 && p999 <= rounds) return {};
  return {"latency quantiles out of order: p50 " + std::to_string(p50) +
          ", p999 " + std::to_string(p999) + ", rounds " +
          std::to_string(rounds)};
}

std::vector<std::string> check_rival(const RivalTally& tally) {
  std::vector<std::string> failures;
  const std::string engine = tally.tree ? "tree: " : "flood: ";
  if (tally.publications != tally.stream_publications) {
    failures.push_back(engine + std::to_string(tally.publications) +
                       " publications, the stream holds " +
                       std::to_string(tally.stream_publications));
  }
  if (tally.interested > tally.closure_members) {
    failures.push_back(engine + "more deliveries than interested members");
  }
  if (tally.interested != tally.interested_per_round) {
    failures.push_back(engine + "latency sketch counts " +
                       std::to_string(tally.interested) +
                       " deliveries, the per-round series " +
                       std::to_string(tally.interested_per_round));
  }
  if (tally.tree ? tally.receptions != tally.interested
                 : tally.receptions < tally.interested) {
    failures.push_back(engine + std::to_string(tally.receptions) +
                       " receptions against " +
                       std::to_string(tally.interested) +
                       " interested deliveries");
  }
  if (!tally.tree && (tally.messages < tally.receptions * tally.fanout_low ||
                      tally.messages > tally.receptions * tally.fanout_high)) {
    failures.push_back(engine + std::to_string(tally.messages) +
                       " messages, the fanout law gives " +
                       std::to_string(tally.receptions * tally.fanout_low));
  }
  if (!(tally.reliability >= 0.0 && tally.reliability <= 1.0)) {
    failures.push_back(engine + "reliability outside [0, 1]");
  }
  return failures;
}

std::vector<SelfTest> self_test(const Tally& tally) {
  SelfTest extra{"one extra delivery", false, false};
  SelfTest outside{"one delivery outside the closure", false, false};
  SelfTest missing{"one missing message", false, false};
  for (std::size_t g = 0; g < tally.groups.size(); ++g) {
    const GroupTally& group = tally.groups[g];
    if (group.in_closure && !extra.applicable) {
      Tally bad = tally;
      ++bad.groups[g].delivered;
      ++bad.groups[g].received;
      extra = {extra.corruption, true, !check_tally(bad).empty()};
    }
    if (!group.in_closure && !outside.applicable) {
      // The engine's own count moves too, so only the closure check can
      // notice.
      Tally bad = tally;
      ++bad.groups[g].received;
      ++bad.engine_received;
      outside = {outside.corruption, true, !check_tally(bad).empty()};
    }
    if (group.fanout > 0 && group.sent > 0 && !missing.applicable) {
      Tally bad = tally;
      --bad.groups[g].sent;
      missing = {missing.corruption, true, !check_tally(bad).empty()};
    }
  }
  return {extra, outside, missing};
}

std::vector<SelfTest> self_test(const RivalTally& tree,
                                const RivalTally& flood) {
  RivalTally extra = tree;
  ++extra.interested;
  ++extra.receptions;
  RivalTally outside = tree;
  ++outside.receptions;
  RivalTally missing = flood;
  --missing.messages;
  return {{"one extra delivery", true, !check_rival(extra).empty()},
          {"one delivery outside the closure", true,
           !check_rival(outside).empty()},
          {"one missing message", true, !check_rival(missing).empty()}};
}

bool report_self_test(const std::vector<SelfTest>& results) {
  bool ok = true;
  for (const SelfTest& test : results) {
    const char* verdict = !test.applicable ? "not applicable"
                          : test.caught    ? "caught"
                                           : "MISSED";
    std::fprintf(stderr, "self-test %-34s %s\n", test.corruption.c_str(),
                 verdict);
    ok = ok && (!test.applicable || test.caught);
  }
  return ok;
}

}  // namespace damperf
