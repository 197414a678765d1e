// Differential test of protocol::SeenSet against a reference model.
//
// The model is the plainest possible statement of the seen-set contract:
// a std::set of remembered keys, a std::deque of keys in first-reception
// order (the count bound's eviction order) and a std::deque of (round, key)
// stamps (the age bound's). Random remember / evict_older_than sequences
// drive both, with each bound on and off, and every observable must agree
// after every step: remember()'s first-reception verdict, the eviction
// count, contains() over the whole key universe, size() and bytes() (the
// bookkeeping gauges' input).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "core/protocol.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace dam::core::protocol {
namespace {

using Key = net::EventId;

class ModelSeenSet {
 public:
  ModelSeenSet(std::size_t max_size, std::size_t age_horizon)
      : max_size_(max_size), age_horizon_(age_horizon) {}

  bool remember(const Key& key, std::uint64_t now) {
    if (!seen_.insert(key).second) return false;
    if (max_size_ > 0) {
      order_.push_back(key);
      while (order_.size() > max_size_) {
        seen_.erase(order_.front());
        order_.pop_front();
      }
    }
    if (age_horizon_ > 0) stamped_.emplace_back(now, key);
    return true;
  }

  std::size_t evict_older_than(std::uint64_t now) {
    if (age_horizon_ == 0) return 0;
    std::size_t evicted = 0;
    while (!stamped_.empty() && stamped_.front().first + age_horizon_ <= now) {
      evicted += seen_.erase(stamped_.front().second);
      stamped_.pop_front();
    }
    return evicted;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return seen_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return seen_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return (seen_.size() + order_.size()) * sizeof(Key) +
           stamped_.size() * (sizeof(Key) + sizeof(std::uint64_t));
  }

 private:
  std::size_t max_size_;
  std::size_t age_horizon_;
  std::set<Key> seen_;
  std::deque<Key> order_;
  std::deque<std::pair<std::uint64_t, Key>> stamped_;
};

/// Keys drawn from `publishers` x `sequences`, so repeats are common.
constexpr std::uint32_t kPublishers = 6;
constexpr std::uint32_t kSequences = 40;

Key random_key(util::Rng& rng) {
  return Key{topics::ProcessId{static_cast<std::uint32_t>(rng.below(kPublishers))},
             static_cast<std::uint32_t>(rng.below(kSequences))};
}

void run_against_model(std::size_t max_size, std::size_t age_horizon,
                       std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "max_size=" << max_size
                                    << " age_horizon=" << age_horizon
                                    << " seed=" << seed);
  SeenSet<Key> seen(max_size);
  seen.set_age_horizon(age_horizon);
  ModelSeenSet model(max_size, age_horizon);
  util::Rng rng(seed);
  std::uint64_t now = 0;
  for (int step = 0; step < 3000; ++step) {
    // Time advances in uneven steps, sometimes not at all.
    now += rng.below(3);
    if (rng.bernoulli(0.2)) {
      ASSERT_EQ(seen.evict_older_than(now), model.evict_older_than(now));
    } else {
      const Key key = random_key(rng);
      ASSERT_EQ(seen.remember(key, now), model.remember(key, now));
    }
    ASSERT_EQ(seen.size(), model.size());
    ASSERT_EQ(seen.bytes(), model.bytes());
    if (step % 50 == 0) {
      for (std::uint32_t p = 0; p < kPublishers; ++p) {
        for (std::uint32_t s = 0; s < kSequences; ++s) {
          const Key key{topics::ProcessId{p}, s};
          ASSERT_EQ(seen.contains(key), model.contains(key));
        }
      }
    }
  }
}

TEST(SeenSetModelTest, MatchesModelWithEachBoundOnAndOff) {
  for (const std::size_t max_size : {0u, 1u, 7u, 64u}) {
    for (const std::size_t age_horizon : {0u, 1u, 5u, 50u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        run_against_model(max_size, age_horizon, seed);
      }
    }
  }
}

TEST(SeenSetModelTest, RememberWithoutRoundMatchesModel) {
  // The one-argument remember() stamps round 0; with an age bound, every
  // entry then expires together once `now` reaches the horizon.
  SeenSet<Key> seen(3);
  seen.set_age_horizon(4);
  ModelSeenSet model(3, 4);
  for (std::uint32_t s = 0; s < 10; ++s) {
    const Key key{topics::ProcessId{1}, s % 5};
    ASSERT_EQ(seen.remember(key), model.remember(key, 0));
    ASSERT_EQ(seen.bytes(), model.bytes());
  }
  ASSERT_EQ(seen.evict_older_than(3), model.evict_older_than(3));
  ASSERT_EQ(seen.evict_older_than(4), model.evict_older_than(4));
  EXPECT_EQ(seen.size(), 0u);
  EXPECT_EQ(seen.bytes(), model.bytes());
}

}  // namespace
}  // namespace dam::core::protocol
