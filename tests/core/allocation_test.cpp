// Heap-allocation budget of the message-passing engine.
//
// This binary replaces the global operator new with a counting one, so the
// tests can state how many blocks a code path takes from the allocator:
//   * a freshly built DamNode takes none — no per-process container
//     allocates before its first use;
//   * spawn_group(N) takes O(1) blocks per process;
//   * a quiet round (membership gossip only, no event in flight) takes
//     none per process once every node has warmed up, so its count does
//     not grow with N.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/node.hpp"
#include "core/system.hpp"
#include "fake_env.hpp"
#include "topics/hierarchy.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace dam::core {
namespace {

/// Blocks taken from the allocator while `fn` runs.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

class AllocationTest : public ::testing::Test {
 protected:
  AllocationTest() { levels_ = topics::make_linear_hierarchy(hierarchy_, 1); }

  /// Blocks taken by constructing one DamNode on the bottom topic.
  std::size_t node_construction(const NodeConfig& config) {
    std::optional<DamNode> node;
    return allocations_in([&] {
      node.emplace(ProcessId{0}, levels_[1], &hierarchy_, config, 100,
                   util::Rng(7), &env_);
    });
  }

  /// A root group of 64 and a child group of `count` processes
  /// (auto-wired super tables, so the membership gossip carries the
  /// piggybacked table). Warms up until every view has left its shared
  /// arena row — the copy-on-churn overlay is the one block a node takes
  /// on its first view change — then counts the blocks of one more round.
  std::size_t quiet_round(std::size_t count) {
    DamSystem::Config config;
    config.auto_wire_super_tables = true;
    DamSystem system(hierarchy_, config);
    system.spawn_group(levels_[0], 64);
    const auto children = system.spawn_group(levels_[1], count);
    const auto warm = [&] {
      for (std::uint32_t id = 0; id < system.process_count(); ++id) {
        const DamNode& node = system.node(ProcessId{id});
        if (node.group_membership().view().shares_base()) return false;
      }
      return true;
    };
    for (int round = 0; round < 256 && !warm(); ++round) system.run_rounds(1);
    EXPECT_TRUE(warm());
    // One more round, so every node has also gossiped from its overlay.
    system.run_rounds(1);
    const std::size_t messages = system.transport().stats().sent;
    const std::size_t blocks = allocations_in([&] { system.run_rounds(1); });
    // The round really was busy: every alive process gossiped.
    EXPECT_GE(system.transport().stats().sent - messages, children.size());
    EXPECT_EQ(system.metrics().total_event_messages(), 0u);
    return blocks;
  }

  topics::TopicHierarchy hierarchy_;
  std::vector<topics::TopicId> levels_;
  testing::FakeEnv env_;
};

TEST_F(AllocationTest, CounterSeesAllocations) {
  // The replacement operator new is really in use: a recovery-enabled node
  // buffers a published event, which takes at least one block.
  NodeConfig config;
  config.recovery.enabled = true;
  DamNode node(ProcessId{0}, levels_[1], &hierarchy_, config, 100,
               util::Rng(7), &env_);
  node.subscribe({ProcessId{1}, ProcessId{2}}, {ProcessId{50}});
  EXPECT_GT(allocations_in([&] { node.publish(); }), 0u);
}

TEST_F(AllocationTest, PlainNodeConstructionAllocatesNothing) {
  // Recovery off, no count bound, no age GC: the default node.
  EXPECT_EQ(node_construction(NodeConfig{}), 0u);
}

TEST_F(AllocationTest, BoundedNodeConstructionAllocatesNothing) {
  // Every optional queue on: still nothing until the first push.
  NodeConfig config;
  config.max_seen_events = 32;
  config.seen_gc_horizon = 16;
  config.recovery.enabled = true;
  EXPECT_EQ(node_construction(config), 0u);
}

TEST_F(AllocationTest, SpawnGroupTakesConstantBlocksPerProcess) {
  const auto per_process = [&](std::size_t count) {
    DamSystem system(hierarchy_, DamSystem::Config{});
    const std::size_t blocks =
        allocations_in([&] { system.spawn_group(levels_[0], count); });
    return static_cast<double>(blocks) / static_cast<double>(count);
  };
  const double small = per_process(1000);
  const double large = per_process(4000);
  // The node itself plus the registry's and the bootstrap overlay's
  // amortized vector growth.
  EXPECT_LT(small, 8.0);
  EXPECT_LT(large, 8.0);
  EXPECT_LT(large, small + 0.5);
}

TEST_F(AllocationTest, QuietRoundTakesNoBlockPerProcess) {
  const std::size_t small = quiet_round(1000);
  const std::size_t large = quiet_round(4000);
  // What remains is per round, not per process: the transport's round
  // slab map node and the metrics' per-round series.
  EXPECT_LE(small, 8u);
  EXPECT_LE(large, 8u);
}

}  // namespace
}  // namespace dam::core
