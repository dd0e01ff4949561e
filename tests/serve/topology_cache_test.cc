#include "serve/topology_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/tree_gen.h"
#include "support/check.h"

namespace treeplace::serve {
namespace {

Tree make_tree(std::uint64_t index) {
  TreeGenConfig config;
  config.num_internal = 6;
  return generate_tree(config, /*seed=*/77, index);
}

/// Keys in namespace 0, as serve_serially issues them.
CacheKey key(std::string topology_key) {
  return CacheKey{0, std::move(topology_key)};
}

TEST(TopologyCacheTest, PutThenGetReturnsEntry) {
  TopologyCache cache(4);
  Tree tree = make_tree(0);
  const auto topo = tree.topology_ptr();
  cache.put(key("a"), topo, tree.scenario());

  const auto entry = cache.get(key("a"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->topology, topo);
  EXPECT_EQ(entry->base.total_requests(), tree.total_requests());
}

TEST(TopologyCacheTest, GetReturnsIndependentFork) {
  TopologyCache cache(4);
  Tree tree = make_tree(0);
  cache.put(key("a"), tree.topology_ptr(), tree.scenario());

  auto fork = cache.get(key("a"));
  ASSERT_TRUE(fork.has_value());
  fork->base.set_pre_existing(fork->base.topology().root());

  // The cached base is untouched by edits to the handed-out fork.
  const auto again = cache.get(key("a"));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->base.num_pre_existing(), 0u);
}

TEST(TopologyCacheTest, NamespacesIsolateIdenticalOrdinalKeys) {
  // Two connections both publish "1": distinct entries, distinct sessions.
  TopologyCache cache(4);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  const auto sa = cache.put(CacheKey{7, "1"}, a.topology_ptr(), a.scenario());
  const auto sb = cache.put(CacheKey{9, "1"}, b.topology_ptr(), b.scenario());
  EXPECT_NE(sa, sb);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(CacheKey{7, "1"})->topology, a.topology_ptr());
  EXPECT_EQ(cache.get(CacheKey{9, "1"})->topology, b.topology_ptr());
  EXPECT_FALSE(cache.get(CacheKey{8, "1"}).has_value());
  EXPECT_NE((CacheKey{7, "1"}.hash()), (CacheKey{9, "1"}.hash()));
}

TEST(TopologyCacheTest, ForEachVisitsEveryResidentEntry) {
  TopologyCache cache(4);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  cache.put(CacheKey{1, "1"}, a.topology_ptr(), a.scenario());
  cache.put(CacheKey{2, "1"}, b.topology_ptr(), b.scenario());
  std::vector<std::uint64_t> seen;
  cache.for_each([&](const CacheKey& k, const CachedTopology& entry) {
    seen.push_back(k.namespace_id);
    EXPECT_NE(entry.session, nullptr);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(TopologyCacheTest, MissingKeyCountsMiss) {
  TopologyCache cache(2);
  EXPECT_FALSE(cache.get(key("nope")).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(TopologyCacheTest, EvictsLeastRecentlyUsed) {
  TopologyCache cache(2);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  Tree c = make_tree(2);
  cache.put(key("a"), a.topology_ptr(), a.scenario());
  cache.put(key("b"), b.topology_ptr(), b.scenario());

  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.get(key("a")).has_value());
  cache.put(key("c"), c.topology_ptr(), c.scenario());

  EXPECT_TRUE(cache.contains(key("a")));
  EXPECT_FALSE(cache.contains(key("b")));
  EXPECT_TRUE(cache.contains(key("c")));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TopologyCacheTest, ReplacingAKeyDoesNotEvict) {
  TopologyCache cache(2);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  cache.put(key("a"), a.topology_ptr(), a.scenario());
  cache.put(key("b"), b.topology_ptr(), b.scenario());
  cache.put(key("a"), b.topology_ptr(), b.scenario());  // replace in place

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const auto entry = cache.get(key("a"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->topology, b.topology_ptr());
}

TEST(TopologyCacheTest, EvictedTopologyStaysAliveThroughSharedPtr) {
  TopologyCache cache(1);
  Tree a = make_tree(0);
  cache.put(key("a"), a.topology_ptr(), a.scenario());
  const auto held = cache.get(key("a"));
  ASSERT_TRUE(held.has_value());

  Tree b = make_tree(1);
  cache.put(key("b"), b.topology_ptr(), b.scenario());  // evicts "a"
  EXPECT_FALSE(cache.contains(key("a")));
  // The held entry still works: in-flight solves outlive eviction.
  EXPECT_GT(held->topology->num_internal(), 0u);
}

TEST(TopologyCacheTest, RejectsMismatchedScenario) {
  TopologyCache cache(2);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  EXPECT_THROW(cache.put(key("a"), a.topology_ptr(), b.scenario()), CheckError);
}

TEST(TopologyCacheTest, ConcurrentGetsAndPuts) {
  TopologyCache cache(4);
  std::vector<Tree> trees;
  for (std::uint64_t i = 0; i < 8; ++i) trees.push_back(make_tree(i));
  for (std::size_t i = 0; i < 4; ++i) {
    cache.put(key(std::to_string(i)), trees[i].topology_ptr(),
              trees[i].scenario());
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 50; ++i) {
        const std::size_t k = (t + i) % 8;
        if (k < 4) {
          (void)cache.get(key(std::to_string(k)));
        } else {
          cache.put(key(std::to_string(k)), trees[k].topology_ptr(),
                    trees[k].scenario());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 4u);
}

TEST(TopologyCacheTest, SessionRidesWithEntry) {
  TopologyCache cache(2);
  Tree tree = make_tree(0);
  const auto session = cache.put(key("a"), tree.topology_ptr(), tree.scenario());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->topology_ptr(), tree.topology_ptr());

  // Every get hands out the same session (shared warm-start state).
  const auto entry = cache.get(key("a"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->session, session);

  // Re-registering a key starts a fresh session (the base changed).
  Tree again = make_tree(0);
  const auto replaced =
      cache.put(key("a"), again.topology_ptr(), again.scenario());
  EXPECT_NE(replaced, session);
  EXPECT_EQ(cache.get(key("a"))->session, replaced);
}

TEST(TopologyCacheTest, EvictionDropsSessionButHandedOutCopiesSurvive) {
  TopologyCache cache(1);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  cache.put(key("a"), a.topology_ptr(), a.scenario());
  const auto held = cache.get(key("a"))->session;  // an in-flight solve's copy
  cache.put(key("b"), b.topology_ptr(), b.scenario());  // evicts "a"
  EXPECT_FALSE(cache.get(key("a")).has_value());
  // The handed-out shared_ptr keeps the evicted session usable.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->topology_ptr(), a.topology_ptr());
}

TEST(TopologyCacheTest, EraseNamespaceDropsOnlyThatNamespace) {
  TopologyCache cache(4);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  cache.put(CacheKey{7, "1"}, a.topology_ptr(), a.scenario());
  cache.put(CacheKey{7, "2"}, b.topology_ptr(), b.scenario());
  cache.put(CacheKey{8, "1"}, b.topology_ptr(), b.scenario());

  cache.erase_namespace(7);
  EXPECT_FALSE(cache.contains(CacheKey{7, "1"}));
  EXPECT_FALSE(cache.contains(CacheKey{7, "2"}));
  EXPECT_TRUE(cache.contains(CacheKey{8, "1"}));
  EXPECT_EQ(cache.stats().evictions, 0u);  // erasing is not evicting
  EXPECT_EQ(cache.stats().size, 1u);
  // The freed slots take new entries without evicting the survivor.
  cache.put(CacheKey{9, "1"}, a.topology_ptr(), a.scenario());
  cache.put(CacheKey{9, "2"}, a.topology_ptr(), a.scenario());
  cache.put(CacheKey{9, "3"}, a.topology_ptr(), a.scenario());
  EXPECT_TRUE(cache.contains(CacheKey{8, "1"}));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(TopologyCacheTest, DroppedSessionCountersStayInTheTotals) {
  // Erased, evicted and replaced entries all fold their session counters
  // into the cache totals; only session_bytes counts residents alone.
  TopologyCache cache(1);
  Tree a = make_tree(0);
  Tree b = make_tree(1);
  cache.put(CacheKey{7, "1"}, a.topology_ptr(), a.scenario())
      ->record_contraction(/*sealed=*/3, /*cells=*/30);
  cache.erase_namespace(7);
  cache.put(CacheKey{8, "1"}, b.topology_ptr(), b.scenario())
      ->record_contraction(5, 50);
  cache.put(CacheKey{8, "1"}, b.topology_ptr(), b.scenario())  // replaces
      ->record_contraction(7, 70);
  cache.put(CacheKey{9, "1"}, a.topology_ptr(), a.scenario())  // evicts
      ->record_contraction(11, 110);

  const TopologyCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.session_subtrees_sealed, 3u + 5u + 7u + 11u);
  EXPECT_EQ(stats.session_sealed_cells, 30u + 50u + 70u + 110u);
}

}  // namespace
}  // namespace treeplace::serve
