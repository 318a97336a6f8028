// Unit tests for the disjoint-set substrate: serial DSU, the four find
// variants, hooking, and the concurrent DSU under real multithreading.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "dsu/disjoint_set.h"
#include "dsu/find.h"
#include "dsu/hook.h"
#include "dsu/parent_ops.h"
#include "test_util.h"

namespace ecl {
namespace {

TEST(DisjointSet, StartsFullySeparate) {
  DisjointSet ds(10);
  EXPECT_EQ(ds.count(), 10u);
  for (vertex_t v = 0; v < 10; ++v) EXPECT_EQ(ds.find(v), v);
}

TEST(DisjointSet, UniteMergesAndCounts) {
  DisjointSet ds(5);
  EXPECT_TRUE(ds.unite(0, 1));
  EXPECT_TRUE(ds.unite(1, 2));
  EXPECT_FALSE(ds.unite(0, 2));  // already together
  EXPECT_EQ(ds.count(), 3u);
  EXPECT_TRUE(ds.same(0, 2));
  EXPECT_FALSE(ds.same(0, 3));
}

TEST(DisjointSet, LongChainCompresses) {
  DisjointSet ds(1000);
  for (vertex_t v = 0; v + 1 < 1000; ++v) ds.unite(v, v + 1);
  EXPECT_EQ(ds.count(), 1u);
  const vertex_t root = ds.find(999);
  for (vertex_t v = 0; v < 1000; ++v) EXPECT_EQ(ds.find(v), root);
}

// ---------------------------------------------------------------------------
// find variants: all four must return the same representative and preserve
// reachability, differing only in how much they compress.

class FindVariantTest : public ::testing::TestWithParam<JumpPolicy> {};

/// Builds the chain 9 -> 8 -> ... -> 1 -> 0 (parent[i] = i-1).
std::vector<vertex_t> chain_parent(vertex_t n) {
  std::vector<vertex_t> parent(n);
  parent[0] = 0;
  for (vertex_t v = 1; v < n; ++v) parent[v] = v - 1;
  return parent;
}

TEST_P(FindVariantTest, FindsChainRoot) {
  auto parent = chain_parent(10);
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_repres(GetParam(), 9, ops), 0u);
}

TEST_P(FindVariantTest, RootFindsItself) {
  auto parent = chain_parent(10);
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_repres(GetParam(), 0, ops), 0u);
}

TEST_P(FindVariantTest, PreservesReachabilityForAllVertices) {
  auto parent = chain_parent(64);
  SerialParentOps ops(parent.data());
  (void)find_repres(GetParam(), 63, ops);
  // Whatever compression happened, every vertex must still reach root 0.
  for (vertex_t v = 0; v < 64; ++v) {
    EXPECT_EQ(find_none(v, ops), 0u) << "vertex " << v;
  }
}

TEST_P(FindVariantTest, RecordsPathLength) {
  auto parent = chain_parent(10);
  SerialParentOps ops(parent.data());
  PathLengthRecorder rec;
  (void)find_repres(GetParam(), 9, ops, &rec);
  EXPECT_EQ(rec.num_finds, 1u);
  // The recorder counts pointer-chase iterations beyond the initial load:
  // eight for the 9 -> 8 -> ... -> 0 chain.
  EXPECT_EQ(rec.max_length, 8u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FindVariantTest,
                         ::testing::Values(JumpPolicy::kMultiple, JumpPolicy::kSingle,
                                           JumpPolicy::kNone, JumpPolicy::kIntermediate),
                         [](const auto& info) {
                           switch (info.param) {
                             case JumpPolicy::kMultiple: return "Jump1Multiple";
                             case JumpPolicy::kSingle: return "Jump2Single";
                             case JumpPolicy::kNone: return "Jump3None";
                             case JumpPolicy::kIntermediate: return "Jump4Intermediate";
                           }
                           return "Unknown";
                         });

TEST(FindCompression, MultipleFullyCompresses) {
  auto parent = chain_parent(8);
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_multiple(7, ops), 0u);
  for (vertex_t v = 1; v < 8; ++v) EXPECT_EQ(parent[v], 0u) << v;
}

TEST(FindCompression, SingleCompressesOnlyStart) {
  auto parent = chain_parent(8);
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_single(7, ops), 0u);
  EXPECT_EQ(parent[7], 0u);
  for (vertex_t v = 2; v < 7; ++v) EXPECT_EQ(parent[v], v - 1) << v;
}

TEST(FindCompression, NoneLeavesPathsUntouched) {
  auto parent = chain_parent(8);
  const auto before = parent;
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_none(7, ops), 0u);
  EXPECT_EQ(parent, before);
}

TEST(FindCompression, IntermediateHalvesPath) {
  auto parent = chain_parent(9);
  SerialParentOps ops(parent.data());
  EXPECT_EQ(find_intermediate(8, ops), 0u);
  // Path halving: every visited vertex now skips its old parent.
  EXPECT_EQ(parent[8], 6u);
  EXPECT_EQ(parent[7], 5u);
  EXPECT_EQ(parent[6], 4u);
  // Second traversal is at most half as long.
  PathLengthRecorder rec;
  (void)find_intermediate(8, ops, &rec);
  EXPECT_LE(rec.max_length, 4u);
}

TEST(FindRace, SingleKeepsHookLandingAfterWalk) {
  // Vertex 2 is its own root during find_single's walk (loads 1 and 2);
  // another thread then hooks it to 1. The find must not decide its store
  // on a re-read and write parent[2] = 2 over the hook.
  std::vector<vertex_t> parent{0, 1, 2};
  testing::ScriptedParentOps::Script hook{.after_loads = 2, .slot = 2, .value = 1};
  testing::ScriptedParentOps ops(parent.data(), &hook);
  EXPECT_EQ(find_single(2, ops), 2u);
  EXPECT_EQ(parent[2], 1u);
}

TEST(PathLengthRecorder, MergeCombines) {
  PathLengthRecorder a;
  PathLengthRecorder b;
  a.record(4);
  b.record(10);
  b.record(2);
  a.merge(b);
  EXPECT_EQ(a.num_finds, 3u);
  EXPECT_EQ(a.max_length, 10u);
  EXPECT_DOUBLE_EQ(a.average(), 16.0 / 3.0);
}

// ---------------------------------------------------------------------------
// Hooking

TEST(Hook, PointsLargerRepAtSmaller) {
  std::vector<vertex_t> parent{0, 1, 2, 3};
  SerialParentOps ops(parent.data());
  const vertex_t rep = hook_representatives(3, 1, ops);
  EXPECT_EQ(rep, 1u);
  EXPECT_EQ(parent[3], 1u);
  EXPECT_EQ(parent[1], 1u);
}

TEST(Hook, EqualRepsAreNoop) {
  std::vector<vertex_t> parent{0, 1};
  SerialParentOps ops(parent.data());
  EXPECT_EQ(hook_representatives(1, 1, ops), 1u);
  EXPECT_EQ(parent[1], 1u);
}

TEST(Hook, ProcessEdgeUnitesComponents) {
  // Two chains: 2 -> 1 -> 0 and 5 -> 4 -> 3.
  std::vector<vertex_t> parent{0, 0, 1, 3, 3, 4};
  SerialParentOps ops(parent.data());
  const vertex_t v_rep = find_intermediate(5, ops);
  const vertex_t joint = process_edge(JumpPolicy::kIntermediate, v_rep, 2, ops);
  EXPECT_EQ(joint, 0u);
  for (vertex_t v = 0; v < 6; ++v) EXPECT_EQ(find_none(v, ops), 0u) << v;
}

TEST(Hook, CasRetrySemantics) {
  // AtomicParentOps::cas must return the *observed* value so the hook's
  // retry loop can update its local representative.
  std::vector<vertex_t> parent{0, 1, 2};
  AtomicParentOps ops(parent.data());
  EXPECT_EQ(ops.cas(2, 2, 1), 2u);  // success returns expected
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(ops.cas(2, 2, 0), 1u);  // failure returns current value
  EXPECT_EQ(parent[2], 1u);         // unchanged
}

// ---------------------------------------------------------------------------
// ConcurrentDisjointSet under real threads

TEST(ConcurrentDsu, SerialSemantics) {
  ConcurrentDisjointSet ds(6);
  ds.unite(0, 1);
  ds.unite(2, 3);
  EXPECT_TRUE(ds.same(0, 1));
  EXPECT_FALSE(ds.same(1, 2));
  ds.unite(1, 3);
  EXPECT_TRUE(ds.same(0, 2));
  ds.flatten();
  EXPECT_EQ(ds.count(), 3u);  // {0,1,2,3}, {4}, {5}
  EXPECT_EQ(ds.parents()[3], 0u);
}

TEST(ConcurrentDsu, ManyThreadsUniteChain) {
  constexpr vertex_t kN = 20000;
  constexpr int kThreads = 8;  // oversubscribed on purpose
  ConcurrentDisjointSet ds(kN);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ds, t] {
      // Thread t unites every edge (v, v+1) with v % kThreads == t.
      for (vertex_t v = static_cast<vertex_t>(t); v + 1 < kN; v += kThreads) {
        ds.unite(v, v + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  ds.flatten();
  EXPECT_EQ(ds.count(), 1u);
  for (vertex_t v = 0; v < kN; ++v) ASSERT_EQ(ds.parents()[v], 0u) << v;
}

TEST(ConcurrentDsu, ConcurrentRandomUnions) {
  constexpr vertex_t kN = 10000;
  ConcurrentDisjointSet ds(kN);
  DisjointSet reference(kN);
  // Deterministic edge set, applied serially to the reference and
  // concurrently (shards interleaved) to the lock-free structure.
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 0; v < kN; ++v) {
    edges.emplace_back(v, (v * 7919u) % kN);
    edges.emplace_back(v, (v * 104729u + 13u) % kN);
  }
  for (const auto& [a, b] : edges) {
    if (a != b) reference.unite(a, b);
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < edges.size(); i += 6) {
        if (edges[i].first != edges[i].second) ds.unite(edges[i].first, edges[i].second);
      }
    });
  }
  for (auto& w : workers) w.join();
  ds.flatten();
  EXPECT_EQ(ds.count(), reference.count());
  for (vertex_t v = 0; v < kN; ++v) {
    ASSERT_EQ(ds.parents()[v] == ds.parents()[(v * 7919u) % kN],
              reference.same(v, (v * 7919u) % kN))
        << v;
  }
}

}  // namespace
}  // namespace ecl
