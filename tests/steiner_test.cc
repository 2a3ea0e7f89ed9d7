#include "core/steiner_baseline.h"

#include <gtest/gtest.h>

#include "core/backward_search.h"
#include "graph_fixture.h"
#include "util/rng.h"

namespace banks {
namespace {

TEST(SteinerTest, StarOptimum) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{1}, {2}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 2.0);
  EXPECT_EQ(r.tree.root, 0u);
  EXPECT_TRUE(r.tree.IsValidTree());
}

TEST(SteinerTest, SingleTermZeroWeight) {
  Graph g(2);
  g.AddEdge(0, 1, 1.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{1}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 0.0);
  EXPECT_EQ(r.tree.root, 1u);
}

TEST(SteinerTest, ChoosesCheaperOfTwoJunctions) {
  Graph g(4);
  g.AddEdge(2, 0, 1.0);
  g.AddEdge(2, 1, 1.0);
  g.AddEdge(3, 0, 5.0);
  g.AddEdge(3, 1, 5.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{0}, {1}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 2.0);
  EXPECT_EQ(r.tree.root, 2u);
}

TEST(SteinerTest, SharedPathCountedOnce) {
  // root -> m (1), m -> a (1), m -> b (1): terminals {a}, {b}. Optimal tree
  // rooted at m (weight 2), not root (weight 3).
  Graph g(4);
  g.AddEdge(0, 1, 1.0);  // root -> m
  g.AddEdge(1, 2, 1.0);  // m -> a
  g.AddEdge(1, 3, 1.0);  // m -> b
  auto r = ExactSteinerTree(FrozenGraph(g), {{2}, {3}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 2.0);
  EXPECT_EQ(r.tree.root, 1u);
}

TEST(SteinerTest, TerminalSetsPickBestRepresentative) {
  // Term 1 can be satisfied by node 1 (far) or node 2 (near).
  Graph g(4);
  g.AddEdge(0, 1, 10.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(0, 3, 1.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{1, 2}, {3}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 2.0);
}

TEST(SteinerTest, UnreachableReturnsNotFound) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  // Node 2 is isolated.
  auto r = ExactSteinerTree(FrozenGraph(g), {{1}, {2}});
  EXPECT_FALSE(r.found);
}

TEST(SteinerTest, ExcludedRootsRespected) {
  Graph g(4);
  g.AddEdge(2, 0, 1.0);
  g.AddEdge(2, 1, 1.0);
  g.AddEdge(3, 0, 5.0);
  g.AddEdge(3, 1, 5.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{0}, {1}}, /*excluded_roots=*/{2});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.tree.root, 3u);
  EXPECT_DOUBLE_EQ(r.weight, 10.0);
}

TEST(SteinerTest, EmptyInputs) {
  Graph g(2);
  g.AddEdge(0, 1, 1.0);
  EXPECT_FALSE(ExactSteinerTree(FrozenGraph(g), {}).found);
  EXPECT_FALSE(ExactSteinerTree(FrozenGraph(g), {{0}, {}}).found);
}

TEST(SteinerTest, ThreeTerminals) {
  // Hub 0 with spokes to 1, 2, 3 plus an expensive bypass 1 -> 2.
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(0, 3, 1.0);
  g.AddEdge(1, 2, 10.0);
  auto r = ExactSteinerTree(FrozenGraph(g), {{1}, {2}, {3}});
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.weight, 3.0);
  EXPECT_EQ(r.tree.root, 0u);
  EXPECT_TRUE(r.tree.IsValidTree());
}

// Backward search can never beat the exact optimum; on random small graphs
// its best generated tree weight must be >= the DP optimum, and with an
// exhaustive run it should usually find the optimum itself.
TEST(SteinerTest, BackwardSearchNeverBeatsExact) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 8;
    Graph g(n);
    // Random connected-ish digraph with symmetric edges.
    for (NodeId u = 1; u < n; ++u) {
      NodeId v = static_cast<NodeId>(rng.Uniform(u));
      double w = 1.0 + static_cast<double>(rng.Uniform(4));
      g.AddEdge(u, v, w);
      g.AddEdge(v, u, w);
    }
    for (int extra = 0; extra < 4; ++extra) {
      NodeId u = static_cast<NodeId>(rng.Uniform(n));
      NodeId v = static_cast<NodeId>(rng.Uniform(n));
      if (u == v) continue;
      double w = 1.0 + static_cast<double>(rng.Uniform(4));
      g.AddEdge(u, v, w);
      g.AddEdge(v, u, w);
    }
    std::vector<std::vector<NodeId>> terms = {
        {static_cast<NodeId>(rng.Uniform(n))},
        {static_cast<NodeId>(rng.Uniform(n))}};
    if (terms[0][0] == terms[1][0]) continue;

    auto exact = ExactSteinerTree(FrozenGraph(g), terms);
    ASSERT_TRUE(exact.found);

    DataGraph dg;
    for (NodeId i = 0; i < n; ++i) {
      Rid rid{0, i};
      dg.node_rid.push_back(rid);
      dg.rid_node.emplace(rid.Pack(), i);
    }
    dg.graph = FrozenGraph(g);
    SearchOptions options;
    options.exhaustive = true;
    BackwardSearch bs(dg, options);
    auto answers = bs.Run(terms);
    for (const auto& t : answers) {
      EXPECT_GE(t.tree_weight, exact.weight - 1e-9);
    }
    // The heuristic finds some answer whenever one exists.
    EXPECT_FALSE(answers.empty());
  }
}

}  // namespace
}  // namespace banks
