#include "core/scorer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph_fixture.h"

namespace banks {
namespace {

// Graph: node weights {0: 4, 1: 2, 2: 0}; min edge weight 1.
FrozenGraph MakeGraph() {
  Graph g;
  g.AddNode(4.0);
  g.AddNode(2.0);
  g.AddNode(0.0);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 3.0);
  return FrozenGraph(g);
}

ConnectionTree MakeTree() {
  ConnectionTree t;
  t.root = 0;
  t.edges = {{0, 1, 1.0}, {0, 2, 3.0}};
  t.leaf_for_term = {1, 2};
  t.tree_weight = 4.0;
  return t;
}

TEST(ScorerTest, LinearEdgeScore) {
  ScoringParams p;
  p.edge_log = false;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.EdgeScore(1.0), 1.0);   // w / w_min
  EXPECT_DOUBLE_EQ(s.EdgeScore(3.0), 3.0);
}

TEST(ScorerTest, LogEdgeScore) {
  ScoringParams p;
  p.edge_log = true;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.EdgeScore(1.0), 1.0);   // log2(1 + 1) = 1
  EXPECT_DOUBLE_EQ(s.EdgeScore(3.0), 2.0);   // log2(1 + 3) = 2
}

TEST(ScorerTest, NodeScoreNormalisedByMax) {
  ScoringParams p;
  p.node_log = false;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.NodeScore(4.0), 1.0);
  EXPECT_DOUBLE_EQ(s.NodeScore(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.NodeScore(0.0), 0.0);
}

TEST(ScorerTest, LogNodeScore) {
  ScoringParams p;
  p.node_log = true;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.NodeScore(4.0), 1.0);            // log2(1+1)
  EXPECT_DOUBLE_EQ(s.NodeScore(2.0), std::log2(1.5));
}

TEST(ScorerTest, TreeEdgeScore) {
  ScoringParams p;
  p.edge_log = false;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  // Escore = 1 / (1 + 1 + 3) = 0.2.
  EXPECT_DOUBLE_EQ(s.TreeEdgeScore(MakeTree()), 0.2);
}

TEST(ScorerTest, SingleNodeTreeEdgeScoreIsOne) {
  FrozenGraph g = MakeGraph();
  Scorer s(g, ScoringParams{});
  ConnectionTree single;
  single.root = 0;
  single.leaf_for_term = {0};
  EXPECT_DOUBLE_EQ(s.TreeEdgeScore(single), 1.0);
}

TEST(ScorerTest, TreeNodeScoreAveragesRootAndLeaves) {
  ScoringParams p;
  p.node_log = false;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  // Contributions: root 0 (1.0) + leaf 1 (0.5) + leaf 2 (0.0), avg = 0.5.
  EXPECT_DOUBLE_EQ(s.TreeNodeScore(MakeTree()), 0.5);
}

TEST(ScorerTest, MultiTermLeafCountedPerTerm) {
  ScoringParams p;
  p.node_log = false;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  // Node 1 satisfies both terms: root(1.0) + 1(0.5) + 1(0.5), avg = 2/3.
  ConnectionTree t;
  t.root = 0;
  t.edges = {{0, 1, 1.0}};
  t.leaf_for_term = {1, 1};
  EXPECT_DOUBLE_EQ(s.TreeNodeScore(t), 2.0 / 3.0);
}

TEST(ScorerTest, AdditiveCombination) {
  ScoringParams p;
  p.edge_log = false;
  p.node_log = false;
  p.multiplicative = false;
  p.lambda = 0.2;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  // 0.8 * 0.2 + 0.2 * 0.5 = 0.26.
  EXPECT_NEAR(s.Relevance(MakeTree()), 0.26, 1e-12);
}

TEST(ScorerTest, MultiplicativeCombination) {
  ScoringParams p;
  p.edge_log = false;
  p.node_log = false;
  p.multiplicative = true;
  p.lambda = 0.5;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  // 0.2 * 0.5^0.5.
  EXPECT_NEAR(s.Relevance(MakeTree()), 0.2 * std::sqrt(0.5), 1e-12);
}

TEST(ScorerTest, LambdaZeroIgnoresNodes) {
  ScoringParams p;
  p.edge_log = false;
  p.lambda = 0.0;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.Relevance(MakeTree()), 0.2);
  p.multiplicative = true;
  Scorer sm(g, p);
  EXPECT_DOUBLE_EQ(sm.Relevance(MakeTree()), 0.2);
}

TEST(ScorerTest, LambdaOneIgnoresEdges) {
  ScoringParams p;
  p.edge_log = false;
  p.node_log = false;
  p.lambda = 1.0;
  FrozenGraph g = MakeGraph();
  Scorer s(g, p);
  EXPECT_DOUBLE_EQ(s.Relevance(MakeTree()), 0.5);
}

TEST(ScorerTest, RelevanceInUnitInterval) {
  for (bool el : {false, true}) {
    for (bool nl : {false, true}) {
      for (bool mult : {false, true}) {
        for (double lambda : {0.0, 0.2, 0.5, 0.8, 1.0}) {
          ScoringParams p{el, nl, mult, lambda};
          FrozenGraph g = MakeGraph();
  Scorer s(g, p);
          double r = s.Relevance(MakeTree());
          EXPECT_GE(r, 0.0) << p.Name();
          EXPECT_LE(r, 1.0) << p.Name();
        }
      }
    }
  }
}

TEST(ScorerTest, DiscardedCombinationsFlagged) {
  ScoringParams ok{true, false, false, 0.2};
  EXPECT_FALSE(ok.IsDiscardedCombination());
  ScoringParams bad{true, false, true, 0.2};
  EXPECT_TRUE(bad.IsDiscardedCombination());
  ScoringParams bad2{false, true, true, 0.2};
  EXPECT_TRUE(bad2.IsDiscardedCombination());
  ScoringParams ok2{false, false, true, 0.2};
  EXPECT_FALSE(ok2.IsDiscardedCombination());
}

TEST(ScorerTest, ZeroPrestigeGraphHasZeroNodeScore) {
  Graph mg;
  mg.AddNode(0.0);
  mg.AddNode(0.0);
  mg.AddEdge(0, 1, 1.0);
  FrozenGraph g(mg);
  Scorer s(g, ScoringParams{});
  EXPECT_DOUBLE_EQ(s.NodeScore(0.0), 0.0);
}

TEST(ScorerTest, ScoreInPlaceWritesRelevance) {
  FrozenGraph g = MakeGraph();
  Scorer s(g, ScoringParams{});
  ConnectionTree t = MakeTree();
  s.ScoreInPlace(&t);
  EXPECT_GT(t.relevance, 0.0);
}

TEST(ScorerTest, NameIsStable) {
  ScoringParams p{true, false, false, 0.2};
  EXPECT_EQ(p.Name(), "E(log) N(lin) add lambda=0.20");
}

}  // namespace
}  // namespace banks
