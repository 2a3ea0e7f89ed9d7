#include "graph/prestige.h"

#include <gtest/gtest.h>

#include <numeric>

#include "graph_fixture.h"

namespace banks {
namespace {

TEST(IndegreePrestigeTest, CountsInEdges) {
  Graph g(3);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(1, 2, 1.0);
  auto p = IndegreePrestige(FrozenGraph(g));
  EXPECT_DOUBLE_EQ(p[2], 2.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
}

TEST(PageRankTest, SumsToOne) {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(2, 0, 1.0);
  g.AddEdge(3, 0, 1.0);
  auto pr = PageRankPrestige(FrozenGraph(g));
  double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, PopularNodeRanksHigher) {
  // Star: many nodes point at node 0.
  Graph g(6);
  for (NodeId i = 1; i < 6; ++i) g.AddEdge(i, 0, 1.0);
  auto pr = PageRankPrestige(FrozenGraph(g));
  for (NodeId i = 1; i < 6; ++i) EXPECT_GT(pr[0], pr[i]);
}

TEST(PageRankTest, AuthorityTransfer) {
  // 1 -> 0 and many -> 1: node 0 inherits prestige through node 1 and
  // outranks a node with one in-link from a nobody (§7 authority transfer).
  Graph g(8);
  for (NodeId i = 2; i < 6; ++i) g.AddEdge(i, 1, 1.0);
  g.AddEdge(1, 0, 1.0);
  g.AddEdge(7, 6, 1.0);  // 6 has one unpopular referrer
  auto pr = PageRankPrestige(FrozenGraph(g));
  EXPECT_GT(pr[0], pr[6]);
}

TEST(PageRankTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(PageRankPrestige(FrozenGraph(g)).empty());
}

TEST(PageRankTest, DanglingNodesHandled) {
  Graph g(2);
  g.AddEdge(0, 1, 1.0);  // node 1 has no out-edges (dangling)
  auto pr = PageRankPrestige(FrozenGraph(g));
  double sum = pr[0] + pr[1];
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(pr[1], pr[0]);
}

TEST(ApplyPrestigeTest, OverwritesNodeWeights) {
  FrozenGraph g{Graph(3)};
  ApplyPrestige(&g, {3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(g.node_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.node_weight(2), 1.0);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 3.0);
}

TEST(ApplyPrestigeTest, ShortVectorSafe) {
  FrozenGraph g{Graph(3)};
  ApplyPrestige(&g, {5.0});
  EXPECT_DOUBLE_EQ(g.node_weight(0), 5.0);
  EXPECT_DOUBLE_EQ(g.node_weight(1), 0.0);
}

}  // namespace
}  // namespace banks
