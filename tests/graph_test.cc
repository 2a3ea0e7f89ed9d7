#include "graph_fixture.h"

#include <gtest/gtest.h>

#include <cmath>

namespace banks {
namespace {

TEST(GraphTest, AddNodesAndEdges) {
  Graph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(2.0);
  NodeId c = g.AddNode(0.0);
  g.AddEdge(a, b, 1.0);
  g.AddEdge(b, c, 2.5);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.node_weight(b), 2.0);
}

TEST(GraphTest, OutAndInAdjacencyConsistent) {
  Graph g(3);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(2, 1, 0.5);
  ASSERT_EQ(g.OutEdges(0).size(), 1u);
  EXPECT_EQ(g.OutEdges(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.OutEdges(0)[0].weight, 1.5);
  ASSERT_EQ(g.InEdges(1).size(), 2u);
  EXPECT_TRUE(g.OutEdges(1).empty());
}

TEST(GraphTest, EdgeWeightLookup) {
  Graph g(2);
  g.AddEdge(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 3.0);
  EXPECT_TRUE(std::isinf(g.EdgeWeight(1, 0)));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(GraphTest, MinEdgeWeightTracked) {
  Graph g(3);
  EXPECT_TRUE(std::isinf(g.MinEdgeWeight()));
  g.AddEdge(0, 1, 4.0);
  g.AddEdge(1, 2, 0.25);
  EXPECT_DOUBLE_EQ(g.MinEdgeWeight(), 0.25);
}

TEST(GraphTest, MaxNodeWeightTracked) {
  Graph g;
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 0.0);
  g.AddNode(1.0);
  NodeId b = g.AddNode(0.5);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 1.0);
  g.set_node_weight(b, 9.0);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 9.0);
}

TEST(GraphTest, LoweringMaxNodeWeightRecomputes) {
  Graph g;
  NodeId a = g.AddNode(5.0);
  g.AddNode(2.0);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 5.0);
  // Lowering the node that held the maximum must not leave a stale max.
  g.set_node_weight(a, 1.0);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 2.0);
  g.set_node_weight(a, 0.0);
  EXPECT_DOUBLE_EQ(g.MaxNodeWeight(), 2.0);
}

TEST(GraphTest, ParallelEdgesAllowed) {
  Graph g(2);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 1, 2.0);
  EXPECT_EQ(g.OutEdges(0).size(), 2u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.0);  // first match
}

TEST(GraphTest, MemoryBytesGrowsWithSize) {
  Graph small(10);
  Graph large(10000);
  for (NodeId i = 0; i + 1 < 10000; ++i) large.AddEdge(i, i + 1, 1.0);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

TEST(GraphTest, ResizePreallocates) {
  Graph g;
  g.Resize(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  g.AddEdge(0, 4, 1.0);
  EXPECT_EQ(g.num_edges(), 1u);
}

}  // namespace
}  // namespace banks
