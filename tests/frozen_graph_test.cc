#include "graph/frozen_graph.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph_fixture.h"
#include "util/rng.h"

namespace banks {
namespace {

Graph SampleGraph() {
  Graph g;
  g.AddNode(1.0);
  g.AddNode(3.0);
  g.AddNode(0.0);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(0, 2, 0.5);
  g.AddEdge(1, 2, 2.0);
  return g;
}

TEST(FrozenGraphTest, PreservesTopologyAndOrder) {
  Graph g = SampleGraph();
  FrozenGraph f(g);
  ASSERT_EQ(f.num_nodes(), g.num_nodes());
  ASSERT_EQ(f.num_edges(), g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    auto fo = f.OutEdges(n);
    const auto& go = g.OutEdges(n);
    ASSERT_EQ(fo.size(), go.size());
    for (size_t i = 0; i < go.size(); ++i) {
      EXPECT_EQ(fo[i].to, go[i].to);
      EXPECT_DOUBLE_EQ(fo[i].weight, go[i].weight);
    }
    auto fi = f.InEdges(n);
    const auto& gi = g.InEdges(n);
    ASSERT_EQ(fi.size(), gi.size());
    for (size_t i = 0; i < gi.size(); ++i) {
      EXPECT_EQ(fi[i].to, gi[i].to);
      EXPECT_DOUBLE_EQ(fi[i].weight, gi[i].weight);
    }
    EXPECT_DOUBLE_EQ(f.node_weight(n), g.node_weight(n));
    EXPECT_EQ(f.OutDegree(n), go.size());
    EXPECT_EQ(f.InDegree(n), gi.size());
  }
}

TEST(FrozenGraphTest, DirectionSelectorMatchesEdgeSets) {
  FrozenGraph f{SampleGraph()};
  auto fwd = f.Edges(0, /*forward=*/true);
  auto bwd = f.Edges(2, /*forward=*/false);
  ASSERT_EQ(fwd.size(), 2u);
  EXPECT_EQ(fwd[0].to, 1u);
  ASSERT_EQ(bwd.size(), 2u);  // in-edges of 2: from 0 and 1
}

TEST(FrozenGraphTest, InvariantsComputedAtFreeze) {
  FrozenGraph f{SampleGraph()};
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 3.0);
  EXPECT_DOUBLE_EQ(f.MinEdgeWeight(), 0.5);
}

TEST(FrozenGraphTest, EmptyGraphInvariants) {
  FrozenGraph f{Graph()};
  EXPECT_EQ(f.num_nodes(), 0u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 0.0);
  EXPECT_TRUE(std::isinf(f.MinEdgeWeight()));
}

TEST(FrozenGraphTest, LoweringMaxNodeWeightRecomputes) {
  FrozenGraph f{SampleGraph()};
  f.set_node_weight(1, 0.5);  // node 1 held the max (3.0)
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 1.0);  // node 0 takes over
  f.set_node_weight(2, 9.0);
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 9.0);
}

TEST(FrozenGraphTest, SetNodeWeightsBulkOverwrite) {
  FrozenGraph f{SampleGraph()};
  f.SetNodeWeights({0.5, 0.25, 2.0});
  EXPECT_DOUBLE_EQ(f.node_weight(0), 0.5);
  EXPECT_DOUBLE_EQ(f.node_weight(2), 2.0);
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 2.0);
  // Short vector: remaining weights untouched, max exact.
  f.SetNodeWeights({0.1});
  EXPECT_DOUBLE_EQ(f.node_weight(0), 0.1);
  EXPECT_DOUBLE_EQ(f.node_weight(1), 0.25);
  EXPECT_DOUBLE_EQ(f.MaxNodeWeight(), 2.0);
}

TEST(FrozenGraphTest, EdgeLookupMatchesMutableGraph) {
  Graph g = SampleGraph();
  FrozenGraph f(g);
  EXPECT_TRUE(f.HasEdge(0, 1));
  EXPECT_FALSE(f.HasEdge(1, 0));
  EXPECT_DOUBLE_EQ(f.EdgeWeight(1, 2), 2.0);
  EXPECT_TRUE(std::isinf(f.EdgeWeight(2, 1)));
}

TEST(FrozenGraphTest, RandomGraphRoundTrip) {
  Rng rng(99);
  Graph g(64);
  for (int e = 0; e < 300; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(64));
    NodeId v = static_cast<NodeId>(rng.Uniform(64));
    if (u == v) continue;
    g.AddEdge(u, v, 1.0 + static_cast<double>(rng.Uniform(9)));
  }
  FrozenGraph f(g);
  EXPECT_EQ(f.num_edges(), g.num_edges());
  EXPECT_DOUBLE_EQ(f.MinEdgeWeight(), g.MinEdgeWeight());
  size_t in_total = 0, out_total = 0;
  for (NodeId n = 0; n < f.num_nodes(); ++n) {
    in_total += f.InDegree(n);
    out_total += f.OutDegree(n);
  }
  EXPECT_EQ(in_total, f.num_edges());
  EXPECT_EQ(out_total, f.num_edges());
}

TEST(FrozenGraphTest, MemoryBytesCompactVsMutable) {
  Rng rng(7);
  Graph g(256);
  for (int e = 0; e < 2000; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(256));
    NodeId v = static_cast<NodeId>(rng.Uniform(256));
    if (u == v) continue;
    g.AddEdge(u, v, 1.0);
  }
  FrozenGraph f(g);
  // CSR drops the per-node vector headers and slack capacity.
  EXPECT_LT(f.MemoryBytes(), g.MemoryBytes());
}

}  // namespace
}  // namespace banks
