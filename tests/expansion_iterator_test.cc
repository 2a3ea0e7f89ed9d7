#include "core/expansion_iterator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "graph_fixture.h"

namespace banks {
namespace {

// Path graph 0 -> 1 -> 2 -> 3 with unit weights; reverse iterators from 3
// should discover 3 (0), 2 (1), 1 (2), 0 (3).
FrozenGraph PathGraph() {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(2, 3, 1.0);
  return FrozenGraph(g);
}

TEST(ExpansionIteratorTest, VisitsInDistanceOrder) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  std::vector<std::pair<NodeId, double>> visits;
  while (it.HasNext()) {
    auto v = it.Next();
    visits.emplace_back(v.node, v.distance);
  }
  ASSERT_EQ(visits.size(), 4u);
  EXPECT_EQ(visits[0].first, 3u);
  EXPECT_DOUBLE_EQ(visits[0].second, 0.0);
  EXPECT_EQ(visits[1].first, 2u);
  EXPECT_EQ(visits[3].first, 0u);
  EXPECT_DOUBLE_EQ(visits[3].second, 3.0);
}

TEST(ExpansionIteratorTest, PeekMatchesNext) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  while (it.HasNext()) {
    double peek = it.PeekDistance();
    EXPECT_DOUBLE_EQ(it.Next().distance, peek);
  }
}

TEST(ExpansionIteratorTest, PathToSourceFollowsForwardEdges) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  while (it.HasNext()) it.Next();
  auto path = it.PathToSource(0);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  // Consecutive pairs must be forward edges.
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(path[i], path[i + 1]));
  }
}

TEST(ExpansionIteratorTest, PathOfSourceIsItself) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  it.Next();
  auto path = it.PathToSource(3);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 3u);
}

TEST(ExpansionIteratorTest, UnsettledNodeHasNoPath) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  it.Next();  // settles only node 3
  EXPECT_TRUE(it.PathToSource(0).empty());
  EXPECT_TRUE(std::isinf(it.DistanceTo(0)));
}

TEST(ExpansionIteratorTest, ShortestPathChosen) {
  // Two routes 0 -> 2: direct (weight 5) and via 1 (1 + 1 = 2).
  Graph g(3);
  g.AddEdge(0, 2, 5.0);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  FrozenGraph fg(g);
  ExpansionIterator it(fg, 2);
  while (it.HasNext()) it.Next();
  EXPECT_DOUBLE_EQ(it.DistanceTo(0), 2.0);
  auto path = it.PathToSource(0);
  ASSERT_EQ(path.size(), 3u);  // 0 -> 1 -> 2
  EXPECT_EQ(path[1], 1u);
}

TEST(ExpansionIteratorTest, UnreachableNodesNeverVisited) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  // Node 2 isolated; reverse from 1 must visit only {1, 0}.
  FrozenGraph fg(g);
  ExpansionIterator it(fg, 1);
  size_t count = 0;
  while (it.HasNext()) {
    EXPECT_NE(it.Next().node, 2u);
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(ExpansionIteratorTest, DistanceCapStopsExpansion) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3, ExpandDirection::kBackward,
                       /*distance_cap=*/1.5);
  std::vector<NodeId> nodes;
  while (it.HasNext()) nodes.push_back(it.Next().node);
  ASSERT_EQ(nodes.size(), 2u);  // 3 (d=0) and 2 (d=1) only
}

TEST(ExpansionIteratorTest, TieBreaksOnNodeIdDeterministically) {
  // Nodes 1 and 2 both at distance 1 from 0 (reverse).
  Graph g(3);
  g.AddEdge(1, 0, 1.0);
  g.AddEdge(2, 0, 1.0);
  FrozenGraph fg(g);
  ExpansionIterator it(fg, 0);
  it.Next();  // source
  EXPECT_EQ(it.Next().node, 1u);
  EXPECT_EQ(it.Next().node, 2u);
}

TEST(ExpansionIteratorTest, ReverseDirectionOnly) {
  // Reverse traversal from source s visits nodes with a *forward* path
  // to s.
  Graph g(2);
  g.AddEdge(0, 1, 1.0);
  FrozenGraph fg(g);
  ExpansionIterator from1(fg, 1);
  size_t visits1 = 0;
  while (from1.HasNext()) {
    from1.Next();
    ++visits1;
  }
  EXPECT_EQ(visits1, 2u);  // 1 itself and 0 (0 -> 1 exists)

  ExpansionIterator from0(fg, 0);
  size_t visits0 = 0;
  while (from0.HasNext()) {
    from0.Next();
    ++visits0;
  }
  EXPECT_EQ(visits0, 1u);  // nothing points into 0
}

TEST(ExpansionIteratorTest, ForwardDirectionFollowsOutEdges) {
  // Forward expansion from 0 over the path graph reaches every node, in
  // increasing source->node distance.
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 0, ExpandDirection::kForward);
  std::vector<std::pair<NodeId, double>> visits;
  while (it.HasNext()) {
    auto v = it.Next();
    visits.emplace_back(v.node, v.distance);
  }
  ASSERT_EQ(visits.size(), 4u);
  EXPECT_EQ(visits[3].first, 3u);
  EXPECT_DOUBLE_EQ(visits[3].second, 3.0);
  // Parent chain of node 3 runs back to the source; reversed it is the
  // forward path 0 -> 1 -> 2 -> 3.
  auto chain = it.PathToSource(3);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front(), 3u);
  EXPECT_EQ(chain.back(), 0u);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(chain[i + 1], chain[i]));
  }
}

TEST(ExpansionIteratorTest, ForwardDirectionStopsAtSinks) {
  Graph g(2);
  g.AddEdge(0, 1, 1.0);
  FrozenGraph fg(g);
  ExpansionIterator from1(fg, 1, ExpandDirection::kForward);
  size_t visits = 0;
  while (from1.HasNext()) {
    from1.Next();
    ++visits;
  }
  EXPECT_EQ(visits, 1u);  // 1 has no out-edges
}

TEST(ExpansionIteratorTest, MultiSourceNearestSourceWins) {
  // Reverse multi-source {0, 3} over 0 -> 1 -> 2 -> 3: both sources settle
  // at distance 0; interior nodes take their distance to the nearer source.
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, std::vector<NodeId>{0, 3},
                       ExpandDirection::kBackward);
  std::unordered_map<NodeId, double> dist;
  while (it.HasNext()) {
    auto v = it.Next();
    dist[v.node] = v.distance;
  }
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[3], 0.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.0);  // via source 3
  EXPECT_DOUBLE_EQ(dist[1], 2.0);  // via 2 -> 3
  // Parent chains terminate at one of the sources.
  auto path = it.PathToSource(1);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), 3u);
}

TEST(ExpansionIteratorTest, NumSettledTracks) {
  FrozenGraph g = PathGraph();
  ExpansionIterator it(g, 3);
  EXPECT_EQ(it.num_settled(), 0u);
  it.Next();
  it.Next();
  EXPECT_EQ(it.num_settled(), 2u);
}

}  // namespace
}  // namespace banks
