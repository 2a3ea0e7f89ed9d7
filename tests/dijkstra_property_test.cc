// Cross-validation of the shortest-path iterator against Floyd–Warshall on
// random graphs: every settled distance must equal the all-pairs answer,
// and the reconstructed paths must telescope to that distance. Beyond the
// single-source backward case: forward runs, multi-source runs, a start
// offset, a distance cap, a live-update overlay (checked against the
// graph it patches), and one graph large enough to grow the iterator's
// node table many times over, checked against a plain Dijkstra.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "core/expansion_iterator.h"
#include "graph_fixture.h"
#include "update/delta_graph.h"
#include "util/rng.h"

namespace banks {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Graph RandomGraph(uint64_t seed, size_t n, size_t extra) {
  Rng rng(seed);
  Graph g(n);
  for (NodeId u = 1; u < n; ++u) {
    NodeId v = static_cast<NodeId>(rng.Uniform(u));
    g.AddEdge(u, v, 1.0 + static_cast<double>(rng.Uniform(9)));
  }
  for (size_t e = 0; e < extra; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v) continue;
    g.AddEdge(u, v, 1.0 + static_cast<double>(rng.Uniform(9)));
  }
  return g;
}

// dist[u][v] = weight of the shortest *forward* path u -> v.
std::vector<std::vector<double>> FloydWarshall(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kInf));
  for (NodeId u = 0; u < n; ++u) {
    dist[u][u] = 0;
    for (const auto& e : g.OutEdges(u)) {
      dist[u][e.to] = std::min(dist[u][e.to], e.weight);
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      if (dist[i][k] == kInf) continue;
      for (NodeId j = 0; j < n; ++j) {
        if (dist[k][j] == kInf) continue;
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  return dist;
}

class DijkstraVsFloydTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraVsFloydTest, DistancesMatchAllPairs) {
  const uint64_t seed = GetParam();
  Graph g = RandomGraph(seed, 24, 30);
  auto apsp = FloydWarshall(g);

  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 4; ++trial) {
    NodeId source = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    FrozenGraph fg(g);
    ExpansionIterator it(fg, source);
    size_t settled = 0;
    double last = -1;
    while (it.HasNext()) {
      auto v = it.Next();
      ++settled;
      // Monotone non-decreasing output order.
      EXPECT_GE(v.distance, last);
      last = v.distance;
      // Reverse iterator distance == forward shortest path node -> source.
      EXPECT_DOUBLE_EQ(v.distance, apsp[v.node][source])
          << "node " << v.node << " source " << source;
      // Path telescopes: consecutive forward edges summing to the distance.
      auto path = it.PathToSource(v.node);
      ASSERT_FALSE(path.empty());
      double sum = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        double best = kInf;
        for (const auto& e : g.OutEdges(path[i])) {
          if (e.to == path[i + 1]) best = std::min(best, e.weight);
        }
        ASSERT_NE(best, kInf) << "path uses a non-edge";
        sum += best;
      }
      EXPECT_LE(sum, v.distance + 1e-9);  // path at least as good
    }
    // Exactly the nodes with finite forward distance to source settle.
    size_t reachable = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      reachable += (apsp[u][source] < kInf);
    }
    EXPECT_EQ(settled, reachable);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsFloydTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ------------------------------------------------- the other run shapes

/// One iterator configuration. A single source runs the single-source
/// constructor (with `initial`); several run the multi-source one.
struct RunSpec {
  ExpandDirection direction = ExpandDirection::kBackward;
  std::vector<NodeId> sources;
  double initial = 0.0;
  double cap = ExpansionIterator::kNoCap;
};

ExpansionIterator MakeIterator(const FrozenGraph& fg, const RunSpec& spec,
                               const DeltaGraph* delta) {
  if (spec.sources.size() == 1) {
    return ExpansionIterator(fg, spec.sources[0], spec.direction, spec.cap,
                             spec.initial, delta);
  }
  return ExpansionIterator(fg, spec.sources, spec.direction, spec.cap,
                           delta);
}

/// Lightest edge a -> b of `g` (+inf if none).
double MinWeight(const Graph& g, NodeId a, NodeId b) {
  double best = kInf;
  for (const auto& e : g.OutEdges(a)) {
    if (e.to == b) best = std::min(best, e.weight);
  }
  return best;
}

/// Checks everything `it` reports against the final distances `expect`
/// (kInf = never settles) over the graph `g` it expands: settled nodes
/// carry their distance and a parent one shortest-path edge closer to a
/// source; unsettled ones (tentatively reached or not) report nothing.
void ExpectConsistent(const ExpansionIterator& it, const Graph& g,
                      const RunSpec& spec, const std::vector<double>& expect,
                      const std::vector<bool>& settled) {
  const bool forward = spec.direction == ExpandDirection::kForward;
  size_t num_settled = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!settled[u]) {
      EXPECT_EQ(it.DistanceTo(u), kInf) << "unsettled node " << u;
      EXPECT_EQ(it.ParentOf(u), kInvalidNode) << "unsettled node " << u;
      EXPECT_TRUE(it.PathToSource(u).empty()) << "unsettled node " << u;
      continue;
    }
    ++num_settled;
    ASSERT_DOUBLE_EQ(it.DistanceTo(u), expect[u]) << "node " << u;
    const bool source = std::find(spec.sources.begin(), spec.sources.end(),
                                  u) != spec.sources.end();
    const NodeId p = it.ParentOf(u);
    if (source) {
      EXPECT_EQ(p, kInvalidNode) << "source " << u;
    } else {
      ASSERT_NE(p, kInvalidNode) << "node " << u;
      ASSERT_TRUE(settled[p]) << "node " << u << " parent " << p;
      // The parent edge runs u -> p backward, p -> u forward.
      const double w = forward ? MinWeight(g, p, u) : MinWeight(g, u, p);
      ASSERT_NE(w, kInf) << "parent edge " << u << "/" << p << " missing";
      EXPECT_DOUBLE_EQ(expect[u], expect[p] + w) << "node " << u;
    }
    const std::vector<NodeId> path = it.PathToSource(u);
    ASSERT_FALSE(path.empty()) << "node " << u;
    EXPECT_EQ(path.front(), u);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_EQ(it.ParentOf(path[i]), path[i + 1]);
    }
    EXPECT_EQ(it.ParentOf(path.back()), kInvalidNode);
    EXPECT_NE(std::find(spec.sources.begin(), spec.sources.end(),
                        path.back()),
              spec.sources.end())
        << "path from " << u << " ends off the sources";
  }
  EXPECT_EQ(it.num_settled(), num_settled);
}

/// Drains `it`, checking the visit order against `expect` as it goes and
/// every node's state halfway through and at the end.
void DrainAndCheck(ExpansionIterator& it, const Graph& g, const RunSpec& spec,
                   const std::vector<double>& expect) {
  size_t reachable = 0;
  for (double d : expect) reachable += d < kInf;
  std::vector<bool> settled(g.num_nodes(), false);
  size_t visits = 0;
  double last = -1;
  while (it.HasNext()) {
    const double peek = it.PeekDistance();
    const auto v = it.Next();
    ASSERT_LT(v.node, g.num_nodes());
    ASSERT_FALSE(settled[v.node]) << "node " << v.node << " output twice";
    EXPECT_EQ(v.distance, peek);
    EXPECT_GE(v.distance, last);
    last = v.distance;
    ASSERT_DOUBLE_EQ(v.distance, expect[v.node]) << "node " << v.node;
    settled[v.node] = true;
    if (++visits == reachable / 2) {
      ExpectConsistent(it, g, spec, expect, settled);
    }
  }
  EXPECT_EQ(visits, reachable);
  ExpectConsistent(it, g, spec, expect, settled);
}

/// Final distances of `spec` over `g` from its all-pairs distances:
/// nearest live source plus the start offset, kInf past the cap.
std::vector<double> ExpectedFromAllPairs(
    const std::vector<std::vector<double>>& apsp, const RunSpec& spec,
    const std::set<NodeId>& dead) {
  const bool forward = spec.direction == ExpandDirection::kForward;
  std::vector<double> expect(apsp.size(), kInf);
  for (NodeId u = 0; u < apsp.size(); ++u) {
    for (NodeId s : spec.sources) {
      if (dead.count(s) || dead.count(u)) continue;
      const double d = spec.initial + (forward ? apsp[s][u] : apsp[u][s]);
      expect[u] = std::min(expect[u], d);
    }
    if (expect[u] > spec.cap) expect[u] = kInf;
  }
  return expect;
}

/// The specs run on every small graph: both directions, one source with
/// and without an offset and a cap, and three sources at once.
std::vector<RunSpec> SmallSpecs(Rng* rng, size_t n) {
  std::vector<RunSpec> specs;
  for (ExpandDirection dir :
       {ExpandDirection::kBackward, ExpandDirection::kForward}) {
    const auto node = [&] { return static_cast<NodeId>(rng->Uniform(n)); };
    specs.push_back({dir, {node()}, 0.0, ExpansionIterator::kNoCap});
    specs.push_back({dir, {node()}, 2.25, ExpansionIterator::kNoCap});
    specs.push_back({dir, {node()}, 0.5, 9.5});
    specs.push_back({dir, {node(), node(), node()}, 0.0,
                     ExpansionIterator::kNoCap});
    specs.push_back({dir, {node(), node(), node()}, 0.0, 6.0});
  }
  return specs;
}

class IteratorShapesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IteratorShapesTest, FrozenRunsMatchAllPairs) {
  const uint64_t seed = GetParam();
  Graph g = RandomGraph(seed, 24, 30);
  const FrozenGraph fg(g);
  const auto apsp = FloydWarshall(g);
  Rng rng(seed * 131 + 3);
  for (const RunSpec& spec : SmallSpecs(&rng, g.num_nodes())) {
    SCOPED_TRACE(::testing::Message()
                 << "forward=" << (spec.direction == ExpandDirection::kForward)
                 << " sources=" << spec.sources.size()
                 << " initial=" << spec.initial << " cap=" << spec.cap);
    ExpansionIterator it = MakeIterator(fg, spec, nullptr);
    DrainAndCheck(it, g, spec, ExpectedFromAllPairs(apsp, spec, {}));
  }
}

// A base graph, an overlay of added nodes, added edges, edge tombstones
// (one then revived by re-adding it) and node tombstones, and the patched
// graph the overlay presents to expansion.
TEST_P(IteratorShapesTest, OverlayRunsMatchPatchedAllPairs) {
  const uint64_t seed = GetParam();
  Graph base = RandomGraph(seed, 24, 30);
  const size_t n = base.num_nodes();
  auto dg = std::make_shared<DataGraph>();
  dg->graph = FrozenGraph(base);
  for (NodeId u = 0; u < n; ++u) dg->node_rid.push_back(Rid{0, u});
  DeltaGraph delta(dg);

  struct RefEdge {
    NodeId u, v;
    double w;
    bool base;
  };
  std::vector<RefEdge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& e : base.OutEdges(u)) {
      edges.push_back({u, e.to, e.weight, true});
    }
  }
  std::set<std::pair<NodeId, NodeId>> dead_edges;
  std::set<NodeId> dead_nodes;
  auto add_edge = [&](NodeId u, NodeId v, double w) {
    delta.AddEdge(u, v, w);
    edges.push_back({u, v, w, false});
    dead_edges.erase({u, v});
  };
  auto kill_edge = [&](NodeId u, NodeId v) {
    delta.KillEdge(u, v);
    dead_edges.insert({u, v});
    std::erase_if(edges, [&](const RefEdge& e) {
      return !e.base && e.u == u && e.v == v;
    });
  };

  Rng rng(seed * 977 + 5);
  for (uint32_t k = 0; k < 3; ++k) delta.AddNode(Rid{1, k}, 1.0);
  const size_t total = delta.TotalNodes();
  for (int k = 0; k < 12; ++k) {
    const auto u = static_cast<NodeId>(rng.Uniform(total));
    const auto v = static_cast<NodeId>(rng.Uniform(total));
    if (u != v) add_edge(u, v, 1.0 + static_cast<double>(rng.Uniform(9)));
  }
  std::vector<std::pair<NodeId, NodeId>> killed;
  for (int k = 0; k < 5; ++k) {
    const RefEdge& e = edges[rng.Uniform(edges.size())];
    killed.emplace_back(e.u, e.v);
    kill_edge(e.u, e.v);
  }
  add_edge(killed[0].first, killed[0].second, 4.0);  // revives the pair
  for (int k = 0; k < 2; ++k) {
    const auto dead = static_cast<NodeId>(rng.Uniform(total));
    delta.KillNode(dead);
    dead_nodes.insert(dead);
  }

  Graph patched(total);
  for (const RefEdge& e : edges) {
    if (e.base && dead_edges.count({e.u, e.v})) continue;
    if (dead_nodes.count(e.u) || dead_nodes.count(e.v)) continue;
    patched.AddEdge(e.u, e.v, e.w);
  }
  const auto apsp = FloydWarshall(patched);
  for (const RunSpec& spec : SmallSpecs(&rng, total)) {
    SCOPED_TRACE(::testing::Message()
                 << "forward=" << (spec.direction == ExpandDirection::kForward)
                 << " sources=" << spec.sources.size()
                 << " initial=" << spec.initial << " cap=" << spec.cap);
    ExpansionIterator it = MakeIterator(dg->graph, spec, &delta);
    DrainAndCheck(it, patched, spec,
                  ExpectedFromAllPairs(apsp, spec, dead_nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratorShapesTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

/// Textbook Dijkstra over dense arrays: distance of every node from
/// `source` along out-edges (forward) or in-edges (backward).
std::vector<double> ReferenceDijkstra(const Graph& g, NodeId source,
                                      bool forward) {
  std::vector<double> dist(g.num_nodes(), kInf);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const auto& e : forward ? g.OutEdges(u) : g.InEdges(u)) {
      if (d + e.weight < dist[e.to]) {
        dist[e.to] = d + e.weight;
        heap.push({dist[e.to], e.to});
      }
    }
  }
  return dist;
}

TEST(IteratorLargeGraphTest, MatchesReferenceDijkstra) {
  Graph g = RandomGraph(2024, 3'000, 6'000);
  const FrozenGraph fg(g);
  Rng rng(99);
  for (ExpandDirection dir :
       {ExpandDirection::kBackward, ExpandDirection::kForward}) {
    const RunSpec spec{dir, {static_cast<NodeId>(rng.Uniform(3'000))}, 0.0,
                       ExpansionIterator::kNoCap};
    SCOPED_TRACE(dir == ExpandDirection::kForward ? "forward" : "backward");
    ExpansionIterator it = MakeIterator(fg, spec, nullptr);
    DrainAndCheck(it, g, spec,
                  ReferenceDijkstra(g, spec.sources[0],
                                    dir == ExpandDirection::kForward));
  }
}

}  // namespace
}  // namespace banks
