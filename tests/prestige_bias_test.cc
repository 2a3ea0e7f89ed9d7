// §3 extension: including node weights of keyword matches in the distance
// measure (SearchOptions::keyword_prestige_bias).
#include <gtest/gtest.h>

#include <set>

#include "core/backward_search.h"
#include "graph_fixture.h"

namespace banks {
namespace {

DataGraph Wrap(Graph g) {
  DataGraph dg;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    Rid rid{0, n};
    dg.node_rid.push_back(rid);
    dg.rid_node.emplace(rid.Pack(), n);
  }
  dg.graph = FrozenGraph(g);
  return dg;
}

// Two matches for term A: node 0 (no prestige, lower id) and node 1
// (prestigious). Symmetric two-hop arms to the term-B node 4:
//   0 - 5 - 2 - 4   and   1 - 6 - 3 - 4
// The A-side iterators are the last to reach their junctions (2 resp. 3),
// so the iterator start offset decides which junction tree appears first.
DataGraph BiasGraph() {
  Graph g(7);
  auto both = [&g](NodeId u, NodeId v, double w) {
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w);
  };
  both(0, 5, 1.0);
  both(5, 2, 1.0);
  both(2, 4, 1.0);
  both(1, 6, 1.0);
  both(6, 3, 1.0);
  both(3, 4, 1.0);
  g.set_node_weight(1, 10.0);  // node 1 is the prestigious match
  return Wrap(std::move(g));
}

TEST(PrestigeBiasTest, UnbiasedTieBreaksOnNodeId) {
  DataGraph dg = BiasGraph();
  SearchOptions options;
  options.max_answers = 2;
  options.scoring.lambda = 0.0;  // equal relevance: emission order decides
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0, 1}, {4}});
  ASSERT_EQ(answers.size(), 2u);
  // Without bias, iterator 0 (lower id) generates its junction tree first.
  EXPECT_EQ(answers[0].leaf_for_term[0], 0u);
}

TEST(PrestigeBiasTest, BiasPrioritisesPrestigiousMatch) {
  DataGraph dg = BiasGraph();
  SearchOptions options;
  options.max_answers = 2;
  options.scoring.lambda = 0.0;
  options.keyword_prestige_bias = 1.5;  // node 0 starts at 1.5, node 1 at 0
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0, 1}, {4}});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].leaf_for_term[0], 1u);
}

TEST(PrestigeBiasTest, TreeWeightsUnaffectedByBias) {
  DataGraph dg = BiasGraph();
  SearchOptions plain, biased;
  plain.scoring.lambda = 0.0;
  biased.scoring.lambda = 0.0;
  biased.keyword_prestige_bias = 1.5;
  BackwardSearch a(dg, plain), b(dg, biased);
  auto ra = a.Run({{0, 1}, {4}});
  auto rb = b.Run({{0, 1}, {4}});
  ASSERT_EQ(ra.size(), rb.size());
  // Same answer set (as signatures) with identical tree weights; only the
  // generation order changed.
  std::multiset<double> wa, wb;
  std::set<std::string> sa, sb;
  for (const auto& t : ra) {
    wa.insert(t.tree_weight);
    sa.insert(t.UndirectedSignature());
  }
  for (const auto& t : rb) {
    wb.insert(t.tree_weight);
    sb.insert(t.UndirectedSignature());
  }
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(sa, sb);
}

TEST(PrestigeBiasTest, ZeroPrestigeGraphUnchanged) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  DataGraph dg = Wrap(std::move(g));
  SearchOptions options;
  options.keyword_prestige_bias = 2.0;  // no-op: max node weight is 0
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{1}, {2}});
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers[0].root, 0u);
}

}  // namespace
}  // namespace banks
