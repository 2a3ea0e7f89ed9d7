#include "core/forward_search.h"

#include <gtest/gtest.h>

#include "core/backward_search.h"
#include "graph_fixture.h"

namespace banks {
namespace {

DataGraph Wrap(Graph g, std::vector<uint32_t> table_of = {}) {
  DataGraph dg;
  table_of.resize(g.num_nodes(), 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    Rid rid{table_of[n], n};
    dg.node_rid.push_back(rid);
    dg.rid_node.emplace(rid.Pack(), n);
  }
  dg.graph = FrozenGraph(g);
  return dg;
}

DataGraph TwoJunctionGraph() {
  Graph g(4);
  auto both = [&g](NodeId u, NodeId v, double w) {
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w);
  };
  both(2, 0, 1.0);
  both(2, 1, 1.0);
  both(3, 0, 5.0);
  both(3, 1, 5.0);
  return Wrap(std::move(g));
}

TEST(ForwardSearchTest, FindsJunctionTree) {
  DataGraph dg = TwoJunctionGraph();
  ForwardSearch fs(dg, ForwardSearchOptions{});
  auto answers = fs.Run({{0}, {1}});
  ASSERT_FALSE(answers.empty());
  // The best answer connects 0 and 1 through the cheap junction 2 — the
  // undirected structure {0-2, 1-2} — whatever its root.
  ConnectionTree expected;
  expected.root = 2;
  expected.edges = {{2, 0, 1.0}, {2, 1, 1.0}};
  EXPECT_EQ(answers[0].UndirectedSignature(),
            expected.UndirectedSignature());
  EXPECT_EQ(answers[0].edges.size(), 2u);
  EXPECT_TRUE(answers[0].IsValidTree());
}

TEST(ForwardSearchTest, AgreesWithBackwardOnTopAnswer) {
  DataGraph dg = TwoJunctionGraph();
  ForwardSearch fs(dg, ForwardSearchOptions{});
  BackwardSearch bs(dg, SearchOptions{});
  auto fwd = fs.Run({{0}, {1}});
  auto bwd = bs.Run({{0}, {1}});
  ASSERT_FALSE(fwd.empty());
  ASSERT_FALSE(bwd.empty());
  EXPECT_EQ(fwd[0].UndirectedSignature(), bwd[0].UndirectedSignature());
}

TEST(ForwardSearchTest, SingleTerm) {
  DataGraph dg = TwoJunctionGraph();
  ForwardSearch fs(dg, ForwardSearchOptions{});
  auto answers = fs.Run({{0, 1}});
  ASSERT_EQ(answers.size(), 2u);
  for (const auto& t : answers) EXPECT_TRUE(t.edges.empty());
}

TEST(ForwardSearchTest, PivotIsMostSelectiveTerm) {
  // Term 2 matches one node; term 1 matches many. The search must still
  // produce the junction answer regardless of which set is the pivot.
  DataGraph dg = TwoJunctionGraph();
  ForwardSearch fs(dg, ForwardSearchOptions{});
  auto answers = fs.Run({{0, 3}, {1}});
  ASSERT_FALSE(answers.empty());
  EXPECT_TRUE(answers[0].IsValidTree());
  EXPECT_GT(fs.stats().roots_tried, 0u);
}

TEST(ForwardSearchTest, ExcludedRootTables) {
  Graph g(4);
  auto both = [&g](NodeId u, NodeId v, double w) {
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w);
  };
  both(2, 0, 1.0);
  both(2, 1, 1.0);
  both(3, 0, 5.0);
  both(3, 1, 5.0);
  DataGraph dg = Wrap(std::move(g), {0, 0, 7, 0});
  ForwardSearchOptions options;
  options.excluded_root_tables = {7};  // junction 2 is in table 7
  ForwardSearch fs(dg, options);
  auto answers = fs.Run({{0}, {1}});
  ASSERT_FALSE(answers.empty());
  for (const auto& t : answers) {
    EXPECT_NE(dg.RidForNode(t.root).table_id, 7u);
  }
}

TEST(ForwardSearchTest, UnreachableTermsNoAnswers) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 0, 1.0);
  DataGraph dg = Wrap(std::move(g));
  ForwardSearch fs(dg, ForwardSearchOptions{});
  EXPECT_TRUE(fs.Run({{0}, {2}}).empty());
  EXPECT_TRUE(fs.Run({{0}, {}}).empty());
}

TEST(ForwardSearchTest, ResultsSortedByRelevance) {
  DataGraph dg = TwoJunctionGraph();
  ForwardSearch fs(dg, ForwardSearchOptions{});
  auto answers = fs.Run({{0}, {1}});
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].relevance, answers[i].relevance);
  }
}

}  // namespace
}  // namespace banks
