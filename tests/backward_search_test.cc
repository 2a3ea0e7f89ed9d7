#include "core/backward_search.h"

#include <gtest/gtest.h>

#include "graph_fixture.h"

namespace banks {
namespace {

// Wraps a raw Graph in a DataGraph, assigning node i the Rid
// {table_of[i], i} (table defaults to 0).
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

// Star: root 0 with forward edges to 1 and 2, plus reverse edges so the
// iterators can also traverse "the other way".
DataGraph StarGraph() {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(1, 0, 2.0);
  g.AddEdge(2, 0, 2.0);
  return Wrap(std::move(g));
}

TEST(BackwardSearchTest, TwoKeywordsMeetAtJunction) {
  DataGraph dg = StarGraph();
  BackwardSearch bs(dg, SearchOptions{});
  auto answers = bs.Run({{1}, {2}});
  ASSERT_FALSE(answers.empty());
  const ConnectionTree& best = answers[0];
  EXPECT_EQ(best.root, 0u);
  EXPECT_EQ(best.edges.size(), 2u);
  EXPECT_TRUE(best.IsValidTree());
  ASSERT_EQ(best.leaf_for_term.size(), 2u);
  EXPECT_EQ(best.leaf_for_term[0], 1u);
  EXPECT_EQ(best.leaf_for_term[1], 2u);
  EXPECT_DOUBLE_EQ(best.tree_weight, 2.0);
}

TEST(BackwardSearchTest, SingleKeywordReturnsMatchingNodesOnly) {
  DataGraph dg = StarGraph();
  BackwardSearch bs(dg, SearchOptions{});
  auto answers = bs.Run({{1}});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].root, 1u);
  EXPECT_TRUE(answers[0].edges.empty());
}

TEST(BackwardSearchTest, SingleNodeSatisfyingAllTerms) {
  DataGraph dg = StarGraph();
  BackwardSearch bs(dg, SearchOptions{});
  auto answers = bs.Run({{1}, {1}});
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers[0].root, 1u);
  EXPECT_TRUE(answers[0].edges.empty());
  EXPECT_EQ(answers[0].leaf_for_term, (std::vector<NodeId>{1, 1}));
}

TEST(BackwardSearchTest, EmptyTermSetYieldsNoAnswers) {
  DataGraph dg = StarGraph();
  BackwardSearch bs(dg, SearchOptions{});
  EXPECT_TRUE(bs.Run({{1}, {}}).empty());
  EXPECT_TRUE(bs.Run({}).empty());
}

// Path a(0) - x(1) - y(2) - c(3), both directions, unit weights.
DataGraph PathGraph() {
  Graph g(4);
  auto both = [&g](NodeId u, NodeId v) {
    g.AddEdge(u, v, 1.0);
    g.AddEdge(v, u, 1.0);
  };
  both(0, 1);
  both(1, 2);
  both(2, 3);
  return Wrap(std::move(g));
}

TEST(BackwardSearchTest, DuplicatesModuloDirectionCollapsed) {
  // Keywords {a}, {c}: trees rooted at x and at y have identical undirected
  // structure {a-x, x-y, y-c}; only one may be returned.
  DataGraph dg = PathGraph();
  SearchOptions options;
  options.max_answers = 10;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0}, {3}});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].root == 1u || answers[0].root == 2u);
  EXPECT_GE(bs.stats().duplicates_discarded, 1u);
}

TEST(BackwardSearchTest, SpuriousJunctionRootPruned) {
  // Path a(0)-x(1)-y(2)-c(3) plus a pendant node d(4) attached to x. Trees
  // rooted at d reach both keywords through the single child x and must be
  // pruned; answers rooted at keyword leaves are allowed (they collapse
  // with interior rootings via the duplicate rule).
  Graph g(5);
  auto both = [&g](NodeId u, NodeId v) {
    g.AddEdge(u, v, 1.0);
    g.AddEdge(v, u, 1.0);
  };
  both(0, 1);
  both(1, 2);
  both(2, 3);
  both(4, 1);
  DataGraph dg = Wrap(std::move(g));
  SearchOptions options;
  options.max_answers = 20;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0}, {3}});
  for (const auto& t : answers) {
    EXPECT_TRUE(t.root != 4u) << "spurious junction survived";
    if (t.RootChildCount() == 1) {
      // Only keyword-leaf roots may have a single child.
      bool is_leaf = false;
      for (NodeId leaf : t.leaf_for_term) is_leaf |= (leaf == t.root);
      EXPECT_TRUE(is_leaf);
    }
  }
  EXPECT_GE(bs.stats().trees_pruned_root, 1u);
}

TEST(BackwardSearchTest, ExcludedRootTables) {
  // Node table ids: a,c in table 0; x in table 2; y in table 1.
  Graph g(4);
  auto both = [&g](NodeId u, NodeId v) {
    g.AddEdge(u, v, 1.0);
    g.AddEdge(v, u, 1.0);
  };
  both(0, 1);
  both(1, 2);
  both(2, 3);
  DataGraph dg = Wrap(std::move(g), {0, 2, 1, 0});
  SearchOptions options;
  options.excluded_root_tables = {2};
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0}, {3}});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].root, 2u);  // node y (table 1) is the only root left
}

TEST(BackwardSearchTest, MaxAnswersStopsEarly) {
  // Two parallel junctions between the keywords.
  Graph g(4);
  auto both = [&g](NodeId u, NodeId v, double w) {
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w);
  };
  // Junction 2 (cheap) and junction 3 (expensive) both connect 0 and 1.
  both(2, 0, 1.0);
  both(2, 1, 1.0);
  both(3, 0, 5.0);
  both(3, 1, 5.0);
  DataGraph dg = Wrap(std::move(g));

  SearchOptions one;
  one.max_answers = 1;
  BackwardSearch bs1(dg, one);
  auto a1 = bs1.Run({{0}, {1}});
  ASSERT_EQ(a1.size(), 1u);
  EXPECT_EQ(a1[0].root, 2u);  // the cheaper junction first

  SearchOptions two;
  two.max_answers = 10;
  BackwardSearch bs2(dg, two);
  auto a2 = bs2.Run({{0}, {1}});
  ASSERT_EQ(a2.size(), 2u);
  EXPECT_EQ(a2[0].root, 2u);
  EXPECT_EQ(a2[1].root, 3u);
}

TEST(BackwardSearchTest, TreeEdgeWeightsMatchGraph) {
  Graph g(3);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(0, 2, 2.5);
  DataGraph dg = Wrap(std::move(g));
  BackwardSearch bs(dg, SearchOptions{});
  auto answers = bs.Run({{1}, {2}});
  ASSERT_FALSE(answers.empty());
  EXPECT_DOUBLE_EQ(answers[0].tree_weight, 4.0);
  for (const auto& e : answers[0].edges) {
    EXPECT_DOUBLE_EQ(dg.graph.EdgeWeight(e.from, e.to), e.weight);
  }
}

TEST(BackwardSearchTest, Deterministic) {
  DataGraph dg = PathGraph();
  SearchOptions options;
  options.max_answers = 10;
  BackwardSearch a(dg, options), b(dg, options);
  auto ra = a.Run({{0}, {3}});
  auto rb = b.Run({{0}, {3}});
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].root, rb[i].root);
    EXPECT_EQ(ra[i].UndirectedSignature(), rb[i].UndirectedSignature());
    EXPECT_DOUBLE_EQ(ra[i].relevance, rb[i].relevance);
  }
}

TEST(BackwardSearchTest, ExhaustiveModeSortedByRelevance) {
  Graph g(6);
  auto both = [&g](NodeId u, NodeId v, double w) {
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w);
  };
  both(2, 0, 1.0);
  both(2, 1, 1.0);
  both(3, 0, 2.0);
  both(3, 1, 2.0);
  both(4, 0, 3.0);
  both(4, 1, 3.0);
  DataGraph dg = Wrap(std::move(g));
  SearchOptions options;
  options.exhaustive = true;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0}, {1}});
  ASSERT_GE(answers.size(), 3u);
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].relevance, answers[i].relevance);
  }
}

TEST(BackwardSearchTest, StatsPopulated) {
  DataGraph dg = StarGraph();
  BackwardSearch bs(dg, SearchOptions{});
  auto answers = bs.Run({{1}, {2}});
  ASSERT_FALSE(answers.empty());
  const SearchStats& st = bs.stats();
  EXPECT_EQ(st.num_iterators, 2u);
  EXPECT_GT(st.iterator_visits, 0u);
  EXPECT_GT(st.trees_generated, 0u);
  EXPECT_EQ(st.answers_emitted, answers.size());
}

TEST(BackwardSearchTest, DistanceCapBoundsSearch) {
  DataGraph dg = PathGraph();
  SearchOptions options;
  options.distance_cap = 0.5;  // iterators cannot leave their sources
  BackwardSearch bs(dg, options);
  auto answers = bs.Run({{0}, {3}});
  EXPECT_TRUE(answers.empty());
}

TEST(BackwardSearchTest, AnswersAreValidTrees) {
  DataGraph dg = PathGraph();
  SearchOptions options;
  options.max_answers = 50;
  BackwardSearch bs(dg, options);
  for (const auto& t : bs.Run({{0, 1}, {2, 3}})) {
    EXPECT_TRUE(t.IsValidTree());
    EXPECT_GE(t.relevance, 0.0);
    EXPECT_LE(t.relevance, 1.0);
  }
}

}  // namespace
}  // namespace banks
