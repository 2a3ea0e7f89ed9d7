#include "core/bidirectional_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/backward_search.h"
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

// Metadata-style workload: node 1 is the single selective match; nodes
// 2..2+n-1 all match the low-selectivity term; node 0 is the junction with
// forward edges to everything (plus reverse edges so backward iterators
// can climb into it).
DataGraph MetadataStarGraph(size_t n_meta) {
  Graph g(2 + n_meta);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 0, 2.0);
  for (NodeId m = 2; m < 2 + n_meta; ++m) {
    g.AddEdge(0, m, 1.0);
    g.AddEdge(m, 0, 2.0);
  }
  return Wrap(std::move(g));
}

std::vector<std::vector<NodeId>> MetadataQuery(size_t n_meta) {
  std::vector<NodeId> meta;
  for (NodeId m = 2; m < 2 + n_meta; ++m) meta.push_back(m);
  return {{1}, meta};
}

std::multiset<std::string> Signatures(const std::vector<ConnectionTree>& ts) {
  std::multiset<std::string> sigs;
  for (const auto& t : ts) sigs.insert(t.UndirectedSignature());
  return sigs;
}

TEST(BidirectionalSearchTest, ForwardTermMaskClassifiesBySetSize) {
  std::vector<std::vector<NodeId>> sets = {{1}, {2, 3, 4}, {5, 6}};
  EXPECT_EQ(BidirectionalSearch::ForwardTermMask(sets, 2), uint64_t{2});
  EXPECT_EQ(BidirectionalSearch::ForwardTermMask(sets, 1), uint64_t{6});
  EXPECT_EQ(BidirectionalSearch::ForwardTermMask(sets, 10), uint64_t{0});
}

TEST(BidirectionalSearchTest, MostSelectiveTermAlwaysStaysBackward) {
  // Every term over the threshold: the smallest set must still expand
  // backward so candidate roots can be discovered.
  std::vector<std::vector<NodeId>> sets = {{1, 2, 3}, {4, 5}};
  uint64_t mask = BidirectionalSearch::ForwardTermMask(sets, 1);
  EXPECT_EQ(mask, uint64_t{1});  // term 1 (smaller) stays backward
}

TEST(BidirectionalSearchTest, DegeneratesToBackwardBelowThreshold) {
  DataGraph dg = MetadataStarGraph(4);
  auto query = MetadataQuery(4);

  SearchOptions options;
  options.frontier_size_threshold = 256;  // nothing classified forward
  BidirectionalSearch bidi(dg, options);
  BackwardSearch bwd(dg, options);
  auto a = bidi.Run(query);
  auto b = bwd.Run(query);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].UndirectedSignature(), b[i].UndirectedSignature());
    EXPECT_EQ(a[i].root, b[i].root);
  }
  EXPECT_EQ(bidi.stats().iterator_visits, bwd.stats().iterator_visits);
  EXPECT_EQ(bidi.stats().probes_spawned, 0u);
}

TEST(BidirectionalSearchTest, ProbesCoverLowSelectivityTerm) {
  const size_t n_meta = 12;
  DataGraph dg = MetadataStarGraph(n_meta);
  auto query = MetadataQuery(n_meta);

  SearchOptions options;
  options.max_answers = n_meta;  // room for every junction tree
  options.frontier_size_threshold = 4;
  BidirectionalSearch bidi(dg, options);
  auto answers = bidi.Run(query);

  EXPECT_GT(bidi.stats().probes_spawned, 0u);
  ASSERT_FALSE(answers.empty());
  for (const auto& t : answers) {
    EXPECT_TRUE(t.IsValidTree());
    ASSERT_EQ(t.leaf_for_term.size(), 2u);
    EXPECT_EQ(t.leaf_for_term[0], 1u);
    EXPECT_GE(t.leaf_for_term[1], 2u);  // a metadata node
  }
}

TEST(BidirectionalSearchTest, ExhaustiveEnumeratesSameAnswerSpace) {
  const size_t n_meta = 12;
  DataGraph dg = MetadataStarGraph(n_meta);
  auto query = MetadataQuery(n_meta);

  SearchOptions options;
  options.exhaustive = true;
  BackwardSearch bwd(dg, options);
  auto b = bwd.Run(query);

  options.frontier_size_threshold = 4;
  BidirectionalSearch bidi(dg, options);
  auto a = bidi.Run(query);

  EXPECT_EQ(Signatures(a), Signatures(b));
  EXPECT_LT(bidi.stats().num_iterators, bwd.stats().num_iterators);
}

TEST(BidirectionalSearchTest, FewerVisitsOnMetadataHeavyTopK) {
  // 40 metadata matches, top-10 answers: backward pays one iterator per
  // metadata node; bidirectional pays one probe per candidate root reached
  // before termination.
  const size_t n_meta = 40;
  DataGraph dg = MetadataStarGraph(n_meta);
  auto query = MetadataQuery(n_meta);

  SearchOptions options;  // max_answers = 10
  BackwardSearch bwd(dg, options);
  auto b = bwd.Run(query);

  options.frontier_size_threshold = 8;
  BidirectionalSearch bidi(dg, options);
  auto a = bidi.Run(query);

  EXPECT_EQ(a.size(), b.size());
  EXPECT_LT(bidi.stats().iterator_visits, bwd.stats().iterator_visits);
  EXPECT_LT(bidi.stats().num_iterators, bwd.stats().num_iterators);
}

TEST(BidirectionalSearchTest, ExcludedRootTablesRespected) {
  const size_t n_meta = 6;
  Graph g(2 + n_meta);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 0, 2.0);
  for (NodeId m = 2; m < 2 + n_meta; ++m) {
    g.AddEdge(0, m, 1.0);
    g.AddEdge(m, 0, 2.0);
  }
  // The junction 0 lives in table 7, which is excluded.
  std::vector<uint32_t> tables(2 + n_meta, 0);
  tables[0] = 7;
  DataGraph dg = Wrap(std::move(g), tables);

  SearchOptions options;
  options.frontier_size_threshold = 2;
  options.excluded_root_tables = {7};
  BidirectionalSearch bidi(dg, options);
  auto answers = bidi.Run(MetadataQuery(n_meta));
  for (const auto& t : answers) {
    EXPECT_NE(dg.RidForNode(t.root).table_id, 7u);
  }
}

TEST(BidirectionalSearchTest, SingleTermRespectsExcludedRootTables) {
  // §2.1: a single-node answer is still an information node, so exclusions
  // apply to the single-term fast path too (all strategies share it).
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.0);
  DataGraph dg = Wrap(std::move(g), {0, 7, 0});
  SearchOptions options;
  options.excluded_root_tables = {7};
  for (SearchStrategy s :
       {SearchStrategy::kBackward, SearchStrategy::kForward,
        SearchStrategy::kBidirectional}) {
    options.strategy = s;
    auto search = CreateExpansionSearch(dg, options);
    auto answers = search->Run({{1, 2}});
    ASSERT_EQ(answers.size(), 1u) << SearchStrategyName(s);
    EXPECT_EQ(answers[0].root, 2u) << SearchStrategyName(s);
  }
}

TEST(BidirectionalSearchTest, RunsThroughFactory) {
  DataGraph dg = MetadataStarGraph(8);
  SearchOptions options;
  options.strategy = SearchStrategy::kBidirectional;
  options.frontier_size_threshold = 4;
  auto search = CreateExpansionSearch(dg, options);
  auto answers = search->Run(MetadataQuery(8));
  ASSERT_FALSE(answers.empty());
  EXPECT_GT(search->stats().probes_spawned, 0u);
}

TEST(ExpansionSearchBaseTest, ReusedSearcherDoesNotReplayHeldTrees) {
  // A run that stops at max_answers leaves undrained trees in the output
  // heap; a second Run() on the same searcher must not emit them.
  Graph g(6);
  for (NodeId leaf : {1, 2, 3, 4, 5}) {
    g.AddEdge(0, leaf, 1.0);
    g.AddEdge(leaf, 0, 1.0);
  }
  DataGraph dg = Wrap(std::move(g));
  SearchOptions options;
  options.max_answers = 1;
  options.output_heap_size = 2;
  BackwardSearch bs(dg, options);
  auto first = bs.Run({{1, 3}, {2, 4}});
  ASSERT_EQ(first.size(), 1u);
  auto second = bs.Run({{5}, {2}});
  ASSERT_FALSE(second.empty());
  for (const auto& t : second) {
    EXPECT_EQ(t.leaf_for_term[0], 5u);
    EXPECT_EQ(t.leaf_for_term[1], 2u);
  }
}

TEST(StrategyNameTest, RoundTrips) {
  for (SearchStrategy s :
       {SearchStrategy::kBackward, SearchStrategy::kForward,
        SearchStrategy::kBidirectional}) {
    SearchStrategy parsed;
    ASSERT_TRUE(ParseSearchStrategy(SearchStrategyName(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  SearchStrategy parsed;
  EXPECT_TRUE(ParseSearchStrategy("bidi", &parsed));
  EXPECT_EQ(parsed, SearchStrategy::kBidirectional);
  EXPECT_FALSE(ParseSearchStrategy("sideways", &parsed));
}

TEST(StrategyNameTest, ParseIsCaseInsensitive) {
  SearchStrategy parsed;
  EXPECT_TRUE(ParseSearchStrategy("BACKWARD", &parsed));
  EXPECT_EQ(parsed, SearchStrategy::kBackward);
  EXPECT_TRUE(ParseSearchStrategy("Forward", &parsed));
  EXPECT_EQ(parsed, SearchStrategy::kForward);
  EXPECT_TRUE(ParseSearchStrategy("BiDi", &parsed));
  EXPECT_EQ(parsed, SearchStrategy::kBidirectional);
  EXPECT_TRUE(ParseSearchStrategy("Bidirectional", &parsed));
  EXPECT_EQ(parsed, SearchStrategy::kBidirectional);
  EXPECT_FALSE(ParseSearchStrategy("", &parsed));
  // The error-message helper names every accepted spelling.
  std::string names = SearchStrategyNames();
  EXPECT_NE(names.find("backward"), std::string::npos);
  EXPECT_NE(names.find("forward"), std::string::npos);
  EXPECT_NE(names.find("bidirectional"), std::string::npos);
  EXPECT_NE(names.find("bidi"), std::string::npos);
}

}  // namespace
}  // namespace banks
