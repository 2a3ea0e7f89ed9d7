// Property-based suites (parameterized gtest): invariants that must hold
// across random graphs, seeds, and every scoring configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/backward_search.h"
#include "core/steiner_baseline.h"
#include "datagen/dblp_gen.h"
#include "graph_fixture.h"
#include "util/rng.h"

namespace banks {
namespace {

DataGraph RandomDataGraph(uint64_t seed, size_t n, size_t extra_edges) {
  Rng rng(seed);
  Graph g(n);
  for (NodeId u = 1; u < n; ++u) {
    NodeId v = static_cast<NodeId>(rng.Uniform(u));
    double w = 1.0 + static_cast<double>(rng.Uniform(5));
    g.AddEdge(u, v, w);
    g.AddEdge(v, u, w + static_cast<double>(rng.Uniform(3)));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v) continue;
    double w = 1.0 + static_cast<double>(rng.Uniform(5));
    g.AddEdge(u, v, w);
  }
  // Random prestige.
  for (NodeId i = 0; i < n; ++i) {
    g.set_node_weight(i, static_cast<double>(rng.Uniform(20)));
  }
  DataGraph dg;
  for (NodeId i = 0; i < n; ++i) {
    Rid rid{0, i};
    dg.node_rid.push_back(rid);
    dg.rid_node.emplace(rid.Pack(), i);
  }
  dg.graph = FrozenGraph(g);
  return dg;
}

std::vector<std::vector<NodeId>> RandomTerms(uint64_t seed, size_t n_nodes,
                                             size_t n_terms,
                                             size_t per_term) {
  Rng rng(seed * 7919 + 13);
  std::vector<std::vector<NodeId>> terms(n_terms);
  for (auto& set : terms) {
    std::set<NodeId> uniq;
    while (uniq.size() < per_term) {
      uniq.insert(static_cast<NodeId>(rng.Uniform(n_nodes)));
    }
    set.assign(uniq.begin(), uniq.end());
  }
  return terms;
}

// ---------------------------------------------------------------------------
// Property 1: every answer of backward search is a valid rooted tree that
// covers every term, has relevance in [0,1], no duplicate signatures, and
// never a single-child root. Swept over random seeds.
class SearchInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchInvariantsTest, AnswersWellFormed) {
  const uint64_t seed = GetParam();
  DataGraph dg = RandomDataGraph(seed, 40, 30);
  auto terms = RandomTerms(seed, 40, 2 + seed % 3, 2);
  SearchOptions options;
  options.max_answers = 25;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run(terms);

  std::set<std::string> sigs;
  for (const auto& t : answers) {
    EXPECT_TRUE(t.IsValidTree());
    if (t.RootChildCount() == 1) {
      // Single-child roots are only kept when the root itself satisfies
      // a search term.
      bool root_is_leaf = std::find(t.leaf_for_term.begin(),
                                    t.leaf_for_term.end(),
                                    t.root) != t.leaf_for_term.end();
      EXPECT_TRUE(root_is_leaf);
    }
    EXPECT_GE(t.relevance, 0.0);
    EXPECT_LE(t.relevance, 1.0);
    EXPECT_TRUE(sigs.insert(t.UndirectedSignature()).second);
    ASSERT_EQ(t.leaf_for_term.size(), terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      EXPECT_TRUE(std::find(terms[i].begin(), terms[i].end(),
                            t.leaf_for_term[i]) != terms[i].end())
          << "leaf for term " << i << " not in its keyword set";
    }
    // Tree weight equals the sum of its edge weights, each matching some
    // graph edge (parallel edges are allowed in random graphs, so check
    // membership rather than the first-match weight).
    double sum = 0;
    for (const auto& e : t.edges) {
      bool found = false;
      for (const auto& ge : dg.graph.OutEdges(e.from)) {
        if (ge.to == e.to && std::abs(ge.weight - e.weight) < 1e-9) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "tree edge not in graph";
      sum += e.weight;
    }
    EXPECT_NEAR(sum, t.tree_weight, 1e-9);
  }
}

TEST_P(SearchInvariantsTest, DeterministicAcrossRuns) {
  const uint64_t seed = GetParam();
  DataGraph dg = RandomDataGraph(seed, 30, 20);
  auto terms = RandomTerms(seed, 30, 2, 2);
  SearchOptions options;
  options.max_answers = 15;
  BackwardSearch a(dg, options), b(dg, options);
  auto ra = a.Run(terms), rb = b.Run(terms);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].UndirectedSignature(), rb[i].UndirectedSignature());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchInvariantsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// ---------------------------------------------------------------------------
// Property 2: for every scoring configuration, relevance stays in [0,1] and
// the emitted stream is one of the generated trees (sanity across all 8
// parameter combinations of §2.3).
//
// ctest names each case after its printed parameter. gtest's default printer
// dumps the raw struct bytes, including the uninitialized padding after the
// three bools, so some names changed with every process start. Each case now
// carries a fixed name: the one it has always been listed under, so test
// lists stay comparable across builds.
struct ScoringCase {
  bool edge_log;
  bool node_log;
  bool multiplicative;
  double lambda;
  const char* name;
};

void PrintTo(const ScoringCase& c, std::ostream* os) { *os << c.name; }

class ScoringSweepTest : public ::testing::TestWithParam<ScoringCase> {};

TEST_P(ScoringSweepTest, RelevanceBoundedAndOrdered) {
  ScoringCase c = GetParam();
  DataGraph dg = RandomDataGraph(99, 35, 25);
  auto terms = RandomTerms(99, 35, 2, 3);
  SearchOptions options;
  options.max_answers = 20;
  options.scoring =
      ScoringParams{c.edge_log, c.node_log, c.multiplicative, c.lambda};
  options.exhaustive = true;  // exact relevance order expected
  BackwardSearch bs(dg, options);
  auto answers = bs.Run(terms);
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_GE(answers[i].relevance, 0.0);
    EXPECT_LE(answers[i].relevance, 1.0);
    if (i > 0) {
      EXPECT_GE(answers[i - 1].relevance, answers[i].relevance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ScoringSweepTest,
    ::testing::Values(
        ScoringCase{false, false, false, 0.2,
                    "16-byte object <00-00 00-D8 7C-55 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{false, false, true, 0.2,
                    "16-byte object <00-00 01-D8 7C-55 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{false, true, false, 0.2,
                    "16-byte object <00-01 00-00 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{false, true, true, 0.2,
                    "16-byte object <00-01 01-D8 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{true, false, false, 0.2,
                    "16-byte object <01-00 00-00 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{true, false, true, 0.2,
                    "16-byte object <01-00 01-00 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{true, true, false, 0.2,
                    "16-byte object <01-01 00-00 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{true, true, true, 0.2,
                    "16-byte object <01-01 01-D8 00-00 00-00 9A-99 99-99 "
                    "99-99 C9-3F>"},
        ScoringCase{true, false, false, 0.0,
                    "16-byte object <01-00 00-00 00-00 00-00 00-00 00-00 "
                    "00-00 00-00>"},
        ScoringCase{true, false, false, 1.0,
                    "16-byte object <01-00 00-D8 00-00 00-00 00-00 00-00 "
                    "00-00 F0-3F>"}));

// ---------------------------------------------------------------------------
// Property 3: with pure proximity scoring (lambda = 0, linear edges), the
// best answer of an exhaustive backward search has the exact minimum tree
// weight (matches the Steiner DP) on small graphs.
class OptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalityTest, ExhaustiveBestMatchesSteinerOptimum) {
  const uint64_t seed = GetParam();
  DataGraph dg = RandomDataGraph(seed, 12, 8);
  auto terms = RandomTerms(seed, 12, 2, 1);
  if (terms[0][0] == terms[1][0]) GTEST_SKIP();

  auto exact = ExactSteinerTree(dg.graph, terms);
  SearchOptions options;
  options.exhaustive = true;
  options.scoring.lambda = 0.0;
  options.scoring.edge_log = false;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run(terms);

  ASSERT_EQ(exact.found, !answers.empty());
  if (!exact.found) return;
  double best = answers[0].tree_weight;
  for (const auto& t : answers) best = std::min(best, t.tree_weight);
  EXPECT_NEAR(best, exact.weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110, 111, 112));

// ---------------------------------------------------------------------------
// Property 4: dataset generators produce referentially-sound databases for
// a sweep of sizes and seeds.
struct GenCase {
  uint64_t seed;
  size_t authors;
  size_t papers;
};

class DblpSweepTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(DblpSweepTest, ReferentialIntegrityAndDeterminism) {
  GenCase c = GetParam();
  DblpConfig config;
  config.seed = c.seed;
  config.num_authors = c.authors;
  config.num_papers = c.papers;
  DblpDataset ds = GenerateDblp(config);
  EXPECT_EQ(ds.db.table(kAuthorTable)->num_rows(), c.authors);
  for (const auto& fk : ds.db.foreign_keys()) {
    const Table* from = ds.db.table(fk.table);
    for (uint32_t r = 0; r < from->num_rows(); ++r) {
      ASSERT_TRUE(ds.db.ResolveFk(fk, Rid{from->id(), r}).has_value());
    }
  }
  DblpDataset again = GenerateDblp(config);
  EXPECT_EQ(again.db.TotalRows(), ds.db.TotalRows());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DblpSweepTest,
                         ::testing::Values(GenCase{1, 30, 50},
                                           GenCase{2, 60, 100},
                                           GenCase{3, 120, 200},
                                           GenCase{4, 40, 400}));

// ---------------------------------------------------------------------------
// Property 5: the §2.3 guarantee that answers contain at least one node
// from every keyword set even when sets overlap heavily.
class OverlapTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlapTest, OverlappingKeywordSets) {
  const uint64_t seed = GetParam();
  DataGraph dg = RandomDataGraph(seed, 25, 20);
  Rng rng(seed);
  // Two keyword sets sharing some nodes.
  std::vector<NodeId> shared = {static_cast<NodeId>(rng.Uniform(25)),
                                static_cast<NodeId>(rng.Uniform(25))};
  std::vector<std::vector<NodeId>> terms = {shared, shared};
  SearchOptions options;
  options.max_answers = 10;
  BackwardSearch bs(dg, options);
  auto answers = bs.Run(terms);
  ASSERT_FALSE(answers.empty());  // single nodes satisfy both terms
  for (const auto& t : answers) {
    EXPECT_TRUE(t.IsValidTree());
  }
  // The best answers are the single shared nodes (tree weight 0).
  EXPECT_DOUBLE_EQ(answers[0].tree_weight, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapTest, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace banks
