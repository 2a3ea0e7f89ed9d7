// Pinned stage-B output across commits. The merge-vs-full oracles compare
// the splice with a full build of the same binary, so a change to the
// shared §2.2 fold or CSR emission passes them however it moves the graph.
// This test builds fixed databases under fixed option sets and compares a
// digest of each BuildDataGraph result with the value pinned below.
//
// A build's digest covers: the out and in CSR offsets, every edge's target
// and weight bits in both directions, the node-weight bits, node_rid, and
// the per-(node, relation) indegree counts (in_by_relation) the stage-B
// export hands the merge path. When a change is meant to alter the graph,
// the failure prints the whole table in this file's format: review the
// differences, then paste it over kPinned.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dblp_gen.h"
#include "eval/workload.h"
#include "graph/graph_builder.h"

namespace banks {
namespace {

struct Pinned {
  const char* key;  // "<database>/<options>"
  uint64_t digest;
};

constexpr Pinned kPinned[] = {
    {"dblp/paper", 0xb0274c2b69c6527full},
    {"dblp/eval", 0xebbf2efb6a42b253ull},
    {"dblp/unit_backward", 0x1a8563be0aef1a17ull},
    {"dblp/parallel_resistance", 0xebbf2efb6a42b253ull},
    {"dblp/no_prestige", 0x48f72ef57447ae97ull},
    {"dblp_mutated/paper", 0xb213fd64178e2daaull},
    {"dblp_mutated/eval", 0x1fa61d8c160cc82eull},
    {"dblp_mutated/unit_backward", 0x367e0940bd469846ull},
    {"dblp_mutated/parallel_resistance", 0xb84a8b3b67ced486ull},
    {"dblp_mutated/no_prestige", 0x36cb08ff72905f45ull},
    {"tag_item/paper", 0x5c0e5432ce6018e8ull},
    {"tag_item/eval", 0x5c0e5432ce6018e8ull},
    {"tag_item/unit_backward", 0xfe0f3493fdb86a7cull},
    {"tag_item/parallel_resistance", 0xa0d342f6b5c478c0ull},
    {"tag_item/no_prestige", 0x103a70e189f457b7ull},
};

/// 64-bit FNV-1a over little-endian words.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddEdges(FrozenGraph::EdgeSpan edges, Fnv* h) {
  h->Add(edges.size());
  for (const GraphEdge& e : edges) {
    h->Add(e.to);
    h->Add(std::bit_cast<uint64_t>(e.weight));
  }
}

uint64_t Digest(const DataGraph& dg, const std::vector<uint32_t>& counts) {
  const FrozenGraph& g = dg.graph;
  Fnv h;
  h.Add(g.num_nodes());
  for (uint32_t o : g.out_offsets()) h.Add(o);
  for (uint32_t o : g.in_offsets()) h.Add(o);
  AddEdges(g.out_edges(), &h);
  AddEdges(g.in_edges(), &h);
  for (double w : g.node_weights()) h.Add(std::bit_cast<uint64_t>(w));
  h.Add(dg.node_rid.size());
  for (Rid r : dg.node_rid) h.Add(r.Pack());
  h.Add(counts.size());
  for (uint32_t c : counts) h.Add(c);
  return h.value();
}

/// answer_digest_test's dataset.
Database Dblp() {
  DblpConfig config;
  config.seed = 42;
  config.num_authors = 2'000;
  config.num_papers = 4'000;
  return std::move(GenerateDblp(config).db);
}

/// The same database after deletes and inserts: tombstones compact the
/// node ids, a freed PaperId is taken over, a Writes row dangles, and a
/// self-citation gives one Cites row two links to the same paper.
Database DblpMutated() {
  Database db = Dblp();
  const std::vector<std::pair<const char*, uint32_t>> strides = {
      {kAuthorTable, 41}, {kPaperTable, 53}, {kWritesTable, 7},
      {kCitesTable, 11}};
  for (const auto& [name, stride] : strides) {
    const Table* t = db.table(name);
    const uint32_t rows = static_cast<uint32_t>(t->num_rows());
    for (uint32_t r = stride / 2; r < rows; r += stride) {
      EXPECT_TRUE(db.Delete(Rid{t->id(), r}).ok());
    }
  }
  const Table* papers = db.table(kPaperTable);
  const std::string freed = papers->row(53 / 2).at(0).ToText();
  const std::string kept = papers->row(0).at(0).ToText();
  const std::string author = db.table(kAuthorTable)->row(0).at(0).ToText();
  auto insert = [&db](const char* table, std::vector<Value> values) {
    EXPECT_TRUE(db.Insert(table, Tuple(std::move(values))).ok()) << table;
  };
  insert(kAuthorTable, {Value("A_new"), Value("Ada Newcomer")});
  insert(kPaperTable, {Value(freed), Value("Taken over identifier")});
  insert(kPaperTable, {Value("P_new"), Value("Fresh splice paper")});
  insert(kWritesTable, {Value("A_new"), Value("P_new")});
  insert(kWritesTable, {Value("A_new"), Value(freed)});
  insert(kWritesTable, {Value(author), Value("P_new")});
  insert(kWritesTable, {Value("A_new"), Value("P_missing")});
  insert(kCitesTable, {Value("P_new"), Value(kept)});
  insert(kCitesTable, {Value(kept), Value(kept)});
  return db;
}

/// merge_refreeze_test's Tag/Item schema with its inclusion dependency,
/// grown so every fold case occurs: an item's TagRef parallels its label
/// links, Tag.ItemRef points back at items that tag it (links in both
/// directions), labels match several tags, and some references are NULL
/// or dangle.
Database TagItem() {
  Database db;
  EXPECT_TRUE(db.CreateTable(TableSchema("Tag",
                                         {{"TagId", ValueType::kString},
                                          {"Label", ValueType::kString},
                                          {"ItemRef", ValueType::kString}},
                                         {"TagId"}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(TableSchema("Item",
                                         {{"ItemId", ValueType::kString},
                                          {"Label", ValueType::kString},
                                          {"TagRef", ValueType::kString}},
                                         {"ItemId"}))
                  .ok());
  EXPECT_TRUE(db.AddForeignKey(ForeignKey{"tag_item", "Tag", {"ItemRef"},
                                          "Item", {"ItemId"}})
                  .ok());
  EXPECT_TRUE(db.AddForeignKey(ForeignKey{"item_tag", "Item", {"TagRef"},
                                          "Tag", {"TagId"}})
                  .ok());
  EXPECT_TRUE(db.AddInclusionDependency(InclusionDependency{
                    "item_label", "Item", "Label", "Tag", "Label"})
                  .ok());
  const char* labels[] = {"red", "blue", "green", "gold", "grey"};
  for (int i = 0; i < 24; ++i) {
    const Value item_ref =
        i % 5 == 4 ? Value() : Value("I" + std::to_string((i * 7) % 50));
    EXPECT_TRUE(db.Insert("Tag", Tuple({Value("T" + std::to_string(i)),
                                        Value(labels[i % 4]), item_ref}))
                    .ok());
  }
  for (int i = 0; i < 48; ++i) {
    Value tag_ref;
    if (i % 6 != 5) tag_ref = Value("T" + std::to_string((i * 3) % 26));
    EXPECT_TRUE(db.Insert("Item", Tuple({Value("I" + std::to_string(i)),
                                         Value(labels[i % 5]), tag_ref}))
                    .ok());
  }
  return db;
}

GraphBuildOptions EvalGraphOptions() {
  return EvalWorkload::DefaultOptions().graph;
}

TEST(StageBDigestTest, BuildsMatchPinnedDigests) {
  const std::vector<std::pair<std::string, std::function<Database()>>> dbs = {
      {"dblp", Dblp}, {"dblp_mutated", DblpMutated}, {"tag_item", TagItem}};
  std::vector<std::pair<std::string, GraphBuildOptions>> option_sets;
  option_sets.emplace_back("paper", GraphBuildOptions{});
  option_sets.emplace_back("eval", EvalGraphOptions());
  option_sets.emplace_back("unit_backward", EvalGraphOptions());
  option_sets.back().second.unit_backward_edges = true;
  option_sets.emplace_back("parallel_resistance", EvalGraphOptions());
  option_sets.back().second.both_link_combine =
      BothLinkCombine::kParallelResistance;
  option_sets.emplace_back("no_prestige", EvalGraphOptions());
  option_sets.back().second.indegree_prestige = false;

  // Keys in build order, so the first mismatch reported is the first build.
  std::vector<std::pair<std::string, uint64_t>> actual;
  for (const auto& [db_name, make_db] : dbs) {
    const Database db = make_db();
    const LinkTable links = ResolveLinkTable(db);
    for (const auto& [options_name, options] : option_sets) {
      const std::string key = db_name + "/" + options_name;
      const DataGraph dg = BuildDataGraph(db, options);
      std::vector<uint32_t> counts;
      const DataGraph staged =
          MaterializeDataGraph(db, links.links, options, &counts);
      ASSERT_EQ(Digest(dg, {}), Digest(staged, {})) << key;
      ASSERT_EQ(counts.size(), dg.graph.num_nodes() * db.num_tables()) << key;
      ASSERT_EQ(dg.rid_node.size(), dg.node_rid.size()) << key;
      for (NodeId n = 0; n < dg.node_rid.size(); ++n) {
        ASSERT_EQ(dg.NodeForRid(dg.node_rid[n]), n) << key;
      }
      actual.emplace_back(key, Digest(dg, counts));
    }
  }

  std::map<std::string, uint64_t> pinned;
  for (const Pinned& p : kPinned) pinned[p.key] = p.digest;
  std::string first_mismatch;
  for (const auto& [key, digest] : actual) {
    auto it = pinned.find(key);
    if (it == pinned.end() || it->second != digest) {
      first_mismatch = key;
      break;
    }
  }
  if (first_mismatch.empty() && pinned.size() == actual.size()) return;

  std::string table;
  char line[160];
  for (const auto& [key, digest] : actual) {
    std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxull},\n",
                  key.c_str(), static_cast<unsigned long long>(digest));
    table += line;
  }
  ADD_FAILURE() << "stage-B digests differ from kPinned (first mismatch: "
                << (first_mismatch.empty() ? "<table size>" : first_mismatch)
                << "). Actual table:\n"
                << table;
}

}  // namespace
}  // namespace banks
