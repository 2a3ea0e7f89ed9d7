// LiveStatesIdentical is the merge-vs-full oracle: a comparator that
// missed a difference would let every merge-refreeze test pass vacuously.
// Each case changes one component of an otherwise equal state and expects
// the comparator to name that difference.
#include "update/state_compare.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph_fixture.h"

namespace banks {
namespace {

/// Node 2 holds the maximum weight; edges 0->1, 0->2 and 1->2.
Graph BaseGraph() {
  Graph g;
  g.AddNode(1.0);
  g.AddNode(2.0);
  g.AddNode(5.0);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 1.5);
  g.AddEdge(1, 2, 1.0);
  return g;
}

DataGraph Wrap(const Graph& g) {
  DataGraph dg;
  dg.graph = FrozenGraph(g);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const Rid rid{0, n};
    dg.node_rid.push_back(rid);
    dg.rid_node.emplace(rid.Pack(), n);
  }
  return dg;
}

LiveState StateWith(DataGraph dg, InvertedIndex index,
                    MetadataIndex metadata, NumericIndex numeric) {
  LiveState s;
  s.dg = std::make_shared<const DataGraph>(std::move(dg));
  s.index = std::make_shared<const InvertedIndex>(std::move(index));
  s.metadata = std::make_shared<const MetadataIndex>(std::move(metadata));
  s.numeric = std::make_shared<const NumericIndex>(std::move(numeric));
  return s;
}

InvertedIndex BaseIndex() {
  return InvertedIndex::FromTexts(
      {{"keyword search", Rid{0, 0}}, {"graph search", Rid{0, 1}}});
}

MetadataIndex BaseMetadata() {
  MetadataIndex m;
  m.Restore({{"paper", {MetadataMatch{"Paper", ""}}}});
  return m;
}

NumericIndex BaseNumeric() {
  NumericIndex n;
  n.PatchValue(1999.0, {Rid{0, 0}}, {});
  n.PatchValue(2002.0, {Rid{0, 1}}, {});
  return n;
}

/// Expects `changed` to differ from the base state with a diff message
/// containing `what`, in both argument orders.
void ExpectDiffers(const LiveState& changed, const std::string& what) {
  const LiveState base = StateWith(Wrap(BaseGraph()), BaseIndex(),
                                   BaseMetadata(), BaseNumeric());
  std::string diff;
  EXPECT_FALSE(LiveStatesIdentical(base, changed, &diff)) << what;
  EXPECT_NE(diff.find(what), std::string::npos) << diff;
  EXPECT_FALSE(LiveStatesIdentical(changed, base)) << what;
}

LiveState WithGraph(const Graph& g) {
  return StateWith(Wrap(g), BaseIndex(), BaseMetadata(), BaseNumeric());
}

TEST(StateCompareTest, EqualStatesAreIdentical) {
  std::string diff;
  EXPECT_TRUE(LiveStatesIdentical(WithGraph(BaseGraph()),
                                  WithGraph(BaseGraph()), &diff))
      << diff;
}

TEST(StateCompareTest, EachGraphDifferenceIsReported) {
  Graph more_nodes = BaseGraph();
  more_nodes.AddNode(0.0);
  ExpectDiffers(WithGraph(more_nodes), "node counts differ");

  Graph more_edges = BaseGraph();
  more_edges.AddEdge(2, 0, 1.0);
  ExpectDiffers(WithGraph(more_edges), "edge counts differ");

  Graph heavier = BaseGraph();
  heavier.set_node_weight(2, 6.0);
  ExpectDiffers(WithGraph(heavier), "graph weight invariants differ");

  Graph lighter = BaseGraph();
  lighter.set_node_weight(1, 3.0);
  ExpectDiffers(WithGraph(lighter), "node weight differs at node 1");

  // Same edge set, node 0's out-edges in the other order.
  Graph out_order(3);
  out_order.set_node_weight(0, 1.0);
  out_order.set_node_weight(1, 2.0);
  out_order.set_node_weight(2, 5.0);
  out_order.AddEdge(0, 2, 1.5);
  out_order.AddEdge(0, 1, 1.0);
  out_order.AddEdge(1, 2, 1.0);
  ExpectDiffers(WithGraph(out_order), "out-adjacency differs at node 0");

  // Same edge set and out order, node 2's in-edges in the other order.
  Graph in_order(3);
  in_order.set_node_weight(0, 1.0);
  in_order.set_node_weight(1, 2.0);
  in_order.set_node_weight(2, 5.0);
  in_order.AddEdge(1, 2, 1.0);
  in_order.AddEdge(0, 1, 1.0);
  in_order.AddEdge(0, 2, 1.5);
  ExpectDiffers(WithGraph(in_order), "in-adjacency differs at node 2");

  DataGraph rids = Wrap(BaseGraph());
  rids.node_rid[1] = Rid{1, 1};
  ExpectDiffers(StateWith(std::move(rids), BaseIndex(), BaseMetadata(),
                          BaseNumeric()),
                "NodeId -> Rid maps differ");

  DataGraph nodes = Wrap(BaseGraph());
  nodes.rid_node[Rid{0, 1}.Pack()] = 0;
  ExpectDiffers(StateWith(std::move(nodes), BaseIndex(), BaseMetadata(),
                          BaseNumeric()),
                "Rid -> NodeId maps differ");
}

TEST(StateCompareTest, EachIndexDifferenceIsReported) {
  const DataGraph dg = Wrap(BaseGraph());
  ExpectDiffers(StateWith(dg, InvertedIndex::FromTexts(
                                  {{"keyword search", Rid{0, 0}}}),
                          BaseMetadata(), BaseNumeric()),
                "keyword counts differ");
  ExpectDiffers(StateWith(dg, InvertedIndex::FromTexts(
                                  {{"keyword search", Rid{0, 0}},
                                   {"grape search", Rid{0, 1}}}),
                          BaseMetadata(), BaseNumeric()),
                "keyword #");
  ExpectDiffers(StateWith(dg, InvertedIndex::FromTexts(
                                  {{"keyword search", Rid{0, 1}},
                                   {"graph search", Rid{0, 0}}}),
                          BaseMetadata(), BaseNumeric()),
                "postings differ for keyword");

  MetadataIndex other_tokens;
  other_tokens.Restore({{"author", {MetadataMatch{"Author", ""}}}});
  ExpectDiffers(StateWith(dg, BaseIndex(), std::move(other_tokens),
                          BaseNumeric()),
                "metadata token sets differ");
  MetadataIndex other_matches;
  other_matches.Restore({{"paper", {MetadataMatch{"Paper", "Title"}}}});
  ExpectDiffers(StateWith(dg, BaseIndex(), std::move(other_matches),
                          BaseNumeric()),
                "metadata matches differ for token 'paper'");

  NumericIndex fewer;
  fewer.PatchValue(1999.0, {Rid{0, 0}}, {});
  ExpectDiffers(StateWith(dg, BaseIndex(), BaseMetadata(), std::move(fewer)),
                "numeric index sizes differ");
  NumericIndex moved;
  moved.PatchValue(1999.0, {Rid{0, 1}}, {});
  moved.PatchValue(2002.0, {Rid{0, 0}}, {});
  ExpectDiffers(StateWith(dg, BaseIndex(), BaseMetadata(), std::move(moved)),
                "numeric entries differ at position 0");

  LiveState incomplete = StateWith(dg, BaseIndex(), BaseMetadata(),
                                   BaseNumeric());
  incomplete.numeric = nullptr;
  ExpectDiffers(incomplete, "incomplete LiveState");
}

}  // namespace
}  // namespace banks
