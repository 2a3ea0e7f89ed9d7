#include "update/state_compare.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

namespace banks {

namespace {

void SetDiff(std::string* diff, std::string text) {
  if (diff != nullptr) *diff = std::move(text);
}

bool SpansIdentical(FrozenGraph::EdgeSpan a, FrozenGraph::EdgeSpan b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].to != b[i].to || a[i].weight != b[i].weight) return false;
  }
  return true;
}

}  // namespace

bool DataGraphsIdentical(const DataGraph& a, const DataGraph& b,
                         std::string* diff) {
  if (a.graph.num_nodes() != b.graph.num_nodes()) {
    SetDiff(diff, "node counts differ: " + std::to_string(a.graph.num_nodes()) +
                      " vs " + std::to_string(b.graph.num_nodes()));
    return false;
  }
  if (a.graph.num_edges() != b.graph.num_edges()) {
    SetDiff(diff, "edge counts differ: " + std::to_string(a.graph.num_edges()) +
                      " vs " + std::to_string(b.graph.num_edges()));
    return false;
  }
  if (a.graph.MaxNodeWeight() != b.graph.MaxNodeWeight() ||
      a.graph.MinEdgeWeight() != b.graph.MinEdgeWeight()) {
    SetDiff(diff, "graph weight invariants differ");
    return false;
  }
  for (NodeId n = 0; n < a.graph.num_nodes(); ++n) {
    if (a.graph.node_weight(n) != b.graph.node_weight(n)) {
      SetDiff(diff, "node weight differs at node " + std::to_string(n));
      return false;
    }
    if (!SpansIdentical(a.graph.OutEdges(n), b.graph.OutEdges(n))) {
      SetDiff(diff, "out-adjacency differs at node " + std::to_string(n));
      return false;
    }
    if (!SpansIdentical(a.graph.InEdges(n), b.graph.InEdges(n))) {
      SetDiff(diff, "in-adjacency differs at node " + std::to_string(n));
      return false;
    }
  }
  if (a.node_rid != b.node_rid) {
    SetDiff(diff, "NodeId -> Rid maps differ");
    return false;
  }
  if (a.rid_node != b.rid_node) {
    SetDiff(diff, "Rid -> NodeId maps differ");
    return false;
  }
  return true;
}

bool InvertedIndexesIdentical(const InvertedIndex& a, const InvertedIndex& b,
                              std::string* diff) {
  if (a.num_keywords() != b.num_keywords()) {
    SetDiff(diff,
            "keyword counts differ: " + std::to_string(a.num_keywords()) +
                " vs " + std::to_string(b.num_keywords()));
    return false;
  }
  // Equal sorted layouts, compared keyword by keyword for the report.
  for (size_t i = 0; i < a.num_keywords(); ++i) {
    if (a.keyword(i) != b.keyword(i)) {
      SetDiff(diff, "keyword #" + std::to_string(i) + " differs: '" +
                        std::string(a.keyword(i)) + "' vs '" +
                        std::string(b.keyword(i)) + "'");
      return false;
    }
    const std::span<const Rid> pa = a.postings(i);
    const std::span<const Rid> pb = b.postings(i);
    if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end())) {
      SetDiff(diff, "postings differ for keyword '" +
                        std::string(a.keyword(i)) + "'");
      return false;
    }
  }
  return true;
}

bool MetadataIndexesIdentical(const MetadataIndex& a, const MetadataIndex& b,
                              std::string* diff) {
  const auto tokens_a = a.AllTokens();
  if (tokens_a != b.AllTokens()) {
    SetDiff(diff, "metadata token sets differ");
    return false;
  }
  for (const auto& tok : tokens_a) {
    if (a.Lookup(tok) != b.Lookup(tok)) {
      SetDiff(diff, "metadata matches differ for token '" + tok + "'");
      return false;
    }
  }
  return true;
}

bool NumericIndexesIdentical(const NumericIndex& a, const NumericIndex& b,
                             std::string* diff) {
  if (a.num_values() != b.num_values() || a.num_entries() != b.num_entries()) {
    SetDiff(diff, "numeric index sizes differ");
    return false;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto ma = a.LookupRange(-kInf, kInf);
  const auto mb = b.LookupRange(-kInf, kInf);
  for (size_t i = 0; i < ma.size(); ++i) {
    if (ma[i].rid != mb[i].rid || ma[i].value != mb[i].value) {
      SetDiff(diff, "numeric entries differ at position " + std::to_string(i));
      return false;
    }
  }
  return true;
}

bool LiveStatesIdentical(const LiveState& a, const LiveState& b,
                         std::string* diff) {
  if (a.dg == nullptr || b.dg == nullptr || a.index == nullptr ||
      b.index == nullptr || a.metadata == nullptr || b.metadata == nullptr ||
      a.numeric == nullptr || b.numeric == nullptr) {
    SetDiff(diff, "incomplete LiveState");
    return false;
  }
  return DataGraphsIdentical(*a.dg, *b.dg, diff) &&
         InvertedIndexesIdentical(*a.index, *b.index, diff) &&
         MetadataIndexesIdentical(*a.metadata, *b.metadata, diff) &&
         NumericIndexesIdentical(*a.numeric, *b.numeric, diff);
}

}  // namespace banks
