// Connection trees: the answer model of BANKS (§2.1, §2.3).
//
// An answer is a rooted directed tree with a path from the root (the
// "information node") to at least one keyword node per search term. The
// tree is a Steiner tree over the data graph: it may contain nodes that
// match no keyword.
#ifndef BANKS_CORE_ANSWER_H_
#define BANKS_CORE_ANSWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "storage/database.h"
#include "update/delta_graph.h"

namespace banks {

/// A directed edge of an answer tree (parent -> child).
struct TreeEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double weight = 0.0;

  bool operator==(const TreeEdge& o) const {
    return from == o.from && to == o.to;
  }
};

/// A rooted directed answer tree.
struct ConnectionTree {
  NodeId root = kInvalidNode;

  /// Edges in parent-before-child order (root first). Empty for the
  /// degenerate single-node answer (one node matching every keyword).
  std::vector<TreeEdge> edges;

  /// leaf_for_term[i] = the node that satisfies search term i. Distinct
  /// terms may map to the same node.
  std::vector<NodeId> leaf_for_term;

  /// leaf_relevance[i] = match relevance of leaf_for_term[i] in (0, 1]
  /// (1 for exact matches; lower for fuzzy/numeric-approx matches). Empty
  /// means "all exact". See §2.3 node relevances.
  std::vector<double> leaf_relevance;

  /// Sum of edge weights (the paper's "tree weight"; lower = closer).
  double tree_weight = 0.0;

  /// Overall relevance in [0,1], filled by the Scorer.
  double relevance = 0.0;

  /// Distinct nodes of the tree, root first, then in edge order.
  std::vector<NodeId> Nodes() const;

  /// Number of children of the root (the §3 pruning rule discards trees
  /// whose root has exactly one child).
  size_t RootChildCount() const;

  /// Canonical signature of the *undirected* tree: two trees are
  /// "duplicates" (§3) iff their undirected versions coincide. The
  /// signature is the sorted list of undirected edges plus the sorted node
  /// set, so trees differing only in root/direction collide.
  std::string UndirectedSignature() const;

  /// Structural validity: every non-root node has exactly one parent, every
  /// edge's parent appears earlier (connected, acyclic), every leaf_for_term
  /// is in the tree. Used by tests and assertions.
  bool IsValidTree() const;
};

/// Renders an answer in the indented Figure-2 style, resolving node ids to
/// "Table: (col=value, ...)" lines via the database. Keyword leaves are
/// marked with '*'. Pass the snapshot's live-update overlay (`delta`) when
/// the answer may contain nodes added after the snapshot froze.
std::string RenderAnswer(const ConnectionTree& tree, const DataGraph& dg,
                         const Database& db,
                         const DeltaGraph* delta = nullptr);

/// One-line summary "Table(pk)" for a node. Helper for rendering and logs.
std::string NodeLabel(NodeId node, const DataGraph& dg, const Database& db,
                      const DeltaGraph* delta = nullptr);

}  // namespace banks

#endif  // BANKS_CORE_ANSWER_H_
