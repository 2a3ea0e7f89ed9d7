// Immutable CSR (compressed sparse row) data graph.
//
// Every search-time consumer (iterators, scorer, prestige, steiner
// baseline) runs over a FrozenGraph: one contiguous `offsets` + `edges`
// array pair per direction, so a node's neighbourhood is a cache-friendly
// span rather than a pointer-chased vector-of-vectors. Stage B
// (graph/graph_splice.h) emits the arrays directly; there is no mutable
// build-time graph. Edge topology is frozen at construction; node weights
// (prestige) stay assignable because prestige models are applied after the
// freeze.
//
// Storage modes:
//   - Owning (default): the CSR arrays live in member vectors, as stage B
//     emits them.
//   - View: the arrays live in externally-owned memory (a mapped snapshot
//     file, src/snapshot/) referenced through spans, with a type-erased
//     `arena` keep-alive so the mapping outlives every copy of the graph.
//     Topology is immutable either way; assigning node weights to a view
//     detaches just the weight array into owned storage (copy-on-write),
//     leaving offsets/edges mapped.
//
// Invariants (recomputed exactly at construction, maintained thereafter;
// the view constructor trusts the caller's stored values):
//   MaxNodeWeight() == max over node_weight(n)   (0 for an empty graph)
//   MinEdgeWeight() == min over edge weights     (+inf if no edges)
#ifndef BANKS_GRAPH_FROZEN_GRAPH_H_
#define BANKS_GRAPH_FROZEN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace banks {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// One directed edge. Both out- and in-adjacency are stored because the
/// backward expanding search runs Dijkstra "traversing the graph edges in
/// reverse direction" (§3) while answer trees are read out along forward
/// edges.
struct GraphEdge {
  NodeId to = kInvalidNode;
  double weight = 1.0;
};

/// Exact maximum over a node-weight vector (0 for an empty graph) — the
/// MaxNodeWeight() invariant baseline.
inline double MaxNodeWeightOf(std::span<const double> weights) {
  double max = 0.0;
  for (double w : weights) max = w > max ? w : max;
  return max;
}

/// CSR digraph with per-node weights. Out- and in-adjacency are both
/// materialised because backward expansion relaxes incoming edges while
/// forward expansion and answer read-out follow outgoing ones.
class FrozenGraph {
 public:
  using EdgeSpan = std::span<const GraphEdge>;

  FrozenGraph() = default;

  /// Adopts pre-assembled CSR arrays (stage B, graph/graph_splice.h).
  /// Offsets carry num_nodes+1 entries; edges of node n occupy
  /// [offsets[n], offsets[n+1]) in both arrays. The
  /// MaxNodeWeight/MinEdgeWeight invariants are recomputed here.
  FrozenGraph(std::vector<uint32_t> out_offsets,
              std::vector<GraphEdge> out_edges,
              std::vector<uint32_t> in_offsets, std::vector<GraphEdge> in_edges,
              std::vector<double> node_weights);

  /// View constructor: wraps externally-owned CSR arrays without copying
  /// a single element (the snapshot mmap path). `arena` is held for the
  /// lifetime of this graph and every copy of it, keeping the backing
  /// storage mapped. The invariant values are trusted as stored — the
  /// caller (snapshot reader) checks them against the arrays, so a mapped
  /// graph is byte-identical to the freshly built one it captured.
  FrozenGraph(std::span<const uint32_t> out_offsets, EdgeSpan out_edges,
              std::span<const uint32_t> in_offsets, EdgeSpan in_edges,
              std::span<const double> node_weights, double max_node_weight,
              double min_edge_weight, std::shared_ptr<const void> arena);

  size_t num_nodes() const { return node_weights().size(); }
  size_t num_edges() const { return out_edges().size(); }

  EdgeSpan OutEdges(NodeId n) const {
    const auto off = out_offsets();
    return out_edges().subspan(off[n], off[n + 1] - off[n]);
  }
  EdgeSpan InEdges(NodeId n) const {
    const auto off = in_offsets();
    return in_edges().subspan(off[n], off[n + 1] - off[n]);
  }

  /// Neighbourhood in the given expansion direction: kForward follows
  /// out-edges, kBackward incoming ones.
  EdgeSpan Edges(NodeId n, bool forward) const {
    return forward ? OutEdges(n) : InEdges(n);
  }

  size_t OutDegree(NodeId n) const {
    const auto off = out_offsets();
    return off[n + 1] - off[n];
  }
  size_t InDegree(NodeId n) const {
    const auto off = in_offsets();
    return off[n + 1] - off[n];
  }

  double node_weight(NodeId n) const { return node_weights()[n]; }

  /// Reassigns a node weight (prestige models run post-freeze). Keeps
  /// MaxNodeWeight() exact even when the current maximum is lowered. On a
  /// view, detaches the weight array into owned storage first.
  void set_node_weight(NodeId n, double w);

  /// Bulk weight overwrite: assigns weights[n] to node n (extra entries
  /// ignored, missing entries left unchanged) and recomputes the maximum
  /// once. Use for whole-graph prestige application — per-node
  /// set_node_weight rescans whenever the current maximum is lowered.
  void SetNodeWeights(const std::vector<double>& weights);

  /// Weight of edge u->v, or +inf if absent (first match if parallel).
  double EdgeWeight(NodeId u, NodeId v) const;
  bool HasEdge(NodeId u, NodeId v) const;

  /// Maximum node weight across the graph (>=0; 0 for empty graph).
  double MaxNodeWeight() const { return max_node_weight_; }

  /// Minimum edge weight across the graph (+inf if no edges).
  double MinEdgeWeight() const { return min_edge_weight_; }

  /// Raw CSR arrays, valid in either storage mode (the snapshot writer
  /// serialises through these).
  std::span<const uint32_t> out_offsets() const {
    return arena_ && out_offsets_.empty() ? v_out_offsets_
                                          : std::span(out_offsets_);
  }
  std::span<const uint32_t> in_offsets() const {
    return arena_ && in_offsets_.empty() ? v_in_offsets_
                                         : std::span(in_offsets_);
  }
  EdgeSpan out_edges() const {
    return arena_ && out_edges_.empty() ? v_out_edges_ : EdgeSpan(out_edges_);
  }
  EdgeSpan in_edges() const {
    return arena_ && in_edges_.empty() ? v_in_edges_ : EdgeSpan(in_edges_);
  }
  std::span<const double> node_weights() const {
    return arena_ && node_weight_.empty() ? v_node_weight_
                                          : std::span(node_weight_);
  }

  /// True when the CSR arrays are views into externally-owned storage
  /// (the bench zero-copy gate checks this).
  bool is_view() const { return arena_ != nullptr; }

  /// Estimated footprint in bytes: owned heap plus mapped view bytes
  /// (for the §5.2 space experiment — mapped pages are still resident
  /// once touched).
  size_t MemoryBytes() const;

 private:
  // Copies the mapped weight array into owned storage so it can be
  // assigned; no-op in owning mode.
  void DetachWeights();

  // Owning storage: offsets have num_nodes()+1 entries; edges of node n
  // occupy [offsets[n], offsets[n+1]). Empty (except the default offsets
  // sentinel) when the corresponding view span below is active.
  std::vector<uint32_t> out_offsets_{0};
  std::vector<uint32_t> in_offsets_{0};
  std::vector<GraphEdge> out_edges_;
  std::vector<GraphEdge> in_edges_;
  std::vector<double> node_weight_;

  // View storage (active iff arena_ set and the owning vector is empty;
  // per-array so a detached weight array can coexist with mapped edges).
  std::span<const uint32_t> v_out_offsets_;
  std::span<const uint32_t> v_in_offsets_;
  EdgeSpan v_out_edges_;
  EdgeSpan v_in_edges_;
  std::span<const double> v_node_weight_;
  std::shared_ptr<const void> arena_;

  double max_node_weight_ = 0.0;
  double min_edge_weight_ = std::numeric_limits<double>::infinity();
};

}  // namespace banks

#endif  // BANKS_GRAPH_FROZEN_GRAPH_H_
