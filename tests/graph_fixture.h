// Mutable adjacency-list digraph for tests: build a small graph node by
// node and edge by edge, then freeze it into the engine's CSR FrozenGraph.
// The engine itself has no mutable graph — stage B emits CSR arrays
// directly — so this class freezes through FrozenGraph's raw-CSR
// constructor. The conversion is implicit, so `FrozenGraph(g)`,
// `FrozenGraph f(g)` and `dg.graph = FrozenGraph(g)` read as a freeze.
#ifndef BANKS_TESTS_GRAPH_FIXTURE_H_
#define BANKS_TESTS_GRAPH_FIXTURE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/frozen_graph.h"

namespace banks {

/// Adjacency-list digraph with per-node weights (prestige).
class Graph {
 public:
  Graph() = default;
  explicit Graph(size_t num_nodes) { Resize(num_nodes); }

  void Resize(size_t num_nodes) {
    out_.resize(num_nodes);
    in_.resize(num_nodes);
    node_weight_.resize(num_nodes, 0.0);
  }

  /// Adds a node with the given prestige weight; returns its id.
  NodeId AddNode(double weight = 0.0) {
    const NodeId id = static_cast<NodeId>(out_.size());
    out_.emplace_back();
    in_.emplace_back();
    node_weight_.push_back(weight);
    max_node_weight_ = std::max(max_node_weight_, weight);
    return id;
  }

  /// Adds directed edge u -> v with `weight` (> 0 required for Dijkstra).
  void AddEdge(NodeId u, NodeId v, double weight) {
    assert(u < out_.size() && v < out_.size());
    assert(weight > 0 && "Dijkstra requires positive edge weights");
    out_[u].push_back(GraphEdge{v, weight});
    in_[v].push_back(GraphEdge{u, weight});
    ++num_edges_;
    min_edge_weight_ = std::min(min_edge_weight_, weight);
  }

  size_t num_nodes() const { return out_.size(); }
  size_t num_edges() const { return num_edges_; }

  double node_weight(NodeId n) const { return node_weight_[n]; }
  void set_node_weight(NodeId n, double w) {
    const double old = node_weight_[n];
    node_weight_[n] = w;
    if (w >= max_node_weight_) {
      max_node_weight_ = w;
    } else if (old == max_node_weight_) {
      // The lowered node may have held the maximum; recompute exactly.
      max_node_weight_ = MaxNodeWeightOf(node_weight_);
    }
  }

  const std::vector<GraphEdge>& OutEdges(NodeId n) const { return out_[n]; }
  const std::vector<GraphEdge>& InEdges(NodeId n) const { return in_[n]; }

  /// Weight of edge u->v, or +inf if absent (first match if parallel).
  double EdgeWeight(NodeId u, NodeId v) const {
    for (const auto& e : out_[u]) {
      if (e.to == v) return e.weight;
    }
    return std::numeric_limits<double>::infinity();
  }
  bool HasEdge(NodeId u, NodeId v) const {
    for (const auto& e : out_[u]) {
      if (e.to == v) return true;
    }
    return false;
  }

  /// Maximum node weight (>=0; 0 for an empty graph), exact.
  double MaxNodeWeight() const { return max_node_weight_; }

  /// Minimum edge weight (+inf if no edges). Exact because edges are only
  /// ever added, never removed or reweighted.
  double MinEdgeWeight() const { return min_edge_weight_; }

  /// Estimated heap footprint in bytes.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    bytes += node_weight_.capacity() * sizeof(double);
    bytes += out_.capacity() * sizeof(std::vector<GraphEdge>);
    bytes += in_.capacity() * sizeof(std::vector<GraphEdge>);
    for (const auto& adj : out_) bytes += adj.capacity() * sizeof(GraphEdge);
    for (const auto& adj : in_) bytes += adj.capacity() * sizeof(GraphEdge);
    return bytes;
  }

  /// Freezes into CSR. Per-node edge order is insertion order, so a graph
  /// frozen twice yields identical adjacency.
  operator FrozenGraph() const {
    std::vector<uint32_t> out_offsets{0};
    std::vector<uint32_t> in_offsets{0};
    std::vector<GraphEdge> out_edges;
    std::vector<GraphEdge> in_edges;
    out_edges.reserve(num_edges_);
    in_edges.reserve(num_edges_);
    for (size_t v = 0; v < num_nodes(); ++v) {
      out_edges.insert(out_edges.end(), out_[v].begin(), out_[v].end());
      out_offsets.push_back(static_cast<uint32_t>(out_edges.size()));
      in_edges.insert(in_edges.end(), in_[v].begin(), in_[v].end());
      in_offsets.push_back(static_cast<uint32_t>(in_edges.size()));
    }
    return FrozenGraph(std::move(out_offsets), std::move(out_edges),
                       std::move(in_offsets), std::move(in_edges),
                       node_weight_);
  }

 private:
  std::vector<std::vector<GraphEdge>> out_;
  std::vector<std::vector<GraphEdge>> in_;
  std::vector<double> node_weight_;
  size_t num_edges_ = 0;
  double max_node_weight_ = 0.0;
  double min_edge_weight_ = std::numeric_limits<double>::infinity();
};

}  // namespace banks

#endif  // BANKS_TESTS_GRAPH_FIXTURE_H_
