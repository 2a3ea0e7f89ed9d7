#include "graph/frozen_graph.h"

#include <algorithm>
#include <cassert>

namespace banks {

FrozenGraph::FrozenGraph(std::vector<uint32_t> out_offsets,
                         std::vector<GraphEdge> out_edges,
                         std::vector<uint32_t> in_offsets,
                         std::vector<GraphEdge> in_edges,
                         std::vector<double> node_weights)
    : out_offsets_(std::move(out_offsets)),
      in_offsets_(std::move(in_offsets)),
      out_edges_(std::move(out_edges)),
      in_edges_(std::move(in_edges)),
      node_weight_(std::move(node_weights)) {
  assert(out_offsets_.size() == node_weight_.size() + 1);
  assert(in_offsets_.size() == node_weight_.size() + 1);
  assert(out_edges_.size() == in_edges_.size());
  max_node_weight_ = MaxNodeWeightOf(node_weight_);
  for (const auto& e : out_edges_) {
    min_edge_weight_ = std::min(min_edge_weight_, e.weight);
  }
}

FrozenGraph::FrozenGraph(std::span<const uint32_t> out_offsets,
                         EdgeSpan out_edges,
                         std::span<const uint32_t> in_offsets,
                         EdgeSpan in_edges, std::span<const double> node_weights,
                         double max_node_weight, double min_edge_weight,
                         std::shared_ptr<const void> arena)
    : v_out_offsets_(out_offsets),
      v_in_offsets_(in_offsets),
      v_out_edges_(out_edges),
      v_in_edges_(in_edges),
      v_node_weight_(node_weights),
      arena_(std::move(arena)),
      max_node_weight_(max_node_weight),
      min_edge_weight_(min_edge_weight) {
  assert(arena_ != nullptr);
  assert(v_out_offsets_.size() == v_node_weight_.size() + 1);
  assert(v_in_offsets_.size() == v_node_weight_.size() + 1);
  assert(v_out_edges_.size() == v_in_edges_.size());
  // The default-constructed offsets sentinels would shadow the views
  // (accessors prefer owned storage when non-empty).
  out_offsets_.clear();
  in_offsets_.clear();
}

void FrozenGraph::DetachWeights() {
  if (!arena_ || !node_weight_.empty() || v_node_weight_.empty()) return;
  node_weight_.assign(v_node_weight_.begin(), v_node_weight_.end());
  v_node_weight_ = {};
}

void FrozenGraph::set_node_weight(NodeId n, double w) {
  DetachWeights();
  const double old = node_weight_[n];
  node_weight_[n] = w;
  if (w >= max_node_weight_) {
    max_node_weight_ = w;
  } else if (old == max_node_weight_) {
    // The previous maximum may have been lowered; recompute exactly.
    max_node_weight_ = MaxNodeWeightOf(node_weight_);
  }
}

void FrozenGraph::SetNodeWeights(const std::vector<double>& weights) {
  DetachWeights();
  const size_t n = std::min(weights.size(), node_weight_.size());
  for (size_t i = 0; i < n; ++i) node_weight_[i] = weights[i];
  max_node_weight_ = MaxNodeWeightOf(node_weight_);
}

double FrozenGraph::EdgeWeight(NodeId u, NodeId v) const {
  for (const auto& e : OutEdges(u)) {
    if (e.to == v) return e.weight;
  }
  return std::numeric_limits<double>::infinity();
}

bool FrozenGraph::HasEdge(NodeId u, NodeId v) const {
  for (const auto& e : OutEdges(u)) {
    if (e.to == v) return true;
  }
  return false;
}

size_t FrozenGraph::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += node_weight_.capacity() * sizeof(double);
  bytes += out_offsets_.capacity() * sizeof(uint32_t);
  bytes += in_offsets_.capacity() * sizeof(uint32_t);
  bytes += out_edges_.capacity() * sizeof(GraphEdge);
  bytes += in_edges_.capacity() * sizeof(GraphEdge);
  if (arena_) {
    bytes += v_node_weight_.size_bytes() + v_out_offsets_.size_bytes() +
             v_in_offsets_.size_bytes() + v_out_edges_.size_bytes() +
             v_in_edges_.size_bytes();
  }
  return bytes;
}

}  // namespace banks
