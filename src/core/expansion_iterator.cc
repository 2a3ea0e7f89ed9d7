#include "core/expansion_iterator.h"

#include <limits>

namespace banks {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ExpansionIterator::ExpansionIterator(const FrozenGraph& graph, NodeId source,
                                     ExpandDirection direction,
                                     double distance_cap,
                                     double initial_distance,
                                     const DeltaGraph* delta)
    : graph_(&graph), delta_(delta), source_(source), direction_(direction),
      cap_(distance_cap) {
  if (delta_ == nullptr || !delta_->NodeDead(source)) {
    Relax(initial_distance, source, kInvalidNode);
  }
  Advance();
}

ExpansionIterator::ExpansionIterator(const FrozenGraph& graph,
                                     const std::vector<NodeId>& sources,
                                     ExpandDirection direction,
                                     double distance_cap,
                                     const DeltaGraph* delta)
    : graph_(&graph), delta_(delta), source_(kInvalidNode),
      direction_(direction), cap_(distance_cap) {
  for (NodeId s : sources) {
    if (delta_ != nullptr && delta_->NodeDead(s)) continue;
    Relax(0.0, s, kInvalidNode);
  }
  Advance();
}

size_t ExpansionIterator::Probe(NodeId node) const {
  // Fibonacci hashing: the top bits of node * 2^64/phi spread the dense
  // NodeId space over the table.
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>((uint64_t{node} * 0x9e3779b97f4a7c15ull) >>
                                 shift_);
  while (slots_[i].node != node && slots_[i].node != kInvalidNode) {
    i = (i + 1) & mask;
  }
  return i;
}

ExpansionIterator::Slot& ExpansionIterator::FindOrInsert(NodeId node) {
  size_t i = Probe(node);
  if (slots_[i].node == kInvalidNode) {
    if (2 * (num_reached_ + 1) > slots_.size()) {
      Grow();
      i = Probe(node);
    }
    slots_[i].node = node;
    ++num_reached_;
  }
  return slots_[i];
}

void ExpansionIterator::Grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  --shift_;
  for (const Slot& s : old) {
    if (s.node != kInvalidNode) slots_[Probe(s.node)] = s;
  }
}

void ExpansionIterator::Relax(double dist, NodeId node, NodeId parent) {
  Slot& s = FindOrInsert(node);
  if (s.settled || s.dist <= dist) return;  // not better
  s.dist = dist;
  s.parent = parent;
  frontier_.push(HeapEntry{dist, node});
}

void ExpansionIterator::Advance() {
  has_pending_ = false;
  while (!frontier_.empty()) {
    HeapEntry top = frontier_.top();
    frontier_.pop();
    if (SlotOf(top.node).settled) continue;  // stale entry
    if (top.dist > cap_) {
      // Everything else is at least this far; exhaust.
      while (!frontier_.empty()) frontier_.pop();
      return;
    }
    pending_ = top;
    has_pending_ = true;
    return;
  }
}

// Backward: relax along *incoming* edges — predecessor w of `node` has a
// forward edge (w -> node), so dist(w -> source) <= weight + dist(node).
// Forward: relax outgoing edges symmetrically. With a live-update overlay,
// base CSR edges may be masked by tombstones and the overlay contributes
// side-list edges; without one the loop is the frozen-only fast path.
// Relax() itself skips settled nodes.
void ExpansionIterator::RelaxNeighbours(NodeId node, double dist) {
  const bool forward = direction_ == ExpandDirection::kForward;
  if (delta_ == nullptr) {
    for (const auto& e : graph_->Edges(node, forward)) {
      Relax(dist + e.weight, e.to, node);
    }
    return;
  }
  if (node < delta_->base_nodes()) {
    const bool check_edges = delta_->HasEdgeTombstones();
    for (const auto& e : graph_->Edges(node, forward)) {
      if (delta_->NodeDead(e.to)) continue;
      // The CSR stores the neighbour as e.to in both spans; the directed
      // graph edge behind an in-span entry runs e.to -> node.
      if (check_edges && (forward ? delta_->EdgeDead(node, e.to)
                                  : delta_->EdgeDead(e.to, node))) {
        continue;
      }
      Relax(dist + e.weight, e.to, node);
    }
  }
  if (const auto* extra = delta_->ExtraEdges(node, forward)) {
    for (const auto& e : *extra) {
      if (delta_->NodeDead(e.to)) continue;
      Relax(dist + e.weight, e.to, node);
    }
  }
}

ExpansionIterator::Visit ExpansionIterator::Next() {
  const HeapEntry cur = pending_;
  slots_[Probe(cur.node)].settled = true;
  ++num_settled_;
  RelaxNeighbours(cur.node, cur.dist);
  Advance();
  return Visit{cur.node, cur.dist};
}

std::vector<NodeId> ExpansionIterator::PathToSource(NodeId node) const {
  std::vector<NodeId> path;
  const Slot* s = &SlotOf(node);
  if (!s->settled) return path;
  path.push_back(node);
  // A settled node's parent is settled too, so the chain ends at a source.
  while (s->parent != kInvalidNode) {
    path.push_back(s->parent);
    s = &SlotOf(s->parent);
  }
  return path;
}

NodeId ExpansionIterator::ParentOf(NodeId node) const {
  const Slot& s = SlotOf(node);
  return s.settled ? s.parent : kInvalidNode;
}

double ExpansionIterator::DistanceTo(NodeId node) const {
  const Slot& s = SlotOf(node);
  return s.settled ? s.dist : kInf;
}

}  // namespace banks
