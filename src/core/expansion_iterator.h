// Direction-parameterized single/multi-source shortest-path iterator (§3).
//
// "The copies of the algorithm are run concurrently by creating an iterator
// interface to the shortest path algorithm." Each iterator runs Dijkstra
// lazily over the frozen CSR graph. In the backward direction (the §3
// default) it traverses edges *in reverse*, so a visit of node v at
// distance d means there is a forward path v -> ... -> source of weight d.
// In the forward direction it follows out-edges, so a visit means a forward
// path source -> ... -> v — the expansion used by forward search and the
// bidirectional strategy's root probes. Iterators expose the distance of
// the next node they will output so a scheduler can interleave frontiers
// cheapest-first.
#ifndef BANKS_CORE_EXPANSION_ITERATOR_H_
#define BANKS_CORE_EXPANSION_ITERATOR_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "graph/frozen_graph.h"
#include "update/delta_graph.h"

namespace banks {

/// Which edge set an expansion relaxes.
enum class ExpandDirection : uint8_t {
  kBackward,  ///< relax incoming edges (reverse Dijkstra, §3 default)
  kForward,   ///< relax outgoing edges
};

/// Lazy Dijkstra iterator over a FrozenGraph.
class ExpansionIterator {
 public:
  static constexpr double kNoCap = std::numeric_limits<double>::infinity();

  /// Single-source iterator.
  /// `distance_cap`: nodes farther than this are never output (the search
  /// layer uses it to bound expansion). Infinity = unbounded.
  /// `initial_distance`: the source starts at this distance instead of 0
  /// (§3: "the distance measure can be extended to include node weights of
  /// nodes matching keywords" — a prestigious keyword node gets a smaller
  /// start offset, so its iterator runs ahead of the others). The offset is
  /// uniform within one iterator, so path-weight reconstruction from
  /// distance differences is unaffected.
  /// `delta`: optional live-update overlay (see update/delta_graph.h).
  /// Null keeps the frozen-only hot path; non-null makes every expansion
  /// also relax overlay edges and skip tombstoned nodes/edges, so answers
  /// reflect mutations applied since the snapshot froze.
  ExpansionIterator(const FrozenGraph& graph, NodeId source,
                    ExpandDirection direction = ExpandDirection::kBackward,
                    double distance_cap = kNoCap,
                    double initial_distance = 0.0,
                    const DeltaGraph* delta = nullptr);

  /// Multi-source iterator: every source starts at distance 0; parent
  /// chains lead back to the nearest source.
  ExpansionIterator(const FrozenGraph& graph, const std::vector<NodeId>& sources,
                    ExpandDirection direction,
                    double distance_cap = kNoCap,
                    const DeltaGraph* delta = nullptr);

  /// The single source (kInvalidNode for a multi-source iterator).
  NodeId source() const { return source_; }
  ExpandDirection direction() const { return direction_; }

  /// True if at least one more node will be output.
  bool HasNext() const { return has_pending_; }

  /// Distance of the node Next() would return. Requires HasNext().
  double PeekDistance() const { return pending_.dist; }

  /// Settles and returns the next-nearest node. Requires HasNext().
  struct Visit {
    NodeId node;
    double distance;
  };
  Visit Next();

  /// Parent-chain path `node -> ... -> source` for a settled node
  /// (inclusive of both ends; {source} when node is a source). Empty if
  /// `node` is unsettled. For a backward iterator this is the *forward*
  /// graph path node -> source; for a forward iterator the forward path
  /// runs source -> node, i.e. the reverse of the returned sequence.
  std::vector<NodeId> PathToSource(NodeId node) const;

  /// Parent of a settled node on its shortest path toward the source
  /// (kInvalidNode for a source or unsettled node).
  NodeId ParentOf(NodeId node) const;

  /// Distance of a settled node (infinity if unsettled).
  double DistanceTo(NodeId node) const;

  /// Number of settled nodes so far (for instrumentation/benchmarks).
  size_t num_settled() const { return num_settled_; }

 private:
  void Advance();  // pops the frontier until a fresh node or exhaustion
  void RelaxNeighbours(NodeId node, double dist);
  void Relax(double dist, NodeId node, NodeId parent);

  struct HeapEntry {
    double dist;
    NodeId node;
    bool operator>(const HeapEntry& o) const {
      // Tie-break on node id for determinism.
      return dist != o.dist ? dist > o.dist : node > o.node;
    }
  };

  // Every node the iterator has reached, in one open-addressing table
  // (power-of-two capacity, linear probing, load at most 1/2): its best
  // distance so far, the settled node that distance was relaxed from, and
  // whether it has been output. A dense per-node array is no option: one
  // query runs thousands of iterators over a graph of ~100K nodes.
  struct Slot {
    double dist = std::numeric_limits<double>::infinity();
    NodeId node = kInvalidNode;    // kInvalidNode = empty slot
    NodeId parent = kInvalidNode;  // toward the source; none for a source
    bool settled = false;
  };
  static constexpr size_t kInitialSlots = 16;
  // Index of `node`'s slot, or of the empty slot where it would go.
  size_t Probe(NodeId node) const;
  // `node`'s slot; an empty (unsettled, infinitely far) one if unreached.
  const Slot& SlotOf(NodeId node) const { return slots_[Probe(node)]; }
  // `node`'s slot, claimed if new (doubling the table past load 1/2).
  Slot& FindOrInsert(NodeId node);
  void Grow();

  const FrozenGraph* graph_;
  const DeltaGraph* delta_;  // null = frozen-only (zero-overhead) path
  NodeId source_;
  ExpandDirection direction_;
  double cap_;
  // Non-improving relaxations are dropped instead of queued, keeping the
  // frontier at O(reached nodes) instead of O(relaxed edges).
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      frontier_;
  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  // 64 - log2(slots_.size()): Probe keeps the hash's top bits.
  int shift_ = 64 - std::countr_zero(kInitialSlots);
  size_t num_reached_ = 0;
  size_t num_settled_ = 0;
  bool has_pending_ = false;
  HeapEntry pending_{};
};

}  // namespace banks

#endif  // BANKS_CORE_EXPANSION_ITERATOR_H_
