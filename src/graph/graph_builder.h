// Materialises the BANKS data graph from a relational database (§2.2).
//
// Every tuple becomes a node; every resolved FK reference u -> v becomes a
// forward edge (weight s(R(u), R(v))) and a backward edge (weight
// proportional to the referenced node's per-relation indegree). Node
// prestige defaults to indegree.
//
// The build is split in two stages so a refreeze can reuse work:
//   stage A  ResolveLinkTable    — walk the database once and resolve every
//                                  FK / inclusion link into Rid space
//                                  (per-row key encoding and PK-index
//                                  probes);
//   stage B  SpliceDataGraph     — deterministically turn a link list into
//                                  the frozen CSR (node enumeration, §2.2
//                                  weights, prestige), re-folding only the
//                                  nodes a delta touches
//                                  (graph/graph_splice.h).
// There is one stage B. A full build (MaterializeDataGraph, BuildDataGraph
// = A + B) is the splice against an empty base, where every node is new and
// so touched. The merge-refreeze path (update/refreeze.h) caches the
// stage-A LinkTable per epoch, patches it in O(delta), and splices against
// the epoch's graph.
#ifndef BANKS_GRAPH_GRAPH_BUILDER_H_
#define BANKS_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/edge_weight.h"
#include "graph/frozen_graph.h"
#include "storage/database.h"

namespace banks {

/// Knobs of the graph model. Defaults reproduce the paper's configuration.
struct GraphBuildOptions {
  /// Per-relation-pair link strengths (paper: Paper–Writes stronger than
  /// Paper–Cites, i.e. Cites gets a larger weight).
  SimilarityMatrix similarity;

  /// Combine rule when both directions carry FK links (eq. 1: min).
  BothLinkCombine both_link_combine = BothLinkCombine::kMin;

  /// Ablation switch: ignore indegree and give backward edges the same
  /// weight as forward ones (demonstrates the hub problem of §2.1).
  bool unit_backward_edges = false;

  /// Node prestige = indegree (paper's implementation). When false, all
  /// node weights are 0 (pure proximity ranking).
  bool indegree_prestige = true;
};

/// The database graph plus the Rid <-> NodeId correspondence. The graph is
/// a frozen CSR snapshot, emitted by stage B. Node weights remain
/// assignable (prestige).
struct DataGraph {
  FrozenGraph graph;
  std::vector<Rid> node_rid;                      ///< NodeId -> Rid
  std::unordered_map<uint64_t, NodeId> rid_node;  ///< packed Rid -> NodeId

  /// NodeId for a tuple, or kInvalidNode.
  NodeId NodeForRid(Rid rid) const {
    auto it = rid_node.find(rid.Pack());
    return it == rid_node.end() ? kInvalidNode : it->second;
  }
  Rid RidForNode(NodeId n) const { return node_rid[n]; }

  /// Estimated bytes for the in-memory structures (§5.2 experiment).
  size_t MemoryBytes() const;
};

/// Shared immutable snapshot of one frozen data graph. Concurrent readers
/// (sessions, pool workers) each hold a reference; a future refreeze swaps
/// the engine's snapshot atomically while in-flight sessions keep serving
/// from the graph they started on. The const element type makes the
/// no-writes-after-freeze rule a compile-time property.
using DataGraphSnapshot = std::shared_ptr<const DataGraph>;

/// One resolved DB link, in Rid space so it survives the NodeId compaction
/// a refreeze applies. `src` identifies the constraint that induced it: the
/// FK's ordinal in db.foreign_keys(), or num_foreign_keys + the inclusion
/// dependency's ordinal.
struct ResolvedLink {
  uint32_t src = 0;
  Rid from;
  Rid to;
};

/// The deterministic discovery order of BuildDataGraph: constraints in
/// registration order, then referencing rows ascending, then (inclusion
/// dependencies only — FKs resolve at most one target per row) referred
/// rows ascending. ResolveLinkTable emits links in exactly this order; the
/// merge path keeps patched link lists sorted by it.
inline bool LinkOrder(const ResolvedLink& a, const ResolvedLink& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.from.row != b.from.row) return a.from.row < b.from.row;
  return a.to.row < b.to.row;
}

/// Stage-A output: every resolved link, plus (optionally) the side tables
/// the merge-refreeze needs to find rows whose links may change when a
/// tuple appears on the *referenced* side of a constraint.
struct LinkTable {
  /// All resolved links, in LinkOrder.
  std::vector<ResolvedLink> links;

  /// Non-NULL FK references that failed to resolve, keyed by
  /// DanglingFkKey(fk ordinal, referenced-PK value key): inserting a tuple
  /// carrying that PK must re-resolve these source rows. Entries are never
  /// eagerly pruned — stale ones are filtered at probe time (dead source
  /// rows) or are harmlessly re-resolved.
  std::unordered_map<std::string, std::vector<Rid>> dangling;

  /// Per inclusion-dependency ordinal: referring-column value key ->
  /// referring rows (recorded whether or not the value matched anything):
  /// inserting a tuple on the referred side with that value must
  /// re-resolve these source rows.
  std::vector<std::unordered_map<std::string, std::vector<Rid>>> referrers;

  /// Per-(node, source-relation) indegree counts of the graph built from
  /// `links` (the stage-B export; flat [node * num_tables + table_id]).
  /// The splice copies them for untouched nodes instead of recounting.
  /// Filled by the refreeze coordinator.
  std::vector<uint32_t> in_by_relation;
};

/// Key of a dangling FK reference: the probe an insert on the referenced
/// side uses to find source rows to re-resolve.
std::string DanglingFkKey(uint32_t fk_ordinal, const std::string& value_key);

/// Stage A: resolves every FK and inclusion link of `db` (live rows only)
/// into Rid space. `with_merge_aids` additionally fills `dangling` and
/// `referrers` (skipped for one-shot builds — they cost an extra hash
/// insert per reference).
LinkTable ResolveLinkTable(const Database& db, bool with_merge_aids = false);

/// Stage B from scratch: the splice (graph/graph_splice.h) against an empty
/// base. Materialises the frozen data graph from a link list in LinkOrder.
/// Links whose endpoints are tombstoned (or self-links) are skipped. Node
/// ids are assigned in (table, row) order.
///
/// `in_by_relation` (optional) receives the per-(node, source-relation)
/// link-indegree counts IN_R(v) the §2.2 backward weights derive from,
/// flat-indexed [node * db.num_tables() + source_table_id] — the state a
/// later splice copies for the nodes it does not touch.
DataGraph MaterializeDataGraph(const Database& db,
                               const std::vector<ResolvedLink>& links,
                               const GraphBuildOptions& options = {},
                               std::vector<uint32_t>* in_by_relation = nullptr);

/// Builds the data graph (stage A + stage B). The database's reverse index
/// is NOT required; node ids are assigned in (table, row) order —
/// deterministic.
DataGraph BuildDataGraph(const Database& db,
                         const GraphBuildOptions& options = {});

}  // namespace banks

#endif  // BANKS_GRAPH_GRAPH_BUILDER_H_
