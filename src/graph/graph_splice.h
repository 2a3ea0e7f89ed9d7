// Stage B of the data-graph build: an O(base + delta) CSR splice.
//
// The splice turns a link list into the frozen CSR against a base epoch's
// graph. Only "touched" nodes are re-materialised from their incident
// links; every other node's adjacency span is copied from the base with
// NodeIds remapped and weights bit-identical. A full build is the splice
// against an empty base: every node is new, so every node is touched.
// The steps:
//   - enumerate the compacted NodeId space and remap the old ids (deletes
//     compact, inserts append; monotone two-pointer pass);
//   - touch the nodes whose adjacency can differ from a remap of the base:
//     nodes with no old id, endpoints of removed/added links, and the old
//     partner fan of every removed/added target (its per-relation
//     indegree may have changed, and §2.2 backward weights toward all its
//     partners derive from that count);
//   - recount the per-(node, relation) indegrees of touched nodes from the
//     live links incident to them, and copy the base counts of the rest;
//   - fold the §2.2 pair weights of the touched links in link order and
//     emit the touched adjacency flat: one edge list in first-proposal
//     order, placed by a per-node degree count.
// With a small delta the remaining whole-graph work is memcpy-grade (span
// copies, id remaps, invariant scans); everything per-link-expensive is
// delta-bound.
#ifndef BANKS_GRAPH_GRAPH_SPLICE_H_
#define BANKS_GRAPH_GRAPH_SPLICE_H_

#include <cstdint>
#include <vector>

#include "graph/graph_builder.h"

namespace banks {

/// The link-level difference between the old epoch's table and the merged
/// one, in Rid space. Deleted rows are implicit: old nodes whose row is
/// tombstoned in the database vanish from the new enumeration; inserted
/// rows have no old id and are touched for that alone.
struct GraphSpliceDelta {
  std::vector<ResolvedLink> removed;  ///< old links dropped by the merge
  std::vector<ResolvedLink> added;    ///< links (re-)resolved this epoch
};

/// Splices `delta` into `old_dg`, producing the data graph of `db` over
/// `merged_links` (in LinkOrder). `merged_links` must be the old table
/// minus `removed` plus `added`, and `old_counts` the in_by_relation
/// export of the build that produced `old_dg` (empty for an empty base).
/// `new_counts` (optional) receives the counts of the new graph, keyed by
/// its node ids — the next epoch's `old_counts`.
DataGraph SpliceDataGraph(const Database& db, const DataGraph& old_dg,
                          const std::vector<ResolvedLink>& merged_links,
                          const GraphSpliceDelta& delta,
                          const std::vector<uint32_t>& old_counts,
                          const GraphBuildOptions& options,
                          std::vector<uint32_t>* new_counts);

}  // namespace banks

#endif  // BANKS_GRAPH_GRAPH_SPLICE_H_
