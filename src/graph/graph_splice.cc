#include "graph/graph_splice.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "graph/edge_weight.h"

namespace banks {

namespace {

/// A constraint's §2.2 inputs, resolved once per splice: the source
/// relation's table id (the per-relation indegree key) and the similarity
/// in each direction.
struct Constraint {
  uint32_t from_table_id;
  double forward;   ///< s(R(u), R(v)) for a link u -> v
  double backward;  ///< s(R(v), R(u))
};

std::vector<Constraint> Constraints(const Database& db,
                                    const GraphBuildOptions& options) {
  std::vector<Constraint> out;
  out.reserve(db.foreign_keys().size() + db.inclusion_dependencies().size());
  auto add = [&](const std::string& from, const std::string& to) {
    const Table* from_t = db.table(from);
    out.push_back(Constraint{from_t != nullptr ? from_t->id() : 0,
                             options.similarity.Get(from, to),
                             options.similarity.Get(to, from)});
  };
  for (const auto& fk : db.foreign_keys()) add(fk.table, fk.ref_table);
  for (const auto& ind : db.inclusion_dependencies()) {
    add(ind.table, ind.ref_table);
  }
  return out;
}

/// A live link in node space.
struct Link {
  NodeId from;
  NodeId to;
  uint32_t src;
};

/// One directed edge of the touched subgraph.
struct PairEdge {
  NodeId from;
  NodeId to;
  double weight;
};

/// Folds the §2.2 candidates of `links` into one edge per directed pair.
/// A link u -> v proposes
///   forward  (u,v): s(R(u), R(v))
///   backward (v,u): IN_{R(u)}(v) * s(R(v), R(u))
/// and a pair's candidates (parallel links, or links in both directions)
/// combine per options.both_link_combine in proposal order. Pairs come out
/// in first-proposal order, which is the emission order.
std::vector<PairEdge> FoldPairs(const std::vector<Link>& links,
                                const std::vector<Constraint>& cons,
                                const std::vector<uint32_t>& counts,
                                size_t num_tables,
                                const GraphBuildOptions& options) {
  std::vector<PairEdge> pairs;
  pairs.reserve(2 * links.size());
  std::unordered_map<uint64_t, uint32_t> slot;  // (from, to) -> pairs index
  slot.reserve(2 * links.size());
  auto propose = [&](NodeId a, NodeId b, double w) {
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    const auto [it, fresh] =
        slot.try_emplace(key, static_cast<uint32_t>(pairs.size()));
    if (fresh) {
      pairs.push_back(PairEdge{a, b, w});
    } else {
      double& cur = pairs[it->second].weight;
      cur = CombineBothLinks(cur, w, options.both_link_combine);
    }
  };
  for (const Link& l : links) {
    const Constraint& c = cons[l.src];
    propose(l.from, l.to, c.forward);
    propose(l.to, l.from,
            options.unit_backward_edges
                ? c.backward
                : BackwardEdgeWeight(
                      c.backward,
                      counts[l.to * num_tables + c.from_table_id]));
  }
  return pairs;
}

}  // namespace

DataGraph SpliceDataGraph(const Database& db, const DataGraph& old_dg,
                          const std::vector<ResolvedLink>& merged_links,
                          const GraphSpliceDelta& delta,
                          const std::vector<uint32_t>& old_counts,
                          const GraphBuildOptions& options,
                          std::vector<uint32_t>* new_counts) {
  const size_t num_tables = db.num_tables();
  const size_t old_n = old_dg.graph.num_nodes();
  const std::vector<Constraint> cons = Constraints(db, options);

  // 1. Node enumeration: (table id, row) order over live rows. Tombstoned
  //    rows are skipped, so deletes compact the id space (Rids stay
  //    stable; NodeIds are per-snapshot). Both the old and the new
  //    node_rid sequences ascend in that order (deletes drop entries,
  //    inserts append rows), so one two-pointer pass yields the remap.
  DataGraph dg;
  const size_t total = db.TotalRows();
  dg.node_rid.reserve(total);
  dg.rid_node.reserve(total);
  for (const auto& name : db.table_names()) {
    const Table* t = db.table(name);
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (t->IsDeleted(r)) continue;
      Rid rid{t->id(), r};
      dg.rid_node.emplace(rid.Pack(),
                          static_cast<NodeId>(dg.node_rid.size()));
      dg.node_rid.push_back(rid);
    }
  }
  const size_t new_n = dg.node_rid.size();

  std::vector<NodeId> old_to_new(old_n, kInvalidNode);
  std::vector<NodeId> new_to_old(new_n, kInvalidNode);
  for (size_t i = 0, j = 0; i < old_n && j < new_n;) {
    const Rid a = old_dg.node_rid[i];
    const Rid b = dg.node_rid[j];
    if (a == b) {
      old_to_new[i] = static_cast<NodeId>(j);
      new_to_old[j] = static_cast<NodeId>(i);
      ++i;
      ++j;
    } else if (a < b) {
      ++i;  // deleted old row: no new id
    } else {
      ++j;  // inserted new row: no old id
    }
  }

  // 2. Touched nodes: everything whose adjacency content or order can
  //    differ from a straight remap of the old CSR.
  std::vector<char> touched(new_n, 0);
  for (size_t n = 0; n < new_n; ++n) {
    if (new_to_old[n] == kInvalidNode) touched[n] = 1;
  }
  std::vector<char> fan(new_n, 0);  // targets whose indegree may change
  for (const auto* links : {&delta.removed, &delta.added}) {
    for (const ResolvedLink& l : *links) {
      const NodeId fn = dg.NodeForRid(l.from);
      const NodeId tn = dg.NodeForRid(l.to);
      if (fn != kInvalidNode) touched[fn] = 1;
      if (tn != kInvalidNode) touched[tn] = fan[tn] = 1;
    }
  }
  for (size_t n = 0; n < new_n; ++n) {
    if (fan[n] == 0 || new_to_old[n] == kInvalidNode) continue;
    // Every link between two nodes emits both directed edges, so the old
    // out-neighbour span IS the partner set.
    for (const auto& e : old_dg.graph.OutEdges(new_to_old[n])) {
      const NodeId pn = old_to_new[e.to];
      if (pn != kInvalidNode) touched[pn] = 1;
    }
  }

  // 3. The live links incident to a touched node, in merged order. A
  //    touched node's incident links are all here, so per-node relative
  //    order is preserved; pairs between two untouched nodes keep
  //    candidates, counts and fold order unchanged and are never
  //    recomputed. Endpoints that fail to resolve (tombstoned rows) and
  //    self-links are skipped.
  std::vector<Link> tl;
  for (const ResolvedLink& l : merged_links) {
    if (l.src >= cons.size()) continue;
    const NodeId fn = dg.NodeForRid(l.from);
    const NodeId tn = dg.NodeForRid(l.to);
    if (fn == kInvalidNode || tn == kInvalidNode || fn == tn) continue;
    if (touched[fn] == 0 && touched[tn] == 0) continue;
    tl.push_back(Link{fn, tn, l.src});
  }

  // 4. Per-(node, source-relation) indegree IN_R(v) = #links into v whose
  //    source tuple belongs to relation R, flat [node * num_tables + table
  //    id]: recounted from `tl` for touched nodes (every link into one is
  //    there), copied from the base for the rest (their incoming links did
  //    not change, or they would be touched).
  std::vector<uint32_t> counts(new_n * num_tables, 0);
  for (size_t n = 0; n < new_n; ++n) {
    if (touched[n] != 0) continue;
    const size_t o = new_to_old[n];
    std::copy_n(old_counts.begin() + o * num_tables, num_tables,
                counts.begin() + n * num_tables);
  }
  for (const Link& l : tl) {
    if (touched[l.to] != 0) {
      ++counts[l.to * num_tables + cons[l.src].from_table_id];
    }
  }

  // 5. Prestige: indegree is the row sum of the counts.
  std::vector<double> weights(new_n, 0.0);
  if (options.indegree_prestige) {
    for (size_t n = 0; n < new_n; ++n) {
      uint32_t d = 0;
      for (size_t t = 0; t < num_tables; ++t) d += counts[n * num_tables + t];
      weights[n] = static_cast<double>(d);
    }
  }

  // 6. CSR offsets from per-node degrees: the old span's for untouched
  //    nodes, the folded pairs' for touched ones.
  const std::vector<PairEdge> pairs =
      FoldPairs(tl, cons, counts, num_tables, options);
  std::vector<uint32_t> out_offsets(new_n + 1, 0);
  std::vector<uint32_t> in_offsets(new_n + 1, 0);
  for (size_t n = 0; n < new_n; ++n) {
    if (touched[n] != 0) continue;
    out_offsets[n + 1] =
        static_cast<uint32_t>(old_dg.graph.OutDegree(new_to_old[n]));
    in_offsets[n + 1] =
        static_cast<uint32_t>(old_dg.graph.InDegree(new_to_old[n]));
  }
  for (const PairEdge& p : pairs) {
    if (touched[p.from] != 0) ++out_offsets[p.from + 1];
    if (touched[p.to] != 0) ++in_offsets[p.to + 1];
  }
  for (size_t n = 0; n < new_n; ++n) {
    out_offsets[n + 1] += out_offsets[n];
    in_offsets[n + 1] += in_offsets[n];
  }

  // 7. Edges: untouched spans are copied with remapped neighbour ids (a
  //    dead or re-weighted neighbour would have made the node touched);
  //    touched nodes take their folded pairs in emission order.
  std::vector<GraphEdge> out_edges(out_offsets[new_n]);
  std::vector<GraphEdge> in_edges(in_offsets[new_n]);
  for (size_t n = 0; n < new_n; ++n) {
    if (touched[n] != 0) continue;
    auto out = out_edges.begin() + out_offsets[n];
    for (const auto& e : old_dg.graph.OutEdges(new_to_old[n])) {
      assert(old_to_new[e.to] != kInvalidNode);
      *out++ = GraphEdge{old_to_new[e.to], e.weight};
    }
    auto in = in_edges.begin() + in_offsets[n];
    for (const auto& e : old_dg.graph.InEdges(new_to_old[n])) {
      *in++ = GraphEdge{old_to_new[e.to], e.weight};
    }
  }
  std::vector<uint32_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
  for (const PairEdge& p : pairs) {
    if (touched[p.from] != 0) {
      out_edges[cursor[p.from]++] = GraphEdge{p.to, p.weight};
    }
  }
  cursor.assign(in_offsets.begin(), in_offsets.end() - 1);
  for (const PairEdge& p : pairs) {
    if (touched[p.to] != 0) {
      in_edges[cursor[p.to]++] = GraphEdge{p.from, p.weight};
    }
  }

  dg.graph = FrozenGraph(std::move(out_offsets), std::move(out_edges),
                         std::move(in_offsets), std::move(in_edges),
                         std::move(weights));
  if (new_counts != nullptr) *new_counts = std::move(counts);
  return dg;
}

}  // namespace banks
