#include "graph/graph_builder.h"

#include "graph/graph_splice.h"

namespace banks {

size_t DataGraph::MemoryBytes() const {
  size_t bytes = graph.MemoryBytes();
  bytes += node_rid.capacity() * sizeof(Rid);
  // Rough bucket accounting for the hash map.
  bytes += rid_node.size() * (sizeof(uint64_t) + sizeof(NodeId) +
                              2 * sizeof(void*));
  return bytes;
}

std::string DanglingFkKey(uint32_t fk_ordinal, const std::string& value_key) {
  return std::to_string(fk_ordinal) + '\x1f' + value_key;
}

LinkTable ResolveLinkTable(const Database& db, bool with_merge_aids) {
  LinkTable out;
  const auto& fks = db.foreign_keys();
  const auto& inds = db.inclusion_dependencies();
  if (with_merge_aids) out.referrers.resize(inds.size());

  // FK links: one target per (constraint, referencing row). Resolution is
  // inlined (rather than db.ResolveFk) so the encoded key is available for
  // the dangling side table.
  for (uint32_t fi = 0; fi < fks.size(); ++fi) {
    const ForeignKey& fk = fks[fi];
    const Table* from_t = db.table(fk.table);
    const Table* to_t = db.table(fk.ref_table);
    if (from_t == nullptr || to_t == nullptr) continue;
    std::vector<size_t> cols;
    cols.reserve(fk.columns.size());
    for (const auto& c : fk.columns) {
      cols.push_back(*from_t->schema().ColumnIndex(c));
    }
    for (uint32_t r = 0; r < from_t->num_rows(); ++r) {
      if (from_t->IsDeleted(r)) continue;
      const Tuple& row = from_t->row(r);
      bool has_null = false;
      for (size_t c : cols) has_null |= row.at(c).is_null();
      if (has_null) continue;  // NULL FK: no reference
      const Rid from{from_t->id(), r};
      const std::string key = row.EncodeKey(cols);
      auto to_row = to_t->LookupPkKey(key);
      if (to_row.has_value()) {
        const Rid to{to_t->id(), *to_row};
        if (to != from) out.links.push_back(ResolvedLink{fi, from, to});
      } else if (with_merge_aids) {
        out.dangling[DanglingFkKey(fi, key)].push_back(from);
      }
    }
  }

  // Inclusion dependencies (§2.1): one link per matched referred tuple —
  // the referred column need not be a key.
  for (uint32_t ii = 0; ii < inds.size(); ++ii) {
    const InclusionDependency& ind = inds[ii];
    const Table* from_t = db.table(ind.table);
    if (from_t == nullptr) continue;
    auto col = from_t->schema().ColumnIndex(ind.column);
    for (uint32_t r = 0; r < from_t->num_rows(); ++r) {
      if (from_t->IsDeleted(r)) continue;
      const Rid from{from_t->id(), r};
      if (with_merge_aids && col.has_value()) {
        const Value& v = from_t->row(r).at(*col);
        if (!v.is_null()) {
          out.referrers[ii][EncodeValuesKey({v})].push_back(from);
        }
      }
      for (Rid to : db.ResolveInclusion(ind, from)) {
        if (to != from) {
          out.links.push_back(
              ResolvedLink{static_cast<uint32_t>(fks.size()) + ii, from, to});
        }
      }
    }
  }
  return out;
}

DataGraph MaterializeDataGraph(const Database& db,
                               const std::vector<ResolvedLink>& links,
                               const GraphBuildOptions& options,
                               std::vector<uint32_t>* in_by_relation) {
  return SpliceDataGraph(db, DataGraph{}, links, GraphSpliceDelta{},
                         /*old_counts=*/{}, options, in_by_relation);
}

DataGraph BuildDataGraph(const Database& db, const GraphBuildOptions& options) {
  return MaterializeDataGraph(
      db, ResolveLinkTable(db, /*with_merge_aids=*/false).links, options);
}

}  // namespace banks
