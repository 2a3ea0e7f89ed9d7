#include "update/refreeze.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/banks.h"
#include "graph/edge_weight.h"
#include "graph/graph_splice.h"
#include "index/tokenizer.h"
#include "server/query_cache.h"

namespace banks {

namespace {

/// Net per-row effect of one epoch's mutation log, keyed by packed Rid.
/// Because row slots are never reused, a row's lifecycle within an epoch
/// is (insert)? (update)* (delete)? — so "inserted", "deleted" and the
/// first-overwritten value per column fully describe the epoch.
struct RowChange {
  bool inserted = false;
  bool deleted = false;
  /// Column index -> pre-epoch value (the first update's old_value). Only
  /// tracked for rows that existed before the epoch: rows born this epoch
  /// are indexed straight from their current content.
  std::unordered_map<size_t, Value> original;
};

double NumericKey(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                     : v.AsDouble();
}

}  // namespace

RefreezeCoordinator::RefreezeCoordinator(Database* db,
                                         const BanksOptions* options)
    : db_(db), options_(options) {}

void RefreezeCoordinator::AttachCache(server::QueryCache* cache) {
  cache_ = cache;
}

size_t RefreezeCoordinator::BeginEpoch(DataGraphSnapshot base) {
  base_ = std::move(base);
  delta_.reset();
  index_delta_.reset();
  log_.Checkpoint();
  if (cache_ == nullptr) return 0;
  // Purge entries keyed to dead epochs (their NodeIds no longer mean
  // anything).
  return cache_->OnRefreeze(epoch_);
}

bool RefreezeCoordinator::ShouldRefreeze() const {
  const size_t threshold = options_->update.auto_refreeze_mutations;
  return threshold > 0 && log_.pending() >= threshold;
}

// --------------------------------------------------------------- appliers

RefreezeCoordinator::WorkingOverlays RefreezeCoordinator::CloneOverlays()
    const {
  WorkingOverlays w;
  w.delta = delta_ != nullptr ? std::make_shared<DeltaGraph>(*delta_)
                              : std::make_shared<DeltaGraph>(base_);
  w.index = index_delta_ != nullptr
                ? std::make_shared<InvertedIndexDelta>(*index_delta_)
                : std::make_shared<InvertedIndexDelta>();
  return w;
}

void RefreezeCoordinator::PublishOverlays(WorkingOverlays w) {
  delta_ = std::move(w.delta);
  index_delta_ = std::move(w.index);
}

Result<Rid> RefreezeCoordinator::Apply(Mutation m) {
  // A single mutation is a batch of one: same clone-once, publish-once
  // sequence, one copy to maintain.
  std::vector<Mutation> one;
  one.push_back(std::move(m));
  return std::move(ApplyBatch(std::move(one)).front());
}

std::vector<Result<Rid>> RefreezeCoordinator::ApplyBatch(
    std::vector<Mutation> mutations) {
  // One clone for the whole batch — the tentpole of bulk ingest: a loop of
  // Apply() clones the (growing) overlay per mutation, O(K²) for a burst
  // of K; folding the burst into one working clone is O(K).
  WorkingOverlays w = CloneOverlays();
  std::vector<Result<Rid>> results;
  results.reserve(mutations.size());
  bool any_applied = false;
  for (Mutation& m : mutations) {
    results.push_back(ApplyOne(&w, &m));
    any_applied |= results.back().ok();
  }
  if (any_applied) PublishOverlays(std::move(w));
  return results;
}

Result<Rid> RefreezeCoordinator::ApplyOne(WorkingOverlays* w, Mutation* m) {
  switch (m->kind) {
    case Mutation::Kind::kInsert:
      return ApplyInsert(w, m);
    case Mutation::Kind::kDelete:
      return ApplyDelete(w, m);
    case Mutation::Kind::kUpdate:
      return ApplyUpdate(w, m);
  }
  return Status::InvalidArgument("unknown mutation kind");
}

size_t RefreezeCoordinator::ApproxInDegree(const DeltaGraph& d,
                                           NodeId n) const {
  size_t in = 0;
  if (n < d.base_nodes()) in += d.base()->graph.InDegree(n);
  if (const auto* extra = d.ExtraEdges(n, /*forward=*/false)) {
    in += extra->size();
  }
  return in;
}

void RefreezeCoordinator::AddLink(DeltaGraph* d, NodeId from, NodeId to,
                                  const std::string& from_table,
                                  const std::string& to_table) {
  const GraphBuildOptions& g = options_->graph;
  const double fwd = g.similarity.Get(from_table, to_table);
  const double back_sim = g.similarity.Get(to_table, from_table);
  const double back =
      g.unit_backward_edges
          ? back_sim
          : BackwardEdgeWeight(back_sim, ApproxInDegree(*d, to) + 1);
  d->AddEdge(from, to, fwd);
  d->AddEdge(to, from, back);
  if (g.indegree_prestige) d->BumpNodeWeight(to, 1.0);
}

Result<Rid> RefreezeCoordinator::ApplyInsert(WorkingOverlays* w, Mutation* m) {
  Result<Rid> inserted = db_->Insert(m->table, std::move(m->tuple));
  if (!inserted.ok()) return inserted.status();
  const Rid rid = inserted.value();
  m->rid = rid;

  DeltaGraph* nd = w->delta.get();
  w->index->AddTuple(*db_, rid);

  const NodeId node = nd->AddNode(rid, 0.0);
  // Every resolved outgoing reference of the new tuple becomes a §2.2 edge
  // pair. Pre-existing dangling references that the new tuple would now
  // resolve are deferred to the next refreeze (finding them would cost a
  // reverse-index rebuild per insert).
  for (const Reference& ref : db_->References(rid)) {
    const NodeId to = nd->NodeForRid(ref.to);
    if (to == kInvalidNode || to == node) continue;
    const Table* to_t = db_->table(ref.to.table_id);
    if (to_t == nullptr) continue;
    AddLink(nd, node, to, m->table, to_t->name());
  }
  for (const auto& ind : db_->inclusion_dependencies()) {
    if (ind.table != m->table) continue;
    for (const Rid to_rid : db_->ResolveInclusion(ind, rid)) {
      const NodeId to = nd->NodeForRid(to_rid);
      if (to == kInvalidNode || to == node) continue;
      AddLink(nd, node, to, ind.table, ind.ref_table);
    }
  }

  log_.Append(std::move(*m));
  return rid;
}

Result<Rid> RefreezeCoordinator::ApplyDelete(WorkingOverlays* w, Mutation* m) {
  // Resolve the node before the tombstone lands in storage.
  const NodeId node = w->delta->NodeForRid(m->rid);
  Status s = db_->Delete(m->rid);
  if (!s.ok()) return s;
  if (node != kInvalidNode) w->delta->KillNode(node);
  log_.Append(std::move(*m));
  return m->rid;
}

Result<Rid> RefreezeCoordinator::ApplyUpdate(WorkingOverlays* w, Mutation* m) {
  const Table* t = db_->table(m->rid.table_id);
  if (t == nullptr) {
    return Status::NotFound("no table #" + std::to_string(m->rid.table_id));
  }
  // FKs whose referencing columns include the updated one: capture the old
  // targets so the overlay can retarget the edges.
  struct FkDiff {
    const ForeignKey* fk;
    std::optional<Rid> old_to;
  };
  std::vector<FkDiff> diffs;
  for (const ForeignKey* fk : db_->OutgoingFks(t->name())) {
    bool uses_column = false;
    for (const auto& c : fk->columns) uses_column |= (c == m->column);
    if (uses_column) diffs.push_back(FkDiff{fk, db_->ResolveFk(*fk, m->rid)});
  }
  // The overwritten value, for the merge-refreeze index patch. Captured
  // before storage mutates; only once the write is known valid does it
  // reach the log.
  auto col = t->schema().ColumnIndex(m->column);
  if (col.has_value() && m->rid.row < t->num_rows()) {
    m->old_value = t->row(m->rid.row).at(*col);
  }

  Status s = db_->UpdateValue(m->rid, m->column, m->value);
  if (!s.ok()) return s;

  if (m->value.type() == ValueType::kString) {
    // New tokens are searchable immediately; the old value's base postings
    // stay until the refreeze rebuilds the index (stale recall only).
    w->index->AddText(m->value.AsString(), m->rid);
  }

  DeltaGraph* nd = w->delta.get();
  const NodeId node = nd->NodeForRid(m->rid);
  if (node != kInvalidNode) {
    for (const FkDiff& diff : diffs) {
      const std::optional<Rid> new_to = db_->ResolveFk(*diff.fk, m->rid);
      if (diff.old_to == new_to) continue;
      if (diff.old_to.has_value()) {
        const NodeId old_node = nd->NodeForRid(*diff.old_to);
        if (old_node != kInvalidNode) {
          nd->KillEdge(node, old_node);
          nd->KillEdge(old_node, node);
        }
      }
      if (new_to.has_value()) {
        const NodeId new_node = nd->NodeForRid(*new_to);
        if (new_node != kInvalidNode && new_node != node) {
          AddLink(nd, node, new_node, diff.fk->table, diff.fk->ref_table);
        }
      }
    }
  }

  log_.Append(std::move(*m));
  return m->rid;
}

// --------------------------------------------------------------- rebuilds

LiveStateSnapshot RefreezeCoordinator::Rebuild(uint64_t epoch) {
  auto state = std::make_shared<LiveState>();
  auto index = std::make_shared<InvertedIndex>();
  index->Build(*db_);
  auto metadata = std::make_shared<MetadataIndex>();
  metadata->Build(*db_);
  auto numeric = std::make_shared<NumericIndex>();
  numeric->Build(*db_);
  state->index = std::move(index);
  state->metadata = std::move(metadata);
  state->numeric = std::move(numeric);
  auto links = std::make_shared<LinkTable>(ResolveLinkTable(
      *db_, /*with_merge_aids=*/options_->update.merge_refreeze));
  state->dg = std::make_shared<const DataGraph>(MaterializeDataGraph(
      *db_, links->links, options_->graph, &links->in_by_relation));
  links_ = std::move(links);
  state->epoch = epoch;
  epoch_ = epoch;
  return state;
}

bool RefreezeCoordinator::CanMergeRefreeze() const {
  if (links_ == nullptr || base_ == nullptr) return false;
  // The splice needs the indegree-count cache of the exact graph the
  // epoch serves from.
  if (links_->in_by_relation.size() !=
      base_->graph.num_nodes() * db_->num_tables()) {
    return false;
  }
  for (const Mutation& m : log_.entries()) {
    if (m.kind != Mutation::Kind::kUpdate) continue;
    const Table* t = db_->table(m.rid.table_id);
    if (t == nullptr) return false;
    // An update to an inclusion-dependency column changes value-match
    // semantics on whichever side it touches; the link patch below only
    // models key-based (PK/FK) resolution plus referred-side *inserts*,
    // so these bursts take the full-rebuild fallback.
    for (const auto& ind : db_->inclusion_dependencies()) {
      if ((ind.table == t->name() && ind.column == m.column) ||
          (ind.ref_table == t->name() && ind.ref_column == m.column)) {
        return false;
      }
    }
  }
  return true;
}

LiveStateSnapshot RefreezeCoordinator::MergeRebuild(uint64_t epoch,
                                                    const LiveState& current) {
  const auto& fks = db_->foreign_keys();
  const auto& inds = db_->inclusion_dependencies();

  // 1. Net row-level effect of the epoch's log.
  std::unordered_map<uint64_t, RowChange> changes;
  for (const Mutation& m : log_.entries()) {
    RowChange& c = changes[m.rid.Pack()];
    switch (m.kind) {
      case Mutation::Kind::kInsert:
        c.inserted = true;
        break;
      case Mutation::Kind::kDelete:
        c.deleted = true;
        break;
      case Mutation::Kind::kUpdate: {
        if (c.inserted) break;
        const Table* t = db_->table(m.rid.table_id);
        const std::optional<size_t> col =
            t != nullptr ? t->schema().ColumnIndex(m.column) : std::nullopt;
        if (col.has_value()) c.original.emplace(*col, m.old_value);
        break;
      }
    }
  }

  // 2. Dirty sources: every row whose outgoing links must be re-resolved.
  //    Directly touched rows first.
  std::unordered_set<uint64_t> deleted;
  std::unordered_set<uint64_t> dirty;
  for (const auto& [pack, c] : changes) {
    if (c.deleted) {
      deleted.insert(pack);
    } else {
      dirty.insert(pack);
    }
  }
  //    Rows on the *referencing* side of a constraint whose referenced
  //    side gained a tuple: dangling FKs the new PK now resolves, and
  //    inclusion referrers whose value the new referred tuple carries.
  for (const auto& [pack, c] : changes) {
    if (!c.inserted || c.deleted) continue;
    const Rid rid = Rid::Unpack(pack);
    const Table* t = db_->table(rid.table_id);
    if (t == nullptr || t->IsDeleted(rid.row)) continue;
    const Tuple& row = t->row(rid.row);
    for (uint32_t fi = 0; fi < fks.size(); ++fi) {
      if (fks[fi].ref_table != t->name()) continue;
      const auto& pk = t->schema().primary_key();
      const std::string key =
          row.EncodeKey(std::vector<size_t>(pk.begin(), pk.end()));
      auto hit = links_->dangling.find(DanglingFkKey(fi, key));
      if (hit == links_->dangling.end()) continue;
      for (const Rid from : hit->second) {
        if (!db_->IsDeleted(from)) dirty.insert(from.Pack());
      }
    }
    for (uint32_t ii = 0; ii < inds.size() && ii < links_->referrers.size();
         ++ii) {
      if (inds[ii].ref_table != t->name()) continue;
      auto ref_col = t->schema().ColumnIndex(inds[ii].ref_column);
      if (!ref_col.has_value()) continue;
      const Value& v = row.at(*ref_col);
      if (v.is_null()) continue;
      auto hit = links_->referrers[ii].find(EncodeValuesKey({v}));
      if (hit == links_->referrers[ii].end()) continue;
      for (const Rid from : hit->second) {
        if (!db_->IsDeleted(from)) dirty.insert(from.Pack());
      }
    }
  }
  //    Rows whose link *target* died: their reference now dangles — or
  //    re-resolves, if an insert took over the freed PK.
  for (const ResolvedLink& l : links_->links) {
    if (deleted.count(l.to.Pack()) > 0 && !db_->IsDeleted(l.from)) {
      dirty.insert(l.from.Pack());
    }
  }

  // 3. Patched link table: keep clean base links, re-resolve dirty rows.
  auto next = std::make_shared<LinkTable>();
  next->dangling = links_->dangling;
  next->referrers = links_->referrers;
  if (next->referrers.size() < inds.size()) next->referrers.resize(inds.size());

  std::vector<ResolvedLink> added;
  for (const uint64_t pack : dirty) {
    const Rid from = Rid::Unpack(pack);
    if (db_->IsDeleted(from)) continue;
    const Table* t = db_->table(from.table_id);
    if (t == nullptr || from.row >= t->num_rows()) continue;
    const Tuple& row = t->row(from.row);
    const bool is_new =
        changes.count(pack) > 0 && changes.at(pack).inserted;
    for (uint32_t fi = 0; fi < fks.size(); ++fi) {
      const ForeignKey& fk = fks[fi];
      if (fk.table != t->name()) continue;
      const Table* to_t = db_->table(fk.ref_table);
      if (to_t == nullptr) continue;
      std::vector<size_t> cols;
      cols.reserve(fk.columns.size());
      bool has_null = false;
      for (const auto& c : fk.columns) {
        const size_t ci = *t->schema().ColumnIndex(c);
        cols.push_back(ci);
        has_null |= row.at(ci).is_null();
      }
      if (has_null) continue;  // NULL FK: no reference
      const std::string key = row.EncodeKey(cols);
      auto to_row = to_t->LookupPkKey(key);
      if (to_row.has_value()) {
        const Rid to{to_t->id(), *to_row};
        if (to != from) added.push_back(ResolvedLink{fi, from, to});
      } else {
        // Future inserts of this PK must re-dirty the row. Stale entries
        // are harmless (probes re-resolve idempotently); only avoid exact
        // duplicates so repeatedly-updated rows don't grow the list.
        auto& slot = next->dangling[DanglingFkKey(fi, key)];
        if (std::find(slot.begin(), slot.end(), from) == slot.end()) {
          slot.push_back(from);
        }
      }
    }
    for (uint32_t ii = 0; ii < inds.size(); ++ii) {
      const InclusionDependency& ind = inds[ii];
      if (ind.table != t->name()) continue;
      if (is_new) {  // base rows already carry referrer entries
        auto col = t->schema().ColumnIndex(ind.column);
        if (col.has_value()) {
          const Value& v = row.at(*col);
          if (!v.is_null()) {
            next->referrers[ii][EncodeValuesKey({v})].push_back(from);
          }
        }
      }
      for (const Rid to : db_->ResolveInclusion(ind, from)) {
        if (to != from) {
          added.push_back(ResolvedLink{
              static_cast<uint32_t>(fks.size()) + ii, from, to});
        }
      }
    }
  }
  std::sort(added.begin(), added.end(), LinkOrder);

  GraphSpliceDelta gdelta;
  std::vector<ResolvedLink> kept;
  kept.reserve(links_->links.size());
  for (const ResolvedLink& l : links_->links) {
    if (deleted.count(l.from.Pack()) > 0 || dirty.count(l.from.Pack()) > 0 ||
        deleted.count(l.to.Pack()) > 0) {
      gdelta.removed.push_back(l);
      continue;
    }
    kept.push_back(l);
  }
  next->links.reserve(kept.size() + added.size());
  std::merge(kept.begin(), kept.end(), added.begin(), added.end(),
             std::back_inserter(next->links), LinkOrder);
  gdelta.added = std::move(added);

  // 4. Stage B, spliced against the epoch's graph: the same routine a full
  //    build runs against an empty base, so only the delta-bound touched
  //    subgraph (rows born this epoch included) is re-folded; untouched
  //    CSR spans and indegree counts are copied with remapped ids.
  auto state = std::make_shared<LiveState>();
  state->dg = std::make_shared<const DataGraph>(SpliceDataGraph(
      *db_, *base_, next->links, gdelta, links_->in_by_relation,
      options_->graph, &next->in_by_relation));

  // 5. Index patches: apply the per-row old/new differences to the
  //    epoch-start immutable indexes — no re-tokenization of the base.
  //    Differences accumulate per keyword / per value first: the inverted
  //    index merges its sorted keyword patch into a fresh layout in one
  //    pass, and each numeric list is rewritten in ONE merge pass, however
  //    many rows of the burst share the value.
  auto index = std::make_shared<InvertedIndex>(*current.index);
  auto numeric = std::make_shared<NumericIndex>(*current.numeric);
  using RidPatch = std::pair<std::vector<Rid>, std::vector<Rid>>;  // add, del
  InvertedIndex::Patch token_patch;
  std::unordered_map<double, RidPatch> value_patch;
  for (const auto& [pack, c] : changes) {
    if (c.inserted && c.deleted) continue;  // born and died this epoch
    const Rid rid = Rid::Unpack(pack);
    const Table* t = db_->table(rid.table_id);
    if (t == nullptr || rid.row >= t->num_rows()) continue;
    const std::string& name = t->name();
    if (!name.empty() && name[0] == '_') continue;  // system tables unindexed
    // Old = the row as the epoch-start index saw it (updated columns
    // reverted to their first old_value); new = the row as a fresh Build
    // would see it now (nothing for deleted rows). Sets, because both
    // indexes deduplicate per row.
    std::set<std::string> old_tokens, new_tokens;
    std::set<double> old_nums, new_nums;
    const Tuple& row = t->row(rid.row);
    for (size_t ci = 0; ci < t->schema().num_columns(); ++ci) {
      const ValueType vt = t->schema().columns()[ci].type;
      const Value& now = row.at(ci);
      auto oit = c.original.find(ci);
      const Value& before = oit != c.original.end() ? oit->second : now;
      if (vt == ValueType::kString) {
        if (!c.deleted && !now.is_null()) {
          for (auto& tok : Tokenize(now.AsString())) new_tokens.insert(tok);
        }
        if (!c.inserted && !before.is_null()) {
          for (auto& tok : Tokenize(before.AsString())) old_tokens.insert(tok);
        }
      } else if (vt == ValueType::kInt || vt == ValueType::kDouble) {
        if (!c.deleted && !now.is_null()) new_nums.insert(NumericKey(now));
        if (!c.inserted && !before.is_null()) {
          old_nums.insert(NumericKey(before));
        }
      }
    }
    for (const auto& tok : new_tokens) {
      if (old_tokens.count(tok) == 0) token_patch[tok].add.push_back(rid);
    }
    for (const auto& tok : old_tokens) {
      if (new_tokens.count(tok) == 0) token_patch[tok].remove.push_back(rid);
    }
    for (const double v : new_nums) {
      if (old_nums.count(v) == 0) value_patch[v].first.push_back(rid);
    }
    for (const double v : old_nums) {
      if (new_nums.count(v) == 0) value_patch[v].second.push_back(rid);
    }
  }
  index->PatchPostings(token_patch);
  for (auto& [v, patch] : value_patch) {
    numeric->PatchValue(v, std::move(patch.first), std::move(patch.second));
  }
  state->index = std::move(index);
  state->numeric = std::move(numeric);
  // Metadata is derived from the schema alone — mutations cannot move it.
  state->metadata = current.metadata;
  state->epoch = epoch;
  epoch_ = epoch;

  links_ = std::move(next);
  return state;
}

}  // namespace banks
