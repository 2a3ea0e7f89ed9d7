// RefreezeCoordinator — folds mutations into delta overlays and rebuilds
// the frozen snapshot when the delta grows past its threshold.
//
// Division of labour with BanksEngine: the coordinator owns the update
// mutex (mu()) that serializes writers, plus the mutation mechanics —
// validating and applying a write to storage, deriving the overlay
// changes (new node, FK edges with §2.2 weights, tombstones, delta
// postings), publishing copy-on-write overlay generations, and building a
// fresh fully-frozen LiveState off the serving path. The engine owns the
// Database and the state lock (the pointer swap takes it exclusively,
// readers take it shared). Every mutating method here REQUIRES mu(), so
// "caller serializes writers" is a compile-time contract under Clang
// (-Wthread-safety), not a comment. "Off the serving path" is literal: a
// rebuild runs with no state lock held at all — concurrent sessions keep
// opening and pumping on the current state; only other *writers* wait.
//
// Two rebuild paths:
//   Rebuild()      — from scratch: re-resolve every FK/inclusion link,
//                    re-tokenize every attribute, rebuild every index.
//                    O(database). Always correct; the merge path's oracle.
//   MergeRebuild() — O(base + delta): patch the cached per-epoch LinkTable
//                    with the mutation log (re-resolving only dirty rows),
//                    splice the CSR against the epoch's graph, and patch
//                    copies of the inverted/numeric indexes from the log's
//                    old/new values. Both paths run the one stage-B routine
//                    (a full build splices against an empty base), so the
//                    §2.2 fold and the CSR emission are shared code; the
//                    link-table and index patches, and the spans and counts
//                    the splice copies from the base, are what the
//                    merge-vs-full oracle checks, at runtime via
//                    UpdateOptions::verify_merge_refreeze.
#ifndef BANKS_UPDATE_REFREEZE_H_
#define BANKS_UPDATE_REFREEZE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"
#include "update/delta_graph.h"
#include "update/index_delta.h"
#include "update/live_state.h"
#include "update/mutation.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace banks {

struct BanksOptions;  // core/banks.h; carries GraphBuildOptions + UpdateOptions

namespace server {
class QueryCache;  // server/query_cache.h; purged by BeginEpoch
}  // namespace server

/// Outcome of one snapshot rebuild.
struct RefreezeStats {
  uint64_t epoch = 0;            ///< epoch of the freshly published state
  uint64_t mutations_absorbed = 0;  ///< delta entries folded into the CSR
  size_t nodes = 0;              ///< node count of the new frozen graph
  size_t edges = 0;              ///< edge count of the new frozen graph
  double rebuild_ms = 0.0;       ///< wall time of the off-path rebuild
  bool merged = false;           ///< snapshot came from the merge path
  bool verified = false;         ///< the equivalence oracle ran
  bool verify_mismatch = false;  ///< oracle disagreed; full rebuild published
  size_t cache_entries_purged = 0;  ///< query-cache entries of dead epochs
  double snapshot_write_ms = 0.0;  ///< epoch-file write time (0 = no file)
  uint64_t snapshot_bytes = 0;     ///< size of the written epoch file
  bool snapshot_failed = false;    ///< the write failed; serving unaffected
};

/// Serialized-writer mutation applier + snapshot rebuilder.
class RefreezeCoordinator {
 public:
  /// `db` and `options` must outlive the coordinator (the engine owns
  /// both). The engine calls BeginEpoch with the initial snapshot.
  RefreezeCoordinator(Database* db, const BanksOptions* options);

  /// The update mutex: serializes writers (Apply/ApplyBatch/refreeze).
  /// The engine locks it around every mutation; the analysis equates the
  /// returned pointer with mu_, so the REQUIRES contracts below bind.
  util::Mutex* mu() const BANKS_RETURN_CAPABILITY(mu_) { return &mu_; }

  /// Attaches the engine's query cache (null = none) so the refreeze purge
  /// runs on the serialized writer path. Called once at engine
  /// construction, before the first Rebuild/BeginEpoch.
  void AttachCache(server::QueryCache* cache) BANKS_REQUIRES(mu_);

  /// Starts a new overlay generation over `base` (engine construction and
  /// every refreeze). Clears the pending log; the link cache a preceding
  /// Rebuild/MergeRebuild stored is kept — it describes the same epoch.
  /// Purges dead-epoch query-cache entries and returns how many.
  size_t BeginEpoch(DataGraphSnapshot base) BANKS_REQUIRES(mu_);

  /// Adopts an externally-built epoch (the snapshot load path): records
  /// its number so cache invalidation and the next refreeze key off the
  /// loaded state. The link cache stays empty, so the first refreeze
  /// after a snapshot load takes the full-rebuild path.
  void AdoptEpoch(uint64_t epoch) BANKS_REQUIRES(mu_) { epoch_ = epoch; }

  /// Applies one mutation to storage and publishes new overlay snapshots.
  /// Returns the affected Rid (the fresh one for inserts). On error the
  /// database and overlays are unchanged. Caller serializes writers.
  Result<Rid> Apply(Mutation m) BANKS_REQUIRES(mu_);

  /// Applies a whole batch through ONE overlay clone: the working overlay
  /// is cloned once, every mutation folds into it, and one generation is
  /// published at the end — O(batch) instead of the O(batch²) a loop of
  /// Apply() pays for per-mutation copy-on-write clones. Failed mutations
  /// report their status in the matching result slot and leave storage and
  /// the working overlay untouched; later mutations still apply (same net
  /// state as a loop of Apply). Caller serializes writers.
  std::vector<Result<Rid>> ApplyBatch(std::vector<Mutation> mutations)
      BANKS_REQUIRES(mu_);

  /// True once pending mutations reached the configured auto-refreeze
  /// threshold (never true when the threshold is 0 = manual only).
  bool ShouldRefreeze() const BANKS_REQUIRES(mu_);

  /// Rebuilds every derived structure from the database into a fresh
  /// LiveState with the given epoch and no overlays. Pure read of the
  /// database: caller guarantees no concurrent writer (readers are fine).
  /// Also re-caches the link table for the next epoch's merge.
  LiveStateSnapshot Rebuild(uint64_t epoch) BANKS_REQUIRES(mu_);

  /// True when every pending mutation is expressible as a link-table patch
  /// (everything except updates that touch inclusion-dependency columns,
  /// whose value-match semantics need a referred-side rescan) and a link
  /// cache exists for the current epoch.
  bool CanMergeRefreeze() const BANKS_REQUIRES(mu_);

  /// The O(base + delta) merge path. `current` is the state the epoch
  /// started from (its immutable index objects seed the patched copies).
  /// Preconditions: CanMergeRefreeze(), and `current` belongs to this
  /// coordinator's epoch. Same caller contract as Rebuild().
  LiveStateSnapshot MergeRebuild(uint64_t epoch, const LiveState& current)
      BANKS_REQUIRES(mu_);

  /// Current overlay generation (null when nothing is pending).
  const DeltaSnapshot& delta() const BANKS_REQUIRES(mu_) { return delta_; }
  const IndexDeltaSnapshot& index_delta() const BANKS_REQUIRES(mu_) {
    return index_delta_;
  }

  const MutationLog& log() const BANKS_REQUIRES(mu_) { return log_; }
  size_t pending() const BANKS_REQUIRES(mu_) { return log_.pending(); }

 private:
  /// The private pre-publication overlay pair one Apply/ApplyBatch call
  /// mutates before its single copy-on-write publication.
  struct WorkingOverlays {
    std::shared_ptr<DeltaGraph> delta;
    std::shared_ptr<InvertedIndexDelta> index;
  };

  WorkingOverlays CloneOverlays() const BANKS_REQUIRES(mu_);
  void PublishOverlays(WorkingOverlays w) BANKS_REQUIRES(mu_);

  /// Dispatches one mutation into `w` (storage write + overlay fold + log
  /// append). On error nothing — storage, overlays, log — changed.
  Result<Rid> ApplyOne(WorkingOverlays* w, Mutation* m) BANKS_REQUIRES(mu_);
  Result<Rid> ApplyInsert(WorkingOverlays* w, Mutation* m)
      BANKS_REQUIRES(mu_);
  Result<Rid> ApplyDelete(WorkingOverlays* w, Mutation* m)
      BANKS_REQUIRES(mu_);
  Result<Rid> ApplyUpdate(WorkingOverlays* w, Mutation* m)
      BANKS_REQUIRES(mu_);

  /// Adds the §2.2 edge pair for DB link from -> to into the working
  /// overlay (forward similarity edge + indegree-weighted backward edge).
  void AddLink(DeltaGraph* d, NodeId from, NodeId to,
               const std::string& from_table, const std::string& to_table);

  /// Total (base CSR + overlay) indegree of `n` — the delta approximation
  /// of the per-relation indegree IN_R(v).
  size_t ApproxInDegree(const DeltaGraph& d, NodeId n) const;

  /// Serializes writers. mutable so const observers (e.g. the engine's
  /// total_mutations) can lock through the const accessor.
  mutable util::Mutex mu_;

  /// Database content follows a two-mutex protocol the analysis cannot
  /// express ("writers hold mu_ AND the engine's state lock; readers hold
  /// either"): writes happen under both (ApplyBatch), while Rebuild reads
  /// it under mu_ alone — mu_ excludes every writer, so the database is
  /// quiescent for the rebuild even though queries read it concurrently
  /// under the engine's shared state lock. Left unannotated; TSan covers
  /// it.
  Database* db_;
  const BanksOptions* options_;
  DataGraphSnapshot base_ BANKS_GUARDED_BY(mu_);
  /// Published generations (COW).
  DeltaSnapshot delta_ BANKS_GUARDED_BY(mu_);
  IndexDeltaSnapshot index_delta_ BANKS_GUARDED_BY(mu_);
  MutationLog log_ BANKS_GUARDED_BY(mu_);

  /// Stage-A link cache for the current epoch: what MergeRebuild patches
  /// instead of re-resolving the database. Null until the first Rebuild
  /// (or when merge aids are disabled).
  std::shared_ptr<const LinkTable> links_ BANKS_GUARDED_BY(mu_);

  /// The engine's query cache (null = caching disabled) and the epoch the
  /// last Rebuild/MergeRebuild produced, which the refreeze purge keeps.
  server::QueryCache* cache_ BANKS_GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ BANKS_GUARDED_BY(mu_) = 0;
};

}  // namespace banks

#endif  // BANKS_UPDATE_REFREEZE_H_
