// BanksEngine — the public facade of the library.
//
// Owns a relational database plus every derived structure BANKS needs
// (inverted index, metadata index, data graph) and answers keyword queries
// end to end. Three idioms:
//
// Every idiom consumes one request struct, QueryRequest
// (core/query_request.h); unset fields fall back to the engine defaults.
//
// Batch — run the whole search, get every answer at once:
//
//   BanksEngine engine(std::move(db));
//   auto result = engine.Search({.text = "soumen sunita"});
//   for (const auto& tree : result.value().answers)
//     std::cout << engine.Render(tree);
//
// Streaming — open a session and pull answers as they are generated (the
// §3 engine is incremental; time-to-first-answer is a fraction of full-run
// latency), with pagination, per-session budgets and cancellation:
//
//   auto session = engine.OpenSession({.text = "soumen sunita"});
//   while (auto answer = session.value().Next())     // or NextBatch(k)
//     std::cout << engine.Render(answer->tree);
//   // session.value().Cancel() abandons the search without draining it;
//   // {.text = q, .budget = Budget::WithTimeout(50ms)} bounds it.
//
// Live updates — mutate the database while serving; queries see the delta
// immediately and a refreeze re-bases the snapshot without interrupting
// in-flight sessions (src/update/):
//
//   engine.InsertTuple("Paper", MakeTuple(...));   // searchable right away
//   auto result = engine.Search({.text = "fresh keyword"});  // delta overlay
//   engine.Refreeze();                             // re-freeze + atomic swap
//
// The batch Search entry point is a thin wrapper that opens a session and
// drains it — both idioms return identical answers in identical order.
#ifndef BANKS_CORE_BANKS_H_
#define BANKS_CORE_BANKS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/answer.h"
#include "core/answer_stream.h"
#include "core/authorization.h"
#include "core/backward_search.h"
#include "core/query.h"
#include "core/query_request.h"
#include "core/query_session.h"
#include "graph/graph_builder.h"
#include "index/inverted_index.h"
#include "index/metadata_index.h"
#include "snapshot/snapshot.h"
#include "storage/database.h"
#include "update/live_state.h"
#include "update/mutation.h"
#include "update/refreeze.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace banks {

namespace server {
class SessionPool;
class SessionHandle;
struct PoolOptions;
class QueryCache;        // server/query_cache.h
struct QueryCacheStats;  // aggregate counters; returned by value below
}  // namespace server

/// Live-ingestion knobs (src/update/).
struct UpdateOptions {
  /// Mutations absorbed into delta overlays before Apply()/ApplyBatch()
  /// triggers an automatic refreeze (synchronously, on the writer's thread
  /// — queries keep serving). A batch counts as one trigger check, at its
  /// end. 0 = manual Refreeze() only.
  size_t auto_refreeze_mutations = 0;

  /// Refreeze via the O(base + delta) merge path when the epoch's
  /// mutations allow it: the cached link table is patched (only dirty rows
  /// re-resolve their FKs), the CSR is re-materialised from the patched
  /// link sequence, and the inverted/numeric indexes are patched from the
  /// mutation log — no database-wide FK re-resolution or re-tokenization.
  /// Byte-identical to the full rebuild, which remains the fallback for
  /// ineligible bursts (updates touching inclusion-dependency columns).
  bool merge_refreeze = true;

  /// Equivalence oracle: run BOTH refreeze paths, cross-check with
  /// LiveStatesIdentical (update/state_compare.h), and publish the full
  /// rebuild on mismatch (RefreezeStats::verify_mismatch reports it).
  /// Costs a full rebuild per refreeze — for tests and benches.
  bool verify_merge_refreeze = false;

  /// When non-empty, every refreeze writes the fresh epoch to this path
  /// after publishing it (off the serving path: readers are already on the
  /// new state, and the write lands via `<path>.tmp` + atomic rename — see
  /// src/snapshot/snapshot.h). A crash between refreeze and rename simply
  /// leaves the previous epoch's file; restart with
  /// BanksEngine::FromSnapshot picks up whichever epoch last completed.
  /// Write failures are reported in RefreezeStats::snapshot_failed and
  /// never fail the refreeze itself.
  std::string snapshot_path;
};

/// Epoch-keyed answer cache knobs (src/server/query_cache.h). The cache
/// holds complete answer lists only, each valid at the exact (epoch,
/// pending) it was stored at; keyword resolution always runs live.
struct QueryCacheOptions {
  /// Off by default: serial single-shot workloads gain nothing from the
  /// cache, and benches comparing serial vs. pooled must not let the
  /// serial pass warm answers for the pooled one.
  bool enabled = false;
  /// Total payload budget across all shards; LRU-by-bytes eviction.
  size_t max_bytes = 64ull << 20;
  /// Mutex shards (rounded up to a power of two).
  size_t shards = 8;
};

/// Engine-wide configuration.
struct BanksOptions {
  GraphBuildOptions graph;   ///< §2.2 graph model knobs
  SearchOptions search;      ///< default search settings (§2.3, §3)
  MatchOptions match;        ///< keyword matching knobs
  UpdateOptions update;      ///< live-ingestion knobs (refreeze trigger)
  QueryCacheOptions cache;   ///< epoch-keyed answer cache

  /// Tables excluded as information nodes, by name (resolved to ids at
  /// engine construction; merged into search.excluded_root_tables).
  std::vector<std::string> excluded_root_tables;

  /// Allow answers that cover only a subset of the query's terms when some
  /// term matches nothing (§2.3: "can be relaxed to allow answers
  /// containing only some of the given keywords").
  bool allow_partial_match = false;
};

/// End-to-end keyword search engine over one database.
class BanksEngine {
 public:
  /// Takes ownership of `db` and builds all derived structures.
  explicit BanksEngine(Database db, BanksOptions options = {});
  ~BanksEngine();  // defined where server::SessionPool is complete

  /// Constructs an engine from a snapshot file instead of deriving the
  /// state from `db` (O(ms) instead of O(database) — the CSR and posting
  /// arrays are served straight from the mapping; see src/snapshot/).
  /// `db` must be the database the snapshot was written against: the
  /// stored fingerprint is checked and a mismatch fails cleanly. The
  /// engine starts at the snapshot's epoch; the first refreeze takes the
  /// full-rebuild path (the merge path's link cache is not persisted).
  static Result<std::unique_ptr<BanksEngine>> FromSnapshot(
      Database db, const std::string& path, BanksOptions options = {});

  /// Writes the current state to `path` (snapshot::WriteSnapshot with this
  /// database's fingerprint). Pending overlays are refrozen first so the
  /// file always captures a complete epoch. Thread-safe against queries;
  /// serialized against writers.
  Result<snapshot::SnapshotWriteStats> SaveSnapshot(const std::string& path);

  /// Epoch and size of the last snapshot file written or loaded by this
  /// engine (0/0 when snapshotting is unused). Thread-safe.
  uint64_t snapshot_epoch() const {
    return snapshot_epoch_.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_bytes() const {
    return snapshot_bytes_.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------- concurrent serving
  // Threading model: queries read one immutable LiveState (graph snapshot,
  // indexes, delta overlays) captured atomically at session open, so every
  // const method here is safe to call from any thread — including
  // concurrently with the mutation API below, which publishes a *new*
  // state instead of touching the one readers hold. Each QuerySession's
  // mutable search state is confined to whichever thread is driving it;
  // the pool gives every submitted query a SessionHandle whose methods are
  // thread-safe.

  /// The engine's session pool, started lazily on first use. `options`
  /// takes effect only on the call that starts the pool. Thread-safe.
  server::SessionPool& pool() const;
  server::SessionPool& pool(const server::PoolOptions& options) const;

  /// Submits a query for concurrent execution on the pool's worker
  /// threads and returns a thread-safe handle: NextBatch/Next block until
  /// workers produce answers, Cancel() aborts from any thread. Errors
  /// surface through the Result — a full admission queue is
  /// StatusCode::kOverloaded (the HTTP tier maps it to 429), a bad query
  /// kInvalidArgument.
  Result<server::SessionHandle> SubmitQuery(const QueryRequest& request)
      const;

  // -------------------------------------------------------- live updates
  // Writers are serialized against each other; readers never block. Every
  // mutation is recorded as a RID-level delta (update/mutation.h), folded
  // into copy-on-write overlays (DeltaGraph + InvertedIndexDelta), and
  // visible to sessions opened afterwards — *before* any refreeze.
  // Sessions already open keep their snapshot and finish unchanged.

  /// Appends a tuple; it is searchable immediately. Returns its Rid.
  Result<Rid> InsertTuple(const std::string& table, Tuple tuple);

  /// Tombstones a tuple: it stops matching keywords and appearing in new
  /// answers at once; storage is reclaimed at the next refreeze.
  Status DeleteTuple(Rid rid);

  /// Overwrites one non-PK column. New text is searchable immediately; an
  /// FK retarget rewires the graph overlay. (Stale postings of the old
  /// value survive until the next refreeze, and numeric-range `approx(N)`
  /// probes see new INT/DOUBLE values only after it — the NumericIndex
  /// has no delta counterpart.)
  Status UpdateValue(Rid rid, const std::string& column, Value value);

  /// Generic form of the three calls above.
  Result<Rid> Apply(Mutation mutation);

  /// Bulk ingest: applies the whole batch through ONE copy-on-write
  /// overlay clone and ONE state publication — O(batch), where a loop of
  /// Apply() pays O(batch²) in overlay clones. Result slot i reports
  /// mutation i (failed mutations leave storage untouched; later ones
  /// still apply — same net state as the loop). Searchability is batch-
  /// atomic: sessions see either none or all of the batch. The
  /// auto-refreeze threshold is checked once, after the batch.
  std::vector<Result<Rid>> ApplyBatch(std::vector<Mutation> mutations);

  /// Rebuilds the frozen snapshot + indexes from the database off the
  /// serving path and swaps the engine's state atomically. In-flight
  /// sessions finish byte-identically on the snapshot they opened with;
  /// sessions opened afterwards run delta-free on the new epoch. No-op
  /// (cheap) when nothing is pending unless `force` is set.
  Result<RefreezeStats> Refreeze(bool force = false);

  /// Refreeze generation of the current state (0 until the first swap).
  uint64_t epoch() const;
  /// Mutations folded into overlays since the last refreeze.
  uint64_t pending_mutations() const;
  /// Mutations applied over the engine's lifetime.
  uint64_t total_mutations() const;

  // ---------------------------------------------------------- streaming
  /// Opens a streaming query session: keywords are resolved once, then
  /// answers are pulled incrementally through the returned session.
  /// Unset QueryRequest fields (search / match / auth) fall back to the
  /// engine defaults; `request.budget` bounds the expansion stepper
  /// (deadline / visit cap). With `request.auth` set, keywords never
  /// match hidden tables (§7) and answers touching hidden tuples are
  /// skipped as the stream is consumed.
  Result<QuerySession> OpenSession(const QueryRequest& request) const;

  // --------------------------------------------------------------- batch
  /// Runs a keyword query to completion (open + drain): identical answers
  /// in identical order to streaming the same QueryRequest.
  Result<QueryResult> Search(const QueryRequest& request) const;

  /// Figure-2 style rendering of one answer against the *current* state.
  /// NodeIds are per-epoch: a tree produced before a refreeze renders
  /// correctly through its session instead —
  ///   RenderAnswer(tree, *session.graph_snapshot(), engine.db(),
  ///                session.delta().get());
  /// (cross-epoch ids degrade to "?" labels here rather than crashing).
  std::string Render(const ConnectionTree& tree) const;

  /// Short "Table(pk)" label of an answer's root (its information node).
  std::string RootLabel(const ConnectionTree& tree) const;

  /// Resolves a table name to its id. Thread-safe (locks internally), so
  /// callers that must not walk db() unsynchronized — the HTTP serving
  /// tier mapping wire-level table names onto Rids — can use it while
  /// writers run.
  Result<uint32_t> TableId(const std::string& table) const;

  /// Direct storage access. NOT synchronized with the mutation API: the
  /// engine's query surfaces lock internally, but code that walks tables
  /// or reverse references through this accessor (the browse layer, CLI
  /// table commands) must not run concurrently with writers.
  const Database& db() const { return db_; }

  /// The engine's current immutable state. Every session holds the pieces
  /// of the state it was opened on, so a refreeze can swap the engine's
  /// state atomically without invalidating in-flight queries. Callers that
  /// read the graph across multiple statements must hold a snapshot (see
  /// graph_snapshot()) rather than re-fetching references mid-operation.
  LiveStateSnapshot state() const;

  /// The current graph snapshot (shared; safe across a refreeze swap).
  DataGraphSnapshot graph_snapshot() const { return state()->dg; }

  /// Borrowed references into the *current* state: valid until the next
  /// refreeze publishes a new one. Prefer state()/graph_snapshot() in
  /// code that may run concurrently with mutations.
  const DataGraph& data_graph() const { return *state()->dg; }
  const InvertedIndex& inverted_index() const { return *state()->index; }
  const MetadataIndex& metadata_index() const { return *state()->metadata; }
  const NumericIndex& numeric_index() const { return *state()->numeric; }
  const BanksOptions& options() const { return options_; }

  /// Aggregate counters of the epoch-keyed query cache (all zero when the
  /// cache is disabled). Thread-safe; defined in banks.cc where
  /// server::QueryCacheStats is complete.
  server::QueryCacheStats query_cache_stats() const;

  /// The engine's query cache (null when QueryCacheOptions::enabled is
  /// false). Exposed for tests and the session pool's stats sampling; the
  /// cache's own methods are thread-safe.
  server::QueryCache* query_cache() const { return cache_.get(); }

 private:
  /// Tag-dispatched constructor for FromSnapshot: adopts `loaded` as the
  /// initial state instead of running Rebuild(0).
  struct FromSnapshotTag {};
  BanksEngine(FromSnapshotTag, Database db, BanksOptions options,
              LiveStateSnapshot loaded);

  /// The one query code path: every Search / OpenSession / SubmitQuery
  /// entry point lands here with a fully-resolved QueryRequest.
  Result<QuerySession> OpenSessionImpl(const QueryRequest& request) const;

  /// Rebuild + swap. The REQUIRES turns "caller holds the update mutex"
  /// into a compile-time contract under Clang (-Wthread-safety).
  RefreezeStats RefreezeLocked() BANKS_REQUIRES(updater_.mu());

  Database db_;
  BanksOptions options_;

  // Epoch-keyed answer cache (null = disabled). Created before the
  // coordinator's first BeginEpoch and attached to it, so every refreeze
  // purges dead-epoch entries through the serialized writer path.
  // Internally synchronized; read-side probes run under the shared state
  // lock only to pin the (epoch, pending) pair they validate with.
  std::unique_ptr<server::QueryCache> cache_;

  // Swappable read state (update/live_state.h). Readers load the pointer
  // under the shared lock; writers publish a new state under the
  // exclusive lock. The same lock guards the database *content* for
  // readers that dereference it while resolving keywords or rendering.
  // Lock ordering: writers take updater_.mu() first, then state_mu_;
  // never the reverse.
  mutable util::SharedMutex state_mu_;
  LiveStateSnapshot state_ BANKS_GUARDED_BY(state_mu_);

  // The mutation/refreeze side is serialized by the coordinator's own
  // mutex (updater_.mu()): Apply and Refreeze lock it first, so a
  // refreeze can rebuild from a quiescent database with no state lock
  // held (queries keep opening and pumping throughout). The coordinator's
  // methods all REQUIRE that mutex, so forgetting the lock is a compile
  // error under Clang rather than a race.
  RefreezeCoordinator updater_;

  // Lazily started session pool (see pool()); mutable because serving is
  // logically const.
  mutable util::Mutex pool_mu_;
  mutable std::unique_ptr<server::SessionPool> pool_
      BANKS_GUARDED_BY(pool_mu_);

  // Last snapshot file written or loaded (gauges for PoolStats; atomics
  // because the pool samples them without the update mutex).
  std::atomic<uint64_t> snapshot_epoch_{0};
  std::atomic<uint64_t> snapshot_bytes_{0};
};

}  // namespace banks

#endif  // BANKS_CORE_BANKS_H_
