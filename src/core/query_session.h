// QuerySession — one open streaming query against a BanksEngine.
//
// BanksEngine::OpenSession resolves the query's keywords once and hands
// back a session holding the live answer stream. Callers then pull answers
// incrementally (Next), a page at a time (NextBatch), or all at once
// (Drain); attach a per-session Budget (deadline / visit cap) enforced
// inside the expansion stepper; and Cancel() to abandon the search without
// draining the graph. The batch BanksEngine::Search overloads are thin
// wrappers that open a session and drain it, so batch behaviour and
// results are unchanged.
//
// Threading contract: a QuerySession is deliberately mutex-free — its
// mutable stepper state is *thread-confined*, owned by exactly one thread
// at a time. Single-threaded callers drive it directly; the session pool
// migrates whole sessions between workers through the scheduler's
// annotated shard locks (src/server/scheduler.h), which is what makes the
// handoff safe without a lock here. The only shared inputs are the
// immutable snapshot pieces (dg/delta below) captured at open. Adding a
// field that two threads could touch concurrently belongs on ServerTask
// (guarded, src/server/session_handle.h), not here.
#ifndef BANKS_CORE_QUERY_SESSION_H_
#define BANKS_CORE_QUERY_SESSION_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/answer_stream.h"
#include "core/authorization.h"
#include "core/expansion_search_base.h"
#include "core/query.h"
#include "graph/graph_builder.h"

namespace banks {

/// Outcome of one (fully drained) query.
struct QueryResult {
  std::vector<ConnectionTree> answers;          ///< decreasing relevance
  ParsedQuery parsed;                           ///< the interpreted query
  std::vector<std::vector<NodeId>> keyword_nodes;  ///< per-term node sets
  std::vector<std::vector<KeywordMatch>> keyword_matches;  ///< with scores
  std::vector<size_t> dropped_terms;            ///< partial-match drops
  SearchStats stats;
};

/// Receives the complete answer list of a run that finished naturally —
/// uncancelled, untruncated, every answer delivered. The session calls
/// Publish() at most once, from the thread driving it at exhaustion time;
/// implementations (src/server/query_cache.cc) synchronize internally.
class AnswerCacheSink {
 public:
  virtual ~AnswerCacheSink() = default;
  virtual void Publish(std::vector<ScoredAnswer> answers,
                       const SearchStats& stats) = 0;
};

/// Everything a session needs, assembled by BanksEngine::OpenSession.
/// Callers never build one of these by hand.
struct QuerySessionInit {
  /// The live searcher (null = the query has no viable terms: the session
  /// is open but immediately exhausted, mirroring a no-answer batch run).
  std::unique_ptr<ExpansionSearchBase> searcher;
  ParsedQuery parsed;
  /// Matches as reported to the caller (auth-filtered under a policy).
  std::vector<std::vector<KeywordMatch>> keyword_matches;
  std::vector<std::vector<NodeId>> keyword_nodes;
  /// Matches the searcher actually runs on (non-empty terms only).
  std::vector<std::vector<KeywordMatch>> active_sets;
  std::vector<size_t> dropped_terms;
  std::vector<size_t> active_terms;  ///< original index of each active term
  /// Immutable graph snapshot the session reads. Holding the shared_ptr
  /// (not a raw pointer) lets sessions outlive an engine-side refreeze.
  DataGraphSnapshot dg;
  /// Live-update overlay captured with the snapshot (null = none). The
  /// session owns the reference; the searcher holds only a raw pointer.
  DeltaSnapshot delta;
  /// Authorization (§7): answers touching hidden tuples are skipped as
  /// they stream out; the searcher oversamples to compensate.
  AuthPolicy policy;
  std::unordered_set<uint32_t> hidden_table_ids;
  /// Cap on answers served to the caller (under auth the searcher's
  /// max_answers is larger than this, to absorb filtered answers).
  size_t deliver_cap = SIZE_MAX;
  Budget budget;

  /// Query-cache integration (both null/empty for uncached sessions).
  /// `cache_sink` admits this run's answers on natural exhaustion;
  /// `prefilled` replays a cached run instead of searching: the answers
  /// are stored post-filter/post-remap, so the session serves them
  /// verbatim (prefilled sessions are only ever created policy-free).
  std::shared_ptr<AnswerCacheSink> cache_sink;
  std::vector<ScoredAnswer> prefilled;
  SearchStats prefilled_stats;
  bool prefilled_mode = false;
};

/// One open query: resolved keywords + the live answer stream.
class QuerySession {
 public:
  /// An exhausted session (needed by Result<QuerySession>).
  QuerySession() = default;
  explicit QuerySession(QuerySessionInit init);

  QuerySession(QuerySession&&) = default;
  QuerySession& operator=(QuerySession&&) = default;
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Pulls the next answer, expanding only as far as needed. Dropped-term
  /// remapping and authorization filtering are applied per answer.
  std::optional<ScoredAnswer> Next();

  /// True iff Next() would return an answer. May perform expansion work.
  bool HasNext();

  /// Pagination: up to `k` further answers, in relevance-stream order. An
  /// empty vector means the stream is exhausted.
  std::vector<ConnectionTree> NextBatch(size_t k);

  /// Bounded pull for cooperative schedulers (see server/session_pool.h):
  /// advances the search by at most `max_steps` stepper iterations.
  /// kAnswerReady fills `*out` (visibility-filtered, terms remapped);
  /// kYielded means the slice ran out — or one auth-filtered answer was
  /// discarded — with work remaining; kExhausted ends the session's
  /// stream. Not thread-safe: one driver at a time, like every other
  /// QuerySession method (SessionHandle provides the thread-safe facade).
  PumpOutcome PumpSlice(size_t max_steps, std::optional<ScoredAnswer>* out);

  /// Whole-slice pump for cooperative schedulers: advances the search by
  /// at most `max_steps` stepper iterations and appends *every* answer the
  /// slice produces (visibility-filtered, terms remapped, ranks assigned)
  /// to `*out` — emission is buffered caller-locally so a scheduler can
  /// publish the slice's answers in one batch instead of re-entering the
  /// stepper per answer. Never returns kAnswerReady: the slice either ran
  /// out (kYielded, possibly with answers in `*out`) or the stream ended
  /// (kExhausted, ditto). Not thread-safe, like PumpSlice.
  PumpOutcome PumpMany(size_t max_steps, std::vector<ScoredAnswer>* out);

  /// Stepper iterations consumed so far (the PumpSlice accounting unit).
  size_t pump_steps() const { return stream_.pump_steps(); }

  /// Pulls everything left in the stream.
  std::vector<ConnectionTree> Drain();

  /// Batch compatibility: drains the remaining stream into a QueryResult
  /// (answers already delivered through Next/NextBatch are not replayed).
  QueryResult DrainToResult();

  /// Early termination: tears down the search without draining the graph.
  void Cancel();
  bool cancelled() const { return stream_.cancelled(); }

  /// Replaces the per-session budget mid-stream (e.g. a fresh deadline for
  /// the next page).
  void set_budget(const Budget& budget);

  /// The budget currently governing the run (the scheduler's EDF key).
  const Budget& budget() const;

  /// Live counters of the underlying run (incremental mid-stream). A
  /// prefilled (cache-hit) session reports the cached run's final stats.
  const SearchStats& stats() const {
    return prefilled_mode_ ? prefilled_stats_ : stream_.stats();
  }

  const ParsedQuery& parsed() const { return parsed_; }
  const std::vector<std::vector<KeywordMatch>>& keyword_matches() const {
    return keyword_matches_;
  }
  const std::vector<std::vector<NodeId>>& keyword_nodes() const {
    return keyword_nodes_;
  }
  /// Terms that matched nothing (dropped under allow_partial_match; fatal
  /// otherwise — the session opens exhausted).
  const std::vector<size_t>& dropped_terms() const { return dropped_terms_; }

  /// Answers delivered to the caller so far.
  size_t answers_returned() const { return delivered_; }

  /// The immutable snapshot this session's answers belong to. Render
  /// against *this* pair — not the engine's current state — when the
  /// engine may have refrozen since the session opened (NodeIds are
  /// per-epoch):
  ///   RenderAnswer(tree, *session.graph_snapshot(), engine.db(),
  ///                session.delta().get());
  const DataGraphSnapshot& graph_snapshot() const { return dg_; }
  /// The live-update overlay captured with the snapshot (null = none).
  const DeltaSnapshot& delta() const { return delta_; }

 private:
  bool Visible(const ConnectionTree& tree) const;
  void RemapDroppedTerms(ConnectionTree* tree) const;
  std::optional<ScoredAnswer> PullFiltered();
  void RecordDelivery(const ScoredAnswer& answer);
  void MaybePublishFill();

  std::unique_ptr<ExpansionSearchBase> searcher_;
  std::optional<ScoredAnswer> lookahead_;  // filled by HasNext()
  AnswerStream stream_;
  ParsedQuery parsed_;
  std::vector<std::vector<KeywordMatch>> keyword_matches_;
  std::vector<std::vector<NodeId>> keyword_nodes_;
  std::vector<size_t> dropped_terms_;
  std::vector<size_t> active_terms_;
  DataGraphSnapshot dg_;
  DeltaSnapshot delta_;
  AuthPolicy policy_;
  std::unordered_set<uint32_t> hidden_table_ids_;
  size_t deliver_cap_ = SIZE_MAX;
  size_t delivered_ = 0;

  // Query-cache state (thread-confined like everything above). The sink
  // is dropped on Cancel() and on any truncated finish, so only complete
  // natural runs are ever admitted to the cache.
  std::shared_ptr<AnswerCacheSink> cache_sink_;
  std::vector<ScoredAnswer> fill_;       // delivered answers, post-remap
  std::vector<ScoredAnswer> prefilled_;  // cache-hit replay source
  size_t prefilled_pos_ = 0;
  SearchStats prefilled_stats_;
  bool prefilled_mode_ = false;
};

}  // namespace banks

#endif  // BANKS_CORE_QUERY_SESSION_H_
