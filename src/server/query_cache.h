// Epoch-keyed query/answer cache for repeated (Zipfian) keyword traffic.
//
// BANKS pays its backward-expansion cost per query even when the answer
// set is unchanged. The engine's epoch discipline makes exact invalidation
// cheap: every published LiveState carries (epoch, pending_mutations), a
// refreeze bumps the epoch, and every mid-epoch mutation bumps `pending`.
// The cache stores two kinds of entries, both keyed by a canonical string
// that folds in the parsed query and every answer-relevant SearchOptions /
// MatchOptions field:
//
//   answer entries ("A|...")
//       The complete delivered answer list (plus SearchStats and the
//       keyword-match metadata) of a run that finished with
//       Truncation::kNone, no cancellation, no authorization policy and an
//       unlimited budget. Valid ONLY on an exact (epoch, pending) match: a
//       mid-epoch delta edge between two non-keyword nodes can create new
//       connection trees, so keyword-overlap checks are unsound here.
//
//   resolution entries ("R|...")
//       One term's keyword→node-set resolution plus its provenance: the
//       expanded index tokens, the metadata-matched table ids, and a
//       numeric flag. Valid across *later* mid-epoch deltas of the same
//       epoch when the per-epoch mutation journal proves that none of the
//       provenance tokens/tables was touched after the entry was stored
//       and — since approx expansion also sees the delta vocabulary — that
//       no token journaled since could have joined the expansion: none
//       within max_edit_distance of the term, none extending it when
//       prefix matching is on. Numeric resolutions read live column
//       values and never revalidate across deltas.
//
// Invalidation is driven by the RefreezeCoordinator (the only writer):
// OnMutationsApplied() records touched tokens/tables in the journal
// *before* the engine publishes the new LiveState (journal-ahead is
// conservatively sound — at worst a valid entry is rejected), and
// OnRefreeze() purges dead-epoch entries and rebinds the journal.
//
// Authorization results are never cached: policy-filtered sessions bypass
// the answer cache entirely (they may still reuse pre-auth resolutions —
// hidden-table filtering happens downstream, per consumer).
//
// Thread safety: fully internal. Shards (Fnv1a of the key) each carry a
// util::Mutex over map + LRU list; hit/miss/invalidation counters are
// cache-line-padded per-shard relaxed atomics, summed lock-free by
// stats(). Lock order: LiveState's state_mu_ (if held) -> shard/journal
// mutex; no cache method calls back into the engine.
#ifndef BANKS_SERVER_QUERY_CACHE_H_
#define BANKS_SERVER_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/answer_stream.h"
#include "core/expansion_search_base.h"
#include "core/query.h"
#include "core/query_session.h"
#include "util/thread_annotations.h"

namespace banks::server {

struct FlightState;  // query_cache.cc: one in-flight coalesced computation

/// Aggregated cache counters (one snapshot; see PoolStats for the serving
/// view). Answer probes and resolution probes are each classified
/// exclusively: a hit, a miss (no entry), or an invalidation (an entry
/// existed but could not be proven valid).
struct QueryCacheStats {
  uint64_t hits = 0;               ///< answer-entry hits (prefilled sessions)
  uint64_t misses = 0;             ///< answer probes with no entry
  uint64_t invalidations = 0;      ///< stale answer entries on probe
  uint64_t resolution_hits = 0;    ///< keyword-resolution reuse
  uint64_t resolution_misses = 0;  ///< resolution probes with no entry
  uint64_t resolution_invalidations = 0;  ///< stale resolutions on probe
  uint64_t evictions = 0;          ///< LRU-by-bytes evictions
  uint64_t insertions = 0;         ///< entries admitted
  uint64_t purged = 0;             ///< dead-epoch entries purged at refreeze
  uint64_t coalesced = 0;  ///< concurrent identical misses joined in-flight
  size_t bytes = 0;                ///< resident payload estimate
  size_t entries = 0;              ///< resident entry count
};

/// A completed run's deliverables, stored post-remap: replaying them must
/// be byte-identical to a live run, so the session serves them without
/// re-filtering or re-remapping.
struct CachedAnswers {
  std::vector<ScoredAnswer> answers;
  SearchStats stats;
  std::vector<std::vector<KeywordMatch>> keyword_matches;
  std::vector<size_t> dropped_terms;
};

/// One term's resolution plus the provenance the journal validates.
struct CachedResolution {
  std::vector<KeywordMatch> matches;
  std::vector<std::string> tokens;  ///< expanded index tokens
  std::vector<uint32_t> tables;     ///< metadata-matched table ids
  bool numeric = false;             ///< live column reads; never revalidates
};

class QueryCache {
 public:
  /// `max_bytes` bounds the summed payload estimate (split evenly across
  /// shards); `shards` is rounded up to a power of two.
  QueryCache(size_t max_bytes, size_t shards);
  ~QueryCache();
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // ---------------------------------------------------------------- keys

  /// Canonical answer-entry key: parsed terms + every SearchOptions /
  /// MatchOptions field that can change the delivered answers. Two query
  /// texts that parse identically share a key.
  static std::string AnswerKey(const ParsedQuery& parsed,
                               const SearchOptions& search,
                               const MatchOptions& match);

  /// Canonical resolution-entry key for one term.
  static std::string ResolutionKey(const QueryTerm& term,
                                   const MatchOptions& match);

  // -------------------------------------------------------------- probes

  /// Answer probe at the reader's (epoch, pending). Exact-match only;
  /// a stale entry is dropped and counted as an invalidation.
  std::shared_ptr<const CachedAnswers> FindAnswers(const std::string& key,
                                                   uint64_t epoch,
                                                   uint64_t pending);

  /// Read-through resolution of one term: returns the cached matches when
  /// the journal proves them still exact for (epoch, pending), otherwise
  /// resolves live via `resolver` and admits the result. The returned
  /// matches are pre-auth — callers apply policy filtering downstream.
  std::vector<KeywordMatch> ResolveThrough(const KeywordResolver& resolver,
                                           const QueryTerm& term,
                                           const MatchOptions& match,
                                           uint64_t epoch, uint64_t pending);

  /// Join result of one cacheable miss: exactly one side is set. `sink`
  /// means this session LEADS the computation — publishing into it admits
  /// the run to the cache AND completes the flight; dropping it
  /// unpublished (cancel, truncation) aborts the flight. `flight` means
  /// an identical run is already in flight on the same (epoch, pending):
  /// the session follows it instead of searching.
  struct FlightJoin {
    std::shared_ptr<AnswerCacheSink> sink;
    std::shared_ptr<AnswerFlight> flight;
  };

  /// Registers a cacheable miss in the in-flight table (keyed by
  /// key+epoch+pending, so flights never cross publications) and returns
  /// the leader sink or the follower flight. The leader publishes only on
  /// natural, untruncated exhaustion — identical semantics to the former
  /// MakeAnswerFill, plus flight completion.
  FlightJoin JoinFlight(std::string key, uint64_t epoch, uint64_t pending,
                        std::vector<std::vector<KeywordMatch>> keyword_matches,
                        std::vector<size_t> dropped_terms);

  // ---------------------------------------- writers (lint-confined names)
  // banks_lint confines calls to these to src/server/ + src/update/: the
  // cache mutation surface stays out of the query path's own layer.

  /// Admits a completed answer list (LRU-evicting by bytes).
  void StoreAnswers(const std::string& key, uint64_t epoch, uint64_t pending,
                    CachedAnswers value);

  /// Admits one term's resolution with its provenance.
  void StoreResolution(const std::string& key, uint64_t epoch,
                       uint64_t pending, CachedResolution value);

  /// Journal hook: the coordinator applied a mutation batch; `pending` is
  /// the post-batch count and `tokens`/`tables` the touched provenance.
  /// Called BEFORE the new LiveState is published (journal-ahead).
  void OnMutationsApplied(uint64_t epoch, uint64_t pending,
                          const std::vector<std::string>& tokens,
                          const std::vector<uint32_t>& tables);

  /// Epoch hook: purges entries not keyed to `epoch` (normally all of
  /// them) and rebinds the journal. Returns the number purged.
  size_t OnRefreeze(uint64_t epoch);

  /// Removes one in-flight entry (leader publication/abort). Called by the
  /// sink JoinFlight built; sessions never call this.
  void FinishFlight(const std::string& flight_key);

  /// Counter snapshot (lock-free for the counters; shard locks are taken
  /// briefly for bytes/entries).
  QueryCacheStats stats() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t pending = 0;
    std::shared_ptr<const CachedAnswers> answers;        // exactly one of
    std::shared_ptr<const CachedResolution> resolution;  // these is set
    size_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  struct Shard {
    mutable util::Mutex mu;
    std::unordered_map<std::string, Entry> map BANKS_GUARDED_BY(mu);
    std::list<std::string> lru BANKS_GUARDED_BY(mu);  // front = most recent
    size_t bytes BANKS_GUARDED_BY(mu) = 0;
  };

  /// Cache-line-padded per-shard counters: probes on distinct shards never
  /// share a line, and stats() sums without taking any lock.
  struct alignas(64) Counters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> invalidations{0};
    std::atomic<uint64_t> resolution_hits{0};
    std::atomic<uint64_t> resolution_misses{0};
    std::atomic<uint64_t> resolution_invalidations{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> purged{0};
  };

  Shard& shard_for(const std::string& key);
  Counters& counters_for(const std::string& key);

  /// True iff the resolution `r` of `term` under `match`, stored at
  /// `entry_pending`, is provably exact at any later pending count of the
  /// same `epoch`.
  bool ResolutionStillValid(const CachedResolution& r, const QueryTerm& term,
                            const MatchOptions& match, uint64_t epoch,
                            uint64_t entry_pending);

  void InsertLocked(Shard& shard, Counters& counters, const std::string& key,
                    Entry entry) BANKS_REQUIRES(shard.mu);

  const size_t max_bytes_per_shard_;
  const size_t shard_mask_;
  std::vector<Shard> shards_;
  std::vector<Counters> counters_;

  // In-flight answer computations keyed by key+epoch+pending. Entries are
  // created by JoinFlight's leader side and erased by the leader sink on
  // publication or abort; followers hold their own shared_ptr to the
  // state, so a finished flight stays pollable after its table entry dies.
  mutable util::Mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<FlightState>> flights_
      BANKS_GUARDED_BY(flights_mu_);
  std::atomic<uint64_t> coalesced_{0};

  // Per-epoch mutation journal: last pending count at which each token /
  // table id was touched. Bound to one epoch at a time; a probe whose
  // epoch differs from journal_epoch_ cannot be proven and falls back.
  mutable util::Mutex journal_mu_;
  uint64_t journal_epoch_ BANKS_GUARDED_BY(journal_mu_) = 0;
  bool journal_overflow_ BANKS_GUARDED_BY(journal_mu_) = false;
  std::unordered_map<std::string, uint64_t> touched_tokens_
      BANKS_GUARDED_BY(journal_mu_);
  std::unordered_map<uint32_t, uint64_t> touched_tables_
      BANKS_GUARDED_BY(journal_mu_);
};

}  // namespace banks::server

#endif  // BANKS_SERVER_QUERY_CACHE_H_
