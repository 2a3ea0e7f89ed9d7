// Epoch-keyed answer cache for repeated (Zipfian) keyword traffic.
//
// BANKS pays its backward-expansion cost per query even when the answer
// set is unchanged. The engine's epoch discipline makes exact invalidation
// cheap: every published LiveState carries (epoch, pending_mutations), a
// refreeze bumps the epoch, and every mid-epoch mutation bumps `pending`.
// Each entry holds the complete delivered answer list (plus SearchStats
// and the keyword-match metadata) of a run that finished with
// Truncation::kNone, no cancellation, no authorization policy and an
// unlimited budget, keyed by a canonical string that folds in the parsed
// query and every answer-relevant SearchOptions / MatchOptions field. An
// entry is valid ONLY on an exact (epoch, pending) match: a mid-epoch
// delta edge between two non-keyword nodes can create new connection
// trees, so keyword-overlap checks are unsound here.
//
// Invalidation needs no mutation hook: a pending bump makes every older
// entry miss on its next probe, and the RefreezeCoordinator (the only
// writer) calls OnRefreeze() to purge dead-epoch entries.
//
// Authorization results are never cached: policy-filtered sessions bypass
// the cache entirely.
//
// Thread safety: fully internal. Shards (Fnv1a of the key) each carry a
// util::Mutex over map + LRU list; hit/miss/invalidation counters are
// cache-line-padded per-shard relaxed atomics, summed lock-free by
// stats(). Lock order: LiveState's state_mu_ (if held) -> shard mutex; no
// cache method calls back into the engine.
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

/// Aggregated cache counters (one snapshot; see PoolStats for the serving
/// view). Each answer probe is classified exclusively: a hit, a miss (no
/// entry), or an invalidation (an entry for another (epoch, pending)).
struct QueryCacheStats {
  uint64_t hits = 0;               ///< answer-entry hits (prefilled sessions)
  uint64_t misses = 0;             ///< answer probes with no entry
  uint64_t invalidations = 0;      ///< stale answer entries on probe
  uint64_t resolution_hits = 0;    ///< always 0; perfbench/trace.cc reads it
  uint64_t resolution_misses = 0;  ///< always 0; perfbench/trace.cc reads it
  uint64_t evictions = 0;          ///< LRU-by-bytes evictions
  uint64_t insertions = 0;         ///< entries admitted
  uint64_t purged = 0;             ///< dead-epoch entries purged at refreeze
  uint64_t coalesced = 0;          ///< always 0; perfbench/trace.cc reads it
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

class QueryCache {
 public:
  /// `max_bytes` bounds the summed payload estimate (split evenly across
  /// shards); `shards` is rounded up to a power of two.
  QueryCache(size_t max_bytes, size_t shards);
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // ---------------------------------------------------------------- keys

  /// Canonical answer-entry key: parsed terms + every SearchOptions /
  /// MatchOptions field that can change the delivered answers. Two query
  /// texts that parse identically share a key.
  static std::string AnswerKey(const ParsedQuery& parsed,
                               const SearchOptions& search,
                               const MatchOptions& match);

  // -------------------------------------------------------------- probes

  /// Answer probe at the reader's (epoch, pending). Exact-match only;
  /// a stale entry is dropped and counted as an invalidation.
  std::shared_ptr<const CachedAnswers> FindAnswers(const std::string& key,
                                                   uint64_t epoch,
                                                   uint64_t pending);

  /// A sink that admits a completed run's answers under `key` (bound to
  /// the open-time epoch/pending and keyword-match metadata). The session
  /// publishes into it only on natural, untruncated exhaustion.
  std::shared_ptr<AnswerCacheSink> MakeAnswerFill(
      std::string key, uint64_t epoch, uint64_t pending,
      std::vector<std::vector<KeywordMatch>> keyword_matches,
      std::vector<size_t> dropped_terms);

  // ---------------------------------------- writers (lint-confined names)
  // banks_lint confines calls to these to src/server/ + src/update/: the
  // cache mutation surface stays out of the query path's own layer.

  /// Admits a completed answer list (LRU-evicting by bytes).
  void StoreAnswers(const std::string& key, uint64_t epoch, uint64_t pending,
                    CachedAnswers value);

  /// Epoch hook: purges entries not keyed to `epoch` (normally all of
  /// them). Returns the number purged.
  size_t OnRefreeze(uint64_t epoch);

  /// Counter snapshot (lock-free for the counters; shard locks are taken
  /// briefly for bytes/entries).
  QueryCacheStats stats() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t pending = 0;
    std::shared_ptr<const CachedAnswers> answers;
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
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> purged{0};
  };

  Shard& shard_for(const std::string& key);
  Counters& counters_for(const std::string& key);

  void InsertLocked(Shard& shard, Counters& counters, const std::string& key,
                    Entry entry) BANKS_REQUIRES(shard.mu);

  const size_t max_bytes_per_shard_;
  const size_t shard_mask_;
  std::vector<Shard> shards_;
  std::vector<Counters> counters_;
};

}  // namespace banks::server

#endif  // BANKS_SERVER_QUERY_CACHE_H_
