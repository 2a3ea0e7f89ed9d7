#include "server/query_cache.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/hash.h"
#include "util/string_util.h"

namespace banks::server {
namespace {

// Past this many journaled tokens within one epoch the journal stops
// claiming completeness: every cross-pending validation fails until the
// next refreeze rebinds it. Purely a memory bound — correctness only ever
// degrades toward fallback.
constexpr size_t kJournalTokenCap = size_t{1} << 16;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
  out->push_back('|');
}

void AppendF64(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
  out->push_back('|');
}

void AppendString(std::string* out, const std::string& s) {
  out->append(s);
  out->push_back('\x1f');
}

void AppendTerm(std::string* out, const QueryTerm& term) {
  out->push_back(term.kind == QueryTerm::Kind::kKeyword ? 'k' : 'n');
  AppendString(out, term.keyword);
  AppendString(out, term.attribute);
  if (term.kind == QueryTerm::Kind::kNumericApprox) {
    AppendF64(out, term.numeric_value);
    AppendF64(out, term.numeric_tolerance);
  }
}

void AppendMatchOptions(std::string* out, const MatchOptions& match) {
  out->push_back(match.include_metadata ? '1' : '0');
  out->push_back(match.approx.enable ? '1' : '0');
  AppendU64(out, match.approx.max_edit_distance);
  out->push_back(match.approx.allow_prefix ? '1' : '0');
  AppendU64(out, match.approx.max_expansions);
}

size_t EstimateBytes(const std::vector<KeywordMatch>& matches) {
  return matches.size() * sizeof(KeywordMatch);
}

size_t EstimateBytes(const CachedAnswers& v) {
  size_t bytes = sizeof(CachedAnswers);
  for (const auto& a : v.answers) {
    bytes += sizeof(ScoredAnswer) + a.tree.edges.size() * sizeof(TreeEdge) +
             a.tree.leaf_for_term.size() * sizeof(NodeId) +
             a.tree.leaf_relevance.size() * sizeof(double);
  }
  for (const auto& set : v.keyword_matches) {
    bytes += sizeof(set) + EstimateBytes(set);
  }
  bytes += v.dropped_terms.size() * sizeof(size_t);
  return bytes;
}

size_t EstimateBytes(const CachedResolution& v) {
  size_t bytes = sizeof(CachedResolution) + EstimateBytes(v.matches) +
                 v.tables.size() * sizeof(uint32_t);
  for (const auto& t : v.tokens) bytes += sizeof(t) + t.size();
  return bytes;
}

}  // namespace

// One in-flight coalesced computation. The leader sink writes it exactly
// once (published or aborted); any number of followers poll it. Followers
// keep their own shared_ptr, so the state outlives its table entry.
struct FlightState {
  enum class State { kRunning, kPublished, kAborted };
  util::Mutex mu;
  State state BANKS_GUARDED_BY(mu) = State::kRunning;
  std::vector<ScoredAnswer> answers BANKS_GUARDED_BY(mu);
  SearchStats stats BANKS_GUARDED_BY(mu);
};

namespace {

// The follower's view of a flight (core-facing AnswerFlight).
class FlightFollower final : public AnswerFlight {
 public:
  explicit FlightFollower(std::shared_ptr<FlightState> flight)
      : flight_(std::move(flight)) {}

  State Poll(std::vector<ScoredAnswer>* answers,
             SearchStats* stats) override {
    util::MutexLock lock(&flight_->mu);
    switch (flight_->state) {
      case FlightState::State::kRunning:
        return State::kRunning;
      case FlightState::State::kPublished:
        *answers = flight_->answers;  // copy: every follower adopts its own
        *stats = flight_->stats;
        return State::kPublished;
      case FlightState::State::kAborted:
        return State::kAborted;
    }
    return State::kAborted;
  }

 private:
  std::shared_ptr<FlightState> flight_;
};

// The leader's sink: admits one completed run to the cache AND publishes
// it to the flight's followers. Destruction without a publication (the
// session cancelled or truncated) aborts the flight so followers fall
// back to their own searchers — a flight can never wedge.
class FlightFill final : public AnswerCacheSink {
 public:
  FlightFill(QueryCache* cache, std::string key, uint64_t epoch,
             uint64_t pending,
             std::vector<std::vector<KeywordMatch>> keyword_matches,
             std::vector<size_t> dropped_terms,
             std::shared_ptr<FlightState> flight, std::string flight_key)
      : cache_(cache),
        key_(std::move(key)),
        epoch_(epoch),
        pending_(pending),
        keyword_matches_(std::move(keyword_matches)),
        dropped_terms_(std::move(dropped_terms)),
        flight_(std::move(flight)),
        flight_key_(std::move(flight_key)) {}

  ~FlightFill() override {
    if (published_) return;
    {
      util::MutexLock lock(&flight_->mu);
      flight_->state = FlightState::State::kAborted;
    }
    cache_->FinishFlight(flight_key_);
  }

  void Publish(std::vector<ScoredAnswer> answers,
               const SearchStats& stats) override {
    published_ = true;
    {
      // Followers first (copy), then the cache (move): a reader landing
      // between the two steps finds the result one way or the other.
      util::MutexLock lock(&flight_->mu);
      flight_->state = FlightState::State::kPublished;
      flight_->answers = answers;
      flight_->stats = stats;
    }
    CachedAnswers value;
    value.answers = std::move(answers);
    value.stats = stats;
    value.keyword_matches = std::move(keyword_matches_);
    value.dropped_terms = std::move(dropped_terms_);
    cache_->StoreAnswers(key_, epoch_, pending_, std::move(value));
    cache_->FinishFlight(flight_key_);
  }

 private:
  QueryCache* cache_;
  std::string key_;
  uint64_t epoch_;
  uint64_t pending_;
  std::vector<std::vector<KeywordMatch>> keyword_matches_;
  std::vector<size_t> dropped_terms_;
  std::shared_ptr<FlightState> flight_;
  std::string flight_key_;
  bool published_ = false;
};

}  // namespace

QueryCache::QueryCache(size_t max_bytes, size_t shards)
    : max_bytes_per_shard_(std::max<size_t>(
          1, max_bytes / RoundUpPow2(std::max<size_t>(1, shards)))),
      shard_mask_(RoundUpPow2(std::max<size_t>(1, shards)) - 1),
      shards_(shard_mask_ + 1),
      counters_(shard_mask_ + 1) {}

QueryCache::~QueryCache() = default;

std::string QueryCache::AnswerKey(const ParsedQuery& parsed,
                                  const SearchOptions& search,
                                  const MatchOptions& match) {
  std::string key = "A|";
  for (const auto& term : parsed.terms) AppendTerm(&key, term);
  key.push_back('#');
  AppendU64(&key, static_cast<uint64_t>(search.strategy));
  AppendU64(&key, search.max_answers);
  AppendU64(&key, search.output_heap_size);
  key.push_back(search.scoring.edge_log ? '1' : '0');
  key.push_back(search.scoring.node_log ? '1' : '0');
  key.push_back(search.scoring.multiplicative ? '1' : '0');
  AppendF64(&key, search.scoring.lambda);
  AppendF64(&key, search.distance_cap);
  AppendU64(&key, search.max_visits);
  std::vector<uint32_t> excluded(search.excluded_root_tables.begin(),
                                 search.excluded_root_tables.end());
  std::sort(excluded.begin(), excluded.end());
  for (uint32_t t : excluded) AppendU64(&key, t);
  key.push_back(search.exhaustive ? '1' : '0');
  AppendF64(&key, search.keyword_prestige_bias);
  AppendU64(&key, search.root_budget_factor);
  AppendU64(&key, search.frontier_size_threshold);
  key.push_back('#');
  AppendMatchOptions(&key, match);
  return key;
}

std::string QueryCache::ResolutionKey(const QueryTerm& term,
                                      const MatchOptions& match) {
  std::string key = "R|";
  AppendTerm(&key, term);
  key.push_back('#');
  AppendMatchOptions(&key, match);
  return key;
}

QueryCache::Shard& QueryCache::shard_for(const std::string& key) {
  return shards_[Fnv1a(key) & shard_mask_];
}

QueryCache::Counters& QueryCache::counters_for(const std::string& key) {
  return counters_[Fnv1a(key) & shard_mask_];
}

std::shared_ptr<const CachedAnswers> QueryCache::FindAnswers(
    const std::string& key, uint64_t epoch, uint64_t pending) {
  Shard& shard = shard_for(key);
  Counters& counters = counters_for(key);
  util::MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    counters.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Entry& entry = it->second;
  if (entry.epoch != epoch || entry.pending != pending) {
    // Answer entries never revalidate: a delta edge between two
    // non-keyword nodes can create new connection trees, so only the
    // exact publication the run saw is provably equivalent.
    counters.invalidations.fetch_add(1, std::memory_order_relaxed);
    if (entry.epoch != epoch || entry.pending < pending) {
      // Dead for every future reader (pending is monotone in-epoch).
      shard.bytes -= entry.bytes;
      shard.lru.erase(entry.lru);
      shard.map.erase(it);
    }
    return nullptr;
  }
  counters.hits.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru);
  return entry.answers;
}

std::vector<KeywordMatch> QueryCache::ResolveThrough(
    const KeywordResolver& resolver, const QueryTerm& term,
    const MatchOptions& match, uint64_t epoch, uint64_t pending) {
  const std::string key = ResolutionKey(term, match);
  Shard& shard = shard_for(key);
  Counters& counters = counters_for(key);
  {
    util::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      Entry& entry = it->second;
      const bool valid =
          entry.epoch == epoch &&
          (entry.pending == pending ||
           (entry.pending < pending &&
            ResolutionStillValid(*entry.resolution, term, match, epoch,
                                 entry.pending)));
      if (valid) {
        counters.resolution_hits.fetch_add(1, std::memory_order_relaxed);
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru);
        return entry.resolution->matches;
      }
      counters.resolution_invalidations.fetch_add(1,
                                                  std::memory_order_relaxed);
      if (entry.epoch != epoch || entry.pending < pending) {
        shard.bytes -= entry.bytes;
        shard.lru.erase(entry.lru);
        shard.map.erase(it);
      }
    } else {
      counters.resolution_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ResolutionProvenance provenance;
  CachedResolution value;
  value.matches = resolver.ResolveScored(term, match, &provenance);
  value.tokens = std::move(provenance.tokens);
  value.tables = std::move(provenance.tables);
  value.numeric = provenance.numeric;
  std::vector<KeywordMatch> matches = value.matches;
  StoreResolution(key, epoch, pending, std::move(value));
  return matches;
}

QueryCache::FlightJoin QueryCache::JoinFlight(
    std::string key, uint64_t epoch, uint64_t pending,
    std::vector<std::vector<KeywordMatch>> keyword_matches,
    std::vector<size_t> dropped_terms) {
  // The flight key binds the computation to one exact publication: a
  // mutation bumping `pending` mid-flight simply opens a fresh flight,
  // and the stale one drains out when its leader finishes.
  std::string flight_key = key;
  flight_key.push_back('@');
  flight_key.append(std::to_string(epoch));
  flight_key.push_back('/');
  flight_key.append(std::to_string(pending));

  FlightJoin join;
  util::MutexLock lock(&flights_mu_);
  auto it = flights_.find(flight_key);
  if (it != flights_.end()) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    join.flight = std::make_shared<FlightFollower>(it->second);
    return join;
  }
  auto flight = std::make_shared<FlightState>();
  flights_.emplace(flight_key, flight);
  join.sink = std::make_shared<FlightFill>(
      this, std::move(key), epoch, pending, std::move(keyword_matches),
      std::move(dropped_terms), std::move(flight), std::move(flight_key));
  return join;
}

void QueryCache::FinishFlight(const std::string& flight_key) {
  util::MutexLock lock(&flights_mu_);
  flights_.erase(flight_key);
}

void QueryCache::StoreAnswers(const std::string& key, uint64_t epoch,
                              uint64_t pending, CachedAnswers value) {
  Entry entry;
  entry.epoch = epoch;
  entry.pending = pending;
  entry.bytes = EstimateBytes(value) + key.size();
  entry.answers = std::make_shared<const CachedAnswers>(std::move(value));
  Shard& shard = shard_for(key);
  Counters& counters = counters_for(key);
  util::MutexLock lock(&shard.mu);
  InsertLocked(shard, counters, key, std::move(entry));
}

void QueryCache::StoreResolution(const std::string& key, uint64_t epoch,
                                 uint64_t pending, CachedResolution value) {
  Entry entry;
  entry.epoch = epoch;
  entry.pending = pending;
  entry.bytes = EstimateBytes(value) + key.size();
  entry.resolution = std::make_shared<const CachedResolution>(std::move(value));
  Shard& shard = shard_for(key);
  Counters& counters = counters_for(key);
  util::MutexLock lock(&shard.mu);
  InsertLocked(shard, counters, key, std::move(entry));
}

void QueryCache::InsertLocked(Shard& shard, Counters& counters,
                              const std::string& key, Entry entry) {
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Replace in place: a racing open may have stored a newer publication.
    // Keep whichever is newer so the common (latest-state) reader wins.
    Entry& old = it->second;
    if (std::make_pair(old.epoch, old.pending) >
        std::make_pair(entry.epoch, entry.pending)) {
      return;
    }
    shard.bytes -= old.bytes;
    entry.lru = old.lru;
    shard.bytes += entry.bytes;
    old = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, old.lru);
  } else {
    shard.lru.push_front(key);
    entry.lru = shard.lru.begin();
    shard.bytes += entry.bytes;
    shard.map.emplace(key, std::move(entry));
  }
  counters.insertions.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > max_bytes_per_shard_ && shard.map.size() > 1) {
    const std::string& victim_key = shard.lru.back();
    auto victim = shard.map.find(victim_key);
    shard.bytes -= victim->second.bytes;
    shard.map.erase(victim);
    shard.lru.pop_back();
    counters.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool QueryCache::ResolutionStillValid(const CachedResolution& r,
                                      const QueryTerm& term,
                                      const MatchOptions& match,
                                      uint64_t epoch, uint64_t entry_pending) {
  if (r.numeric) return false;  // live column reads; no provenance tokens
  util::MutexLock lock(&journal_mu_);
  // The journal proves absence only for the epoch it is bound to, and
  // only while it kept every touched token (no overflow).
  if (journal_epoch_ != epoch || journal_overflow_) return false;
  for (const auto& token : r.tokens) {
    auto it = touched_tokens_.find(token);
    if (it != touched_tokens_.end() && it->second > entry_pending) {
      return false;
    }
  }
  for (uint32_t table : r.tables) {
    auto it = touched_tables_.find(table);
    if (it != touched_tables_.end() && it->second > entry_pending) {
      return false;
    }
  }
  if (match.approx.enable) {
    // A token journaled since may have entered the delta vocabulary the
    // expansion ranks: any token it could have admitted makes the entry
    // stale, whatever rank it would have taken.
    const ApproxMatchOptions& approx = match.approx;
    const std::string& t = term.keyword;
    for (const auto& [token, touched_at] : touched_tokens_) {
      if (touched_at <= entry_pending) continue;
      if (token == t ||
          BoundedEditDistance(t, token, approx.max_edit_distance) <=
              approx.max_edit_distance ||
          (approx.allow_prefix && StartsWith(token, t))) {
        return false;
      }
    }
  }
  return true;
}

void QueryCache::OnMutationsApplied(uint64_t epoch, uint64_t pending,
                                    const std::vector<std::string>& tokens,
                                    const std::vector<uint32_t>& tables) {
  util::MutexLock lock(&journal_mu_);
  if (journal_epoch_ != epoch) {
    // Defensive rebind (normally OnRefreeze did this already).
    journal_epoch_ = epoch;
    journal_overflow_ = false;
    touched_tokens_.clear();
    touched_tables_.clear();
  }
  for (const auto& token : tokens) touched_tokens_[token] = pending;
  for (uint32_t table : tables) touched_tables_[table] = pending;
  if (touched_tokens_.size() > kJournalTokenCap) journal_overflow_ = true;
}

size_t QueryCache::OnRefreeze(uint64_t epoch) {
  {
    util::MutexLock lock(&journal_mu_);
    journal_epoch_ = epoch;
    journal_overflow_ = false;
    touched_tokens_.clear();
    touched_tables_.clear();
  }
  size_t purged = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    util::MutexLock lock(&shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->second.epoch != epoch) {
        shard.bytes -= it->second.bytes;
        shard.lru.erase(it->second.lru);
        it = shard.map.erase(it);
        ++purged;
        counters_[i].purged.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  return purged;
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats out;
  for (const Counters& c : counters_) {
    out.hits += c.hits.load(std::memory_order_relaxed);
    out.misses += c.misses.load(std::memory_order_relaxed);
    out.invalidations += c.invalidations.load(std::memory_order_relaxed);
    out.resolution_hits += c.resolution_hits.load(std::memory_order_relaxed);
    out.resolution_misses +=
        c.resolution_misses.load(std::memory_order_relaxed);
    out.resolution_invalidations +=
        c.resolution_invalidations.load(std::memory_order_relaxed);
    out.evictions += c.evictions.load(std::memory_order_relaxed);
    out.insertions += c.insertions.load(std::memory_order_relaxed);
    out.purged += c.purged.load(std::memory_order_relaxed);
  }
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    out.bytes += shard.bytes;
    out.entries += shard.map.size();
  }
  return out;
}

}  // namespace banks::server
