#include "server/query_cache.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/hash.h"

namespace banks::server {
namespace {

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

size_t EstimateBytes(const CachedAnswers& v) {
  size_t bytes = sizeof(CachedAnswers);
  for (const auto& a : v.answers) {
    bytes += sizeof(ScoredAnswer) + a.tree.edges.size() * sizeof(TreeEdge) +
             a.tree.leaf_for_term.size() * sizeof(NodeId) +
             a.tree.leaf_relevance.size() * sizeof(double);
  }
  for (const auto& set : v.keyword_matches) {
    bytes += sizeof(set) + set.size() * sizeof(KeywordMatch);
  }
  bytes += v.dropped_terms.size() * sizeof(size_t);
  return bytes;
}

// Admits one completed run. Constructed by QueryCache::MakeAnswerFill so
// the engine never touches the store surface directly.
class AnswerFill final : public AnswerCacheSink {
 public:
  AnswerFill(QueryCache* cache, std::string key, uint64_t epoch,
             uint64_t pending,
             std::vector<std::vector<KeywordMatch>> keyword_matches,
             std::vector<size_t> dropped_terms)
      : cache_(cache),
        key_(std::move(key)),
        epoch_(epoch),
        pending_(pending),
        keyword_matches_(std::move(keyword_matches)),
        dropped_terms_(std::move(dropped_terms)) {}

  void Publish(std::vector<ScoredAnswer> answers,
               const SearchStats& stats) override {
    CachedAnswers value;
    value.answers = std::move(answers);
    value.stats = stats;
    value.keyword_matches = std::move(keyword_matches_);
    value.dropped_terms = std::move(dropped_terms_);
    cache_->StoreAnswers(key_, epoch_, pending_, std::move(value));
  }

 private:
  QueryCache* cache_;
  std::string key_;
  uint64_t epoch_;
  uint64_t pending_;
  std::vector<std::vector<KeywordMatch>> keyword_matches_;
  std::vector<size_t> dropped_terms_;
};

}  // namespace

QueryCache::QueryCache(size_t max_bytes, size_t shards)
    : max_bytes_per_shard_(std::max<size_t>(
          1, max_bytes / RoundUpPow2(std::max<size_t>(1, shards)))),
      shard_mask_(RoundUpPow2(std::max<size_t>(1, shards)) - 1),
      shards_(shard_mask_ + 1),
      counters_(shard_mask_ + 1) {}

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

std::shared_ptr<AnswerCacheSink> QueryCache::MakeAnswerFill(
    std::string key, uint64_t epoch, uint64_t pending,
    std::vector<std::vector<KeywordMatch>> keyword_matches,
    std::vector<size_t> dropped_terms) {
  return std::make_shared<AnswerFill>(this, std::move(key), epoch, pending,
                                      std::move(keyword_matches),
                                      std::move(dropped_terms));
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

size_t QueryCache::OnRefreeze(uint64_t epoch) {
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
    out.evictions += c.evictions.load(std::memory_order_relaxed);
    out.insertions += c.insertions.load(std::memory_order_relaxed);
    out.purged += c.purged.load(std::memory_order_relaxed);
  }
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    out.bytes += shard.bytes;
    out.entries += shard.map.size();
  }
  return out;
}

}  // namespace banks::server
