#include "core/banks.h"

#include <utility>

#include "server/query_cache.h"
#include "server/session_pool.h"
#include "update/state_compare.h"
#include "util/timer.h"

namespace banks {

BanksEngine::BanksEngine(Database db, BanksOptions options)
    : db_(std::move(db)),
      options_(std::move(options)),
      updater_(&db_, &options_) {
  // Resolve excluded root tables to ids once (the coordinator only holds
  // a pointer to options_, so mutating it here is still safe).
  for (const auto& name : options_.excluded_root_tables) {
    const Table* t = db_.table(name);
    if (t != nullptr) {
      options_.search.excluded_root_tables.insert(t->id());
    }
  }
  // Epoch 0: the initial frozen state. Everything inside a published
  // LiveState is immutable, so the concurrent query path is thread-safe;
  // mutations publish new states instead of touching this one. No thread
  // can contend yet, but the locks are taken anyway: they cost nothing
  // and keep the constructor inside the annotated locking discipline.
  if (options_.cache.enabled) {
    cache_ = std::make_unique<server::QueryCache>(options_.cache.max_bytes,
                                                  options_.cache.shards);
  }
  util::MutexLock serialize(updater_.mu());
  util::WriterMutexLock lock(&state_mu_);
  // Attach the cache before the first epoch begins so every refreeze
  // purges the entries of the epoch it retires.
  updater_.AttachCache(cache_.get());
  state_ = updater_.Rebuild(/*epoch=*/0);
  updater_.BeginEpoch(state_->dg);
}

BanksEngine::BanksEngine(FromSnapshotTag, Database db, BanksOptions options,
                         LiveStateSnapshot loaded)
    : db_(std::move(db)),
      options_(std::move(options)),
      updater_(&db_, &options_) {
  for (const auto& name : options_.excluded_root_tables) {
    const Table* t = db_.table(name);
    if (t != nullptr) {
      options_.search.excluded_root_tables.insert(t->id());
    }
  }
  if (options_.cache.enabled) {
    cache_ = std::make_unique<server::QueryCache>(options_.cache.max_bytes,
                                                  options_.cache.shards);
  }
  util::MutexLock serialize(updater_.mu());
  util::WriterMutexLock lock(&state_mu_);
  updater_.AttachCache(cache_.get());
  // Adopt the mapped state instead of deriving one: the coordinator
  // records the loaded epoch (cache invalidation keys off it) and begins
  // its overlay generation on the mapped graph. The merge path's link
  // cache is not persisted, so the first refreeze falls back to a full
  // rebuild — correct, just not O(delta).
  state_ = std::move(loaded);
  updater_.AdoptEpoch(state_->epoch);
  updater_.BeginEpoch(state_->dg);
}

Result<std::unique_ptr<BanksEngine>> BanksEngine::FromSnapshot(
    Database db, const std::string& path, BanksOptions options) {
  snapshot::SnapshotOpenOptions open_options;
  open_options.expect_db_fingerprint = snapshot::DatabaseFingerprint(db);
  auto opened = snapshot::OpenSnapshot(path, open_options);
  if (!opened.ok()) return opened.status();
  auto engine = std::unique_ptr<BanksEngine>(
      // make_unique cannot reach the private tag constructor.
      new BanksEngine(FromSnapshotTag{},  // banks-lint: allow(raw-new)
                      std::move(db), std::move(options),
                      opened.value().state));
  engine->snapshot_epoch_.store(opened.value().epoch,
                                std::memory_order_relaxed);
  engine->snapshot_bytes_.store(opened.value().file_bytes,
                                std::memory_order_relaxed);
  return engine;
}

Result<snapshot::SnapshotWriteStats> BanksEngine::SaveSnapshot(
    const std::string& path) {
  util::MutexLock serialize(updater_.mu());
  if (updater_.pending() > 0) {
    RefreezeLocked();  // a snapshot always captures a complete epoch
  }
  auto stats = snapshot::WriteSnapshot(*state(), path,
                                       snapshot::DatabaseFingerprint(db_));
  if (stats.ok()) {
    snapshot_epoch_.store(stats.value().epoch, std::memory_order_relaxed);
    snapshot_bytes_.store(stats.value().file_bytes,
                          std::memory_order_relaxed);
  }
  return stats;
}

BanksEngine::~BanksEngine() = default;

LiveStateSnapshot BanksEngine::state() const {
  util::ReaderMutexLock lock(&state_mu_);
  return state_;
}

server::SessionPool& BanksEngine::pool() const {
  return pool(server::PoolOptions{});
}

server::SessionPool& BanksEngine::pool(
    const server::PoolOptions& options) const {
  util::MutexLock lock(&pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<server::SessionPool>(*this, options);
  }
  return *pool_;
}

Result<server::SessionHandle> BanksEngine::SubmitQuery(
    const QueryRequest& request) const {
  return pool().Submit(request);
}

// ---------------------------------------------------------- live updates

Result<Rid> BanksEngine::InsertTuple(const std::string& table, Tuple tuple) {
  return Apply(Mutation::Insert(table, std::move(tuple)));
}

Status BanksEngine::DeleteTuple(Rid rid) {
  return Apply(Mutation::Delete(rid)).status();
}

Status BanksEngine::UpdateValue(Rid rid, const std::string& column,
                                Value value) {
  return Apply(Mutation::Update(rid, column, std::move(value))).status();
}

Result<Rid> BanksEngine::Apply(Mutation mutation) {
  // A single mutation is a batch of one — identical locking, publication
  // and refreeze-trigger semantics, one code path to maintain.
  std::vector<Mutation> one;
  one.push_back(std::move(mutation));
  return std::move(ApplyBatch(std::move(one)).front());
}

std::vector<Result<Rid>> BanksEngine::ApplyBatch(
    std::vector<Mutation> mutations) {
  util::MutexLock serialize(updater_.mu());
  std::vector<Result<Rid>> results;
  bool any_applied = false;
  {
    // Database writes and state publication happen under one exclusive
    // state-lock window for the whole batch: a concurrent
    // OpenSession/Render sees either the pre-batch state with the old
    // rows or the fully-applied state with the new ones, never a
    // half-applied pair.
    util::WriterMutexLock lock(&state_mu_);
    results = updater_.ApplyBatch(std::move(mutations));
    for (const auto& r : results) any_applied |= r.ok();
    if (any_applied) {
      auto next = std::make_shared<LiveState>(*state_);
      next->delta = updater_.delta();
      next->index_delta = updater_.index_delta();
      next->pending_mutations = updater_.pending();
      state_ = std::move(next);
    }
  }
  if (any_applied && updater_.ShouldRefreeze()) {
    RefreezeLocked();  // once per batch (update mutex still held; queries
                       // keep serving)
  }
  return results;
}

Result<RefreezeStats> BanksEngine::Refreeze(bool force) {
  util::MutexLock serialize(updater_.mu());
  if (!force && updater_.pending() == 0) {
    RefreezeStats stats;
    {
      util::ReaderMutexLock lock(&state_mu_);
      stats.epoch = state_->epoch;
      stats.nodes = state_->dg->graph.num_nodes();
      stats.edges = state_->dg->graph.num_edges();
    }
    return stats;  // nothing to absorb
  }
  return RefreezeLocked();
}

RefreezeStats BanksEngine::RefreezeLocked() {
  // Off the serving path: the rebuild reads the database with *no* state
  // lock held. The update mutex (held here, by contract) excludes every
  // writer, so the database is quiescent; concurrent readers only ever
  // read it. Sessions keep opening on the current state until the swap
  // below.
  Timer timer;
  RefreezeStats stats;
  stats.mutations_absorbed = updater_.pending();
  const LiveStateSnapshot current = state();
  const uint64_t next_epoch = current->epoch + 1;
  LiveStateSnapshot fresh;
  if (options_.update.merge_refreeze && updater_.CanMergeRefreeze()) {
    fresh = updater_.MergeRebuild(next_epoch, *current);
    stats.merged = true;
    if (options_.update.verify_merge_refreeze) {
      // Oracle mode: the from-scratch rebuild must be byte-identical; on
      // disagreement the (always-correct) full rebuild is what ships.
      stats.verified = true;
      LiveStateSnapshot full = updater_.Rebuild(next_epoch);
      if (!LiveStatesIdentical(*fresh, *full)) {
        fresh = std::move(full);
        stats.merged = false;
        stats.verify_mismatch = true;
      }
    }
  } else {
    fresh = updater_.Rebuild(next_epoch);
  }
  stats.rebuild_ms = timer.Millis();
  stats.epoch = next_epoch;
  stats.nodes = fresh->dg->graph.num_nodes();
  stats.edges = fresh->dg->graph.num_edges();
  {
    // The atomic swap: in-flight sessions hold the pieces of the state
    // they opened on and are untouched; new sessions land on the fresh
    // epoch, delta-free.
    util::WriterMutexLock lock(&state_mu_);
    state_ = std::move(fresh);
  }
  // BeginEpoch also purges dead-epoch query-cache entries: sessions opened
  // from here on see the new epoch, so entries of the old one can never
  // validate again.
  stats.cache_entries_purged = updater_.BeginEpoch(state()->dg);
  if (!options_.update.snapshot_path.empty()) {
    // Epoch rotation: persist the just-published state. Still off the
    // serving path (only the update mutex is held); the writer lands the
    // file with tmp-write + atomic rename, so a crash mid-write leaves
    // the previous epoch's file intact. A failed write never fails the
    // refreeze — serving already moved on.
    auto written = snapshot::WriteSnapshot(*state(),
                                           options_.update.snapshot_path,
                                           snapshot::DatabaseFingerprint(db_));
    if (written.ok()) {
      stats.snapshot_write_ms = written.value().write_ms;
      stats.snapshot_bytes = written.value().file_bytes;
      snapshot_epoch_.store(written.value().epoch, std::memory_order_relaxed);
      snapshot_bytes_.store(written.value().file_bytes,
                            std::memory_order_relaxed);
    } else {
      stats.snapshot_failed = true;
    }
  }
  return stats;
}

server::QueryCacheStats BanksEngine::query_cache_stats() const {
  return cache_ == nullptr ? server::QueryCacheStats{} : cache_->stats();
}

uint64_t BanksEngine::epoch() const { return state()->epoch; }

uint64_t BanksEngine::pending_mutations() const {
  return state()->pending_mutations;
}

uint64_t BanksEngine::total_mutations() const {
  util::MutexLock serialize(updater_.mu());
  return updater_.log().total();
}

// ------------------------------------------------------------- queries

Result<QuerySession> BanksEngine::OpenSession(
    const QueryRequest& request) const {
  return OpenSessionImpl(request);
}

Result<QueryResult> BanksEngine::Search(const QueryRequest& request) const {
  auto session = OpenSessionImpl(request);
  if (!session.ok()) return session.status();
  return std::move(session).value().DrainToResult();
}

Result<QuerySession> BanksEngine::OpenSessionImpl(
    const QueryRequest& request) const {
  // Resolve unset per-request knobs to the engine defaults.
  SearchOptions search = request.search ? *request.search : options_.search;
  const MatchOptions& match = request.match ? *request.match : options_.match;
  const Budget budget = request.budget;
  const AuthPolicy* policy = request.auth ? &*request.auth : nullptr;
  const std::string& query_text = request.text;
  // Merge engine-level root exclusions into the per-query options.
  for (uint32_t t : options_.search.excluded_root_tables) {
    search.excluded_root_tables.insert(t);
  }
  if (policy != nullptr && !policy->HidesAnything()) policy = nullptr;

  QuerySessionInit init;
  init.parsed = ParseQuery(query_text);
  if (init.parsed.terms.empty()) {
    return Status::InvalidArgument("query contains no keywords: '" +
                                   query_text + "'");
  }
  if (init.parsed.terms.size() > 64) {
    return Status::InvalidArgument("too many keywords (max 64)");
  }

  // Keyword resolution reads the database (attribute checks, metadata
  // expansion), so it runs under the shared state lock: the captured
  // state and the rows it reads are a consistent pair even while writers
  // publish mutations. Everything after the lock drops touches only the
  // immutable pieces captured in `st`.
  // Answer-cache eligibility: auth results are never cached (§7 answers
  // depend on the policy, and the oversampling below changes the run), and
  // budgeted runs may truncate, so neither probes nor fills the cache.
  const bool cacheable =
      cache_ != nullptr && policy == nullptr && budget.Unlimited();
  std::string answer_key;
  bool cache_hit = false;

  LiveStateSnapshot st;
  {
    util::ReaderMutexLock lock(&state_mu_);
    st = state_;

    if (cacheable) {
      answer_key =
          server::QueryCache::AnswerKey(init.parsed, search, match);
      if (auto hit = cache_->FindAnswers(answer_key, st->epoch,
                                         st->pending_mutations)) {
        // Full hit: replay the cached run. The answers were stored at
        // delivery (ranks re-assigned on replay), and the entry was
        // validated against this exact (epoch, pending), so the replay is
        // byte-identical to a live run on this state.
        init.keyword_matches = hit->keyword_matches;
        init.dropped_terms = hit->dropped_terms;
        init.prefilled = hit->answers;
        init.prefilled_stats = hit->stats;
        init.prefilled_mode = true;
        cache_hit = true;
      }
    }
    if (!cache_hit) {
      KeywordResolver resolver(db_, *st->dg, *st->index, *st->metadata,
                               st->numeric.get(), st->delta.get(),
                               st->index_delta.get());
      std::vector<std::vector<KeywordMatch>> matches =
          resolver.ResolveAllScored(init.parsed, match);

      // Reported matches: under authorization, keyword matches in hidden
      // tables are invisible to the user (the search itself still traverses
      // them; answers touching hidden data are filtered by the session).
      std::unordered_set<uint32_t> hidden_ids;
      if (policy != nullptr) hidden_ids = policy->HiddenTableIds(db_);
      init.keyword_matches = matches;
      if (!hidden_ids.empty()) {
        for (auto& set : init.keyword_matches) {
          std::vector<KeywordMatch> kept;
          for (const auto& m : set) {
            Rid rid = ResolveRidForNode(*st->dg, st->delta.get(), m.node);
            if (!hidden_ids.count(rid.table_id)) kept.push_back(m);
          }
          set = std::move(kept);
        }
      }
      init.hidden_table_ids = std::move(hidden_ids);

      // Partial matching: drop empty terms rather than failing the query.
      for (size_t i = 0; i < matches.size(); ++i) {
        if (matches[i].empty()) {
          init.dropped_terms.push_back(i);
        } else {
          init.active_sets.push_back(std::move(matches[i]));
          init.active_terms.push_back(i);
        }
      }
    }
  }
  init.keyword_nodes.reserve(init.keyword_matches.size());
  for (const auto& set : init.keyword_matches) {
    std::vector<NodeId> nodes;
    nodes.reserve(set.size());
    for (const auto& m : set) nodes.push_back(m.node);
    init.keyword_nodes.push_back(std::move(nodes));
  }
  if (cache_hit) {
    // No searcher: the session replays the cached answers verbatim.
    init.dg = st->dg;
    init.delta = st->delta;
    return QuerySession(std::move(init));
  }

  const bool viable =
      !init.active_sets.empty() &&
      (options_.allow_partial_match || init.dropped_terms.empty());
  if (!viable) {
    // Mirror the strict model: no answers (every answer must contain at
    // least one node per S_i, and some S_i is empty). The session opens
    // already exhausted but still reports the resolved matches — and
    // still carries its snapshot so graph_snapshot() is always valid.
    init.hidden_table_ids.clear();
    init.dg = st->dg;
    init.delta = st->delta;
    return QuerySession(std::move(init));
  }

  init.dg = st->dg;
  init.delta = st->delta;
  init.budget = budget;
  if (policy != nullptr) {
    // Hidden tuples must not reach the user, yet may sit inside connection
    // trees: the session drops answers touching hidden data as the stream
    // is consumed. Oversample so enough visible answers survive.
    init.policy = *policy;
    init.deliver_cap = search.max_answers;
    search.max_answers *= 4;
  } else {
    init.hidden_table_ids.clear();
    if (cacheable) {
      // Viable, policy-free, unlimited: admit the run's answers if it
      // finishes naturally (the session drops the sink on Cancel or any
      // budget truncation attached mid-stream).
      init.cache_sink = cache_->MakeAnswerFill(
          std::move(answer_key), st->epoch, st->pending_mutations,
          init.keyword_matches, init.dropped_terms);
    }
  }
  // Strategy selection (§3 backward by default; forward / bidirectional
  // via SearchOptions::strategy).
  init.searcher =
      CreateExpansionSearch(*st->dg, std::move(search), st->delta.get());
  return QuerySession(std::move(init));
}

std::string BanksEngine::Render(const ConnectionTree& tree) const {
  util::ReaderMutexLock lock(&state_mu_);
  return RenderAnswer(tree, *state_->dg, db_, state_->delta.get());
}

std::string BanksEngine::RootLabel(const ConnectionTree& tree) const {
  util::ReaderMutexLock lock(&state_mu_);
  return NodeLabel(tree.root, *state_->dg, db_, state_->delta.get());
}

Result<uint32_t> BanksEngine::TableId(const std::string& table) const {
  util::ReaderMutexLock lock(&state_mu_);
  const Table* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table: '" + table + "'");
  return t->id();
}

}  // namespace banks
