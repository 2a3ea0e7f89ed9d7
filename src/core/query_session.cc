#include "core/query_session.h"

#include <utility>

namespace banks {

QuerySession::QuerySession(QuerySessionInit init)
    : searcher_(std::move(init.searcher)),
      parsed_(std::move(init.parsed)),
      keyword_matches_(std::move(init.keyword_matches)),
      keyword_nodes_(std::move(init.keyword_nodes)),
      dropped_terms_(std::move(init.dropped_terms)),
      active_terms_(std::move(init.active_terms)),
      dg_(std::move(init.dg)),
      delta_(std::move(init.delta)),
      policy_(std::move(init.policy)),
      hidden_table_ids_(std::move(init.hidden_table_ids)),
      deliver_cap_(init.deliver_cap),
      cache_sink_(std::move(init.cache_sink)),
      prefilled_(std::move(init.prefilled)),
      prefilled_stats_(init.prefilled_stats),
      prefilled_mode_(init.prefilled_mode) {
  if (searcher_ != nullptr) {
    searcher_->set_budget(init.budget);
    searcher_->BeginScored(init.active_sets);
    stream_ = AnswerStream(searcher_.get());
  }
}

bool QuerySession::Visible(const ConnectionTree& tree) const {
  if (hidden_table_ids_.empty()) return true;
  return policy_.AnswerVisible(tree, *dg_, hidden_table_ids_, delta_.get());
}

// Re-maps leaf_for_term of one answer back to the original term indexes
// when terms were dropped (partial matching): dropped slots stay
// kInvalidNode so callers see one slot per query term.
void QuerySession::RemapDroppedTerms(ConnectionTree* tree) const {
  if (dropped_terms_.empty()) return;
  std::vector<NodeId> remapped(parsed_.terms.size(), kInvalidNode);
  std::vector<double> remapped_rel(parsed_.terms.size(), 1.0);
  for (size_t j = 0; j < tree->leaf_for_term.size(); ++j) {
    remapped[active_terms_[j]] = tree->leaf_for_term[j];
    if (j < tree->leaf_relevance.size()) {
      remapped_rel[active_terms_[j]] = tree->leaf_relevance[j];
    }
  }
  tree->leaf_for_term = std::move(remapped);
  tree->leaf_relevance = std::move(remapped_rel);
}

// Only ever called with lookahead_ empty; the delivered count and rank are
// assigned at delivery (in Next()), not here, so an answer held in the
// lookahead slot and then discarded by Cancel() is never counted.
std::optional<ScoredAnswer> QuerySession::PullFiltered() {
  if (delivered_ >= deliver_cap_) return std::nullopt;
  if (prefilled_mode_) {
    // Cache-hit replay: the answers were stored post-filter/post-remap by
    // an identical run, so re-filtering/re-remapping would corrupt them.
    if (prefilled_pos_ >= prefilled_.size()) return std::nullopt;
    return std::move(prefilled_[prefilled_pos_++]);
  }
  while (auto answer = stream_.Next()) {
    if (!Visible(answer->tree)) continue;  // auth: skip hidden answers
    RemapDroppedTerms(&answer->tree);
    return answer;
  }
  MaybePublishFill();  // natural exhaustion: the run completed
  return std::nullopt;
}

// Copies each delivered answer (rank already assigned) into the pending
// cache fill. No-op without a sink.
void QuerySession::RecordDelivery(const ScoredAnswer& answer) {
  if (cache_sink_ != nullptr) fill_.push_back(answer);
}

// Admits the run to the cache iff it finished naturally: not cancelled,
// not truncated by a budget (a deadline attached mid-stream via
// set_budget can truncate even an open-unlimited session). At most once:
// the sink is consumed either way.
void QuerySession::MaybePublishFill() {
  if (cache_sink_ == nullptr) return;
  std::shared_ptr<AnswerCacheSink> sink = std::move(cache_sink_);
  cache_sink_.reset();
  if (stream_.cancelled() || stats().truncated()) {
    fill_.clear();
    return;
  }
  sink->Publish(std::move(fill_), stats());
  fill_.clear();
}

std::optional<ScoredAnswer> QuerySession::Next() {
  std::optional<ScoredAnswer> answer;
  if (lookahead_.has_value()) {
    answer = std::move(lookahead_);
    lookahead_.reset();
  } else {
    answer = PullFiltered();
  }
  if (answer.has_value()) {
    answer->rank = delivered_++;
    RecordDelivery(*answer);
  }
  return answer;
}

bool QuerySession::HasNext() {
  // Auth filtering means the stream having emissions left does not imply a
  // *visible* answer is left, so look ahead by one and hold it.
  if (!lookahead_.has_value()) lookahead_ = PullFiltered();
  return lookahead_.has_value();
}

PumpOutcome QuerySession::PumpSlice(size_t max_steps,
                                    std::optional<ScoredAnswer>* out) {
  out->reset();
  if (lookahead_.has_value()) {  // HasNext() may have buffered one
    *out = std::move(lookahead_);
    lookahead_.reset();
    (*out)->rank = delivered_++;
    RecordDelivery(**out);
    return PumpOutcome::kAnswerReady;
  }
  if (delivered_ >= deliver_cap_) return PumpOutcome::kExhausted;
  if (prefilled_mode_) {
    std::optional<ScoredAnswer> answer = PullFiltered();
    if (!answer.has_value()) return PumpOutcome::kExhausted;
    *out = std::move(answer);
    (*out)->rank = delivered_++;
    return PumpOutcome::kAnswerReady;
  }
  PumpOutcome outcome = stream_.TryNext(max_steps, out);
  if (outcome != PumpOutcome::kAnswerReady) {
    if (outcome == PumpOutcome::kExhausted) MaybePublishFill();
    return outcome;
  }
  if (!Visible((*out)->tree)) {
    // One hidden answer consumed (part of) the slice; yield so a
    // cooperative scheduler re-evaluates before more work happens here.
    out->reset();
    return PumpOutcome::kYielded;
  }
  RemapDroppedTerms(&(*out)->tree);
  (*out)->rank = delivered_++;
  RecordDelivery(**out);
  return PumpOutcome::kAnswerReady;
}

PumpOutcome QuerySession::PumpMany(size_t max_steps,
                                   std::vector<ScoredAnswer>* out) {
  if (lookahead_.has_value()) {  // HasNext() may have buffered one
    lookahead_->rank = delivered_++;
    RecordDelivery(*lookahead_);
    out->push_back(std::move(*lookahead_));
    lookahead_.reset();
  }
  if (prefilled_mode_) {
    // Each replayed answer counts one slice unit so a slice terminates.
    for (size_t used = 0; used < max_steps; ++used) {
      if (delivered_ >= deliver_cap_) return PumpOutcome::kExhausted;
      std::optional<ScoredAnswer> one = PullFiltered();
      if (!one.has_value()) return PumpOutcome::kExhausted;
      one->rank = delivered_++;
      out->push_back(std::move(*one));
    }
    return PumpOutcome::kYielded;
  }
  size_t used = 0;
  for (;;) {
    if (delivered_ >= deliver_cap_) return PumpOutcome::kExhausted;
    const size_t before = stream_.pump_steps();
    std::optional<ScoredAnswer> one;
    PumpOutcome outcome = stream_.TryNext(max_steps - used, &one);
    // Buffered answers cost no stepper work; still count one unit so a
    // slice always terminates.
    used += std::max<size_t>(1, stream_.pump_steps() - before);
    if (outcome == PumpOutcome::kAnswerReady) {
      // Hidden (auth-filtered) answers are simply skipped within the
      // slice; the searcher oversamples to compensate (see deliver_cap_).
      if (Visible(one->tree)) {
        RemapDroppedTerms(&one->tree);
        one->rank = delivered_++;
        RecordDelivery(*one);
        out->push_back(std::move(*one));
      }
    } else if (outcome == PumpOutcome::kExhausted) {
      MaybePublishFill();
      return PumpOutcome::kExhausted;
    }
    if (used >= max_steps) return PumpOutcome::kYielded;
  }
}

std::vector<ConnectionTree> QuerySession::NextBatch(size_t k) {
  std::vector<ConnectionTree> page;
  page.reserve(k);
  while (page.size() < k) {
    auto answer = Next();
    if (!answer.has_value()) break;
    page.push_back(std::move(answer->tree));
  }
  return page;
}

std::vector<ConnectionTree> QuerySession::Drain() {
  std::vector<ConnectionTree> rest;
  while (auto answer = Next()) rest.push_back(std::move(answer->tree));
  return rest;
}

QueryResult QuerySession::DrainToResult() {
  QueryResult result;
  result.answers = Drain();
  result.parsed = std::move(parsed_);
  result.keyword_nodes = std::move(keyword_nodes_);
  result.keyword_matches = std::move(keyword_matches_);
  result.dropped_terms = dropped_terms_;
  result.stats = stats();
  return result;
}

void QuerySession::Cancel() {
  lookahead_.reset();
  cache_sink_.reset();  // an abandoned run is never admitted to the cache
  fill_.clear();
  stream_.Cancel();
}

void QuerySession::set_budget(const Budget& budget) {
  if (searcher_ != nullptr) searcher_->set_budget(budget);
}

const Budget& QuerySession::budget() const {
  static const Budget kUnlimited{};
  return searcher_ == nullptr ? kUnlimited : searcher_->budget();
}

}  // namespace banks
