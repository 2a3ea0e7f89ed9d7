#include "core/expansion_search_base.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

#include "core/backward_search.h"
#include "core/bidirectional_search.h"
#include "core/forward_search.h"

namespace banks {

const char* SearchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kBackward: return "backward";
    case SearchStrategy::kForward: return "forward";
    case SearchStrategy::kBidirectional: return "bidirectional";
  }
  return "unknown";
}

const char* SearchStrategyNames() {
  return "backward|forward|bidirectional (alias: bidi)";
}

bool ParseSearchStrategy(const std::string& name, SearchStrategy* out) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "backward") {
    *out = SearchStrategy::kBackward;
  } else if (lower == "forward") {
    *out = SearchStrategy::kForward;
  } else if (lower == "bidirectional" || lower == "bidi") {
    *out = SearchStrategy::kBidirectional;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<ExpansionSearchBase> CreateExpansionSearch(
    const DataGraph& dg, SearchOptions options, const DeltaGraph* delta) {
  switch (options.strategy) {
    case SearchStrategy::kForward:
      return std::make_unique<ForwardSearch>(dg, std::move(options), delta);
    case SearchStrategy::kBidirectional:
      return std::make_unique<BidirectionalSearch>(dg, std::move(options),
                                                   delta);
    case SearchStrategy::kBackward:
      break;
  }
  return std::make_unique<BackwardSearch>(dg, std::move(options), delta);
}

ExpansionSearchBase::ExpansionSearchBase(const DataGraph& dg,
                                         SearchOptions options,
                                         const DeltaGraph* delta)
    : dg_(&dg),
      delta_(delta),
      options_(std::move(options)),
      scorer_(std::make_unique<Scorer>(dg.graph, options_.scoring, delta)),
      output_heap_(options_.exhaustive ? SIZE_MAX / 2
                                       : options_.output_heap_size) {
  for (uint32_t t : options_.excluded_root_tables) {
    if (t >= excluded_tables_.size()) excluded_tables_.resize(size_t{t} + 1);
    excluded_tables_[t] = true;
  }
}

std::vector<ConnectionTree> ExpansionSearchBase::Run(
    const std::vector<std::vector<NodeId>>& keyword_nodes) {
  Begin(keyword_nodes);
  std::vector<ConnectionTree> out;
  while (auto tree = NextEmitted()) out.push_back(std::move(*tree));
  return out;
}

std::vector<ConnectionTree> ExpansionSearchBase::RunScored(
    const std::vector<std::vector<KeywordMatch>>& keyword_matches) {
  BeginScored(keyword_matches);
  std::vector<ConnectionTree> out;
  while (auto tree = NextEmitted()) out.push_back(std::move(*tree));
  return out;
}

void ExpansionSearchBase::BeginScored(
    const std::vector<std::vector<KeywordMatch>>& keyword_matches) {
  std::vector<std::vector<NodeId>> node_sets(keyword_matches.size());
  match_relevance_.assign(keyword_matches.size(), {});
  for (size_t i = 0; i < keyword_matches.size(); ++i) {
    node_sets[i].reserve(keyword_matches[i].size());
    for (const auto& m : keyword_matches[i]) {
      node_sets[i].push_back(m.node);
      if (m.relevance < 1.0) match_relevance_[i][m.node] = m.relevance;
    }
  }
  keep_match_relevance_ = true;
  Begin(node_sets);
}

double ExpansionSearchBase::MatchRelevance(size_t term, NodeId node) const {
  if (term >= match_relevance_.size()) return 1.0;
  auto it = match_relevance_[term].find(node);
  return it == match_relevance_[term].end() ? 1.0 : it->second;
}

bool ExpansionSearchBase::RootExcluded(NodeId v) const {
  if (excluded_tables_.empty()) return false;
  const uint32_t table = RidOf(v).table_id;
  return table < excluded_tables_.size() && excluded_tables_[table];
}

void ExpansionSearchBase::Begin(
    const std::vector<std::vector<NodeId>>& keyword_nodes) {
  const size_t n = keyword_nodes.size();
  num_terms_ = n;
  results_.clear();
  cursor_ = 0;
  pump_steps_ = 0;
  stats_ = SearchStats{};
  done_ = false;
  dedup_ = DedupTable{};
  // A previous run may have left undrained trees behind (it stops once
  // max_answers are emitted); a reused searcher must not replay them.
  output_heap_ = OutputHeap(options_.exhaustive ? SIZE_MAX / 2
                                                : options_.output_heap_size);
  iterators_.clear();
  origins_.clear();
  vertex_lists_.clear();
  probes_.clear();
  pending_probes_.clear();
  forward_node_terms_.clear();
  forward_term_mask_ = 0;
  frontier_heap_ = {};
  if (keep_match_relevance_) {
    keep_match_relevance_ = false;  // set by the scored overload
  } else {
    match_relevance_.clear();
  }
  phase_ = RunPhase::kDone;  // until proven otherwise: an empty stream
  if (n == 0 || n > 64) return;
  for (const auto& set : keyword_nodes) {
    if (set.empty()) return;  // some keyword matches nothing
  }
  if (n == 1) {
    RunSingleTerm(keyword_nodes[0]);
    EndExpansion(/*ran_strategy=*/false);
    return;
  }
  BeginExecute(keyword_nodes);
  phase_ = RunPhase::kExpanding;
}

bool ExpansionSearchBase::PumpUntilAnswer() {
  return PumpSlice(SIZE_MAX) == PumpOutcome::kAnswerReady;
}

PumpOutcome ExpansionSearchBase::PumpSlice(size_t max_steps) {
  for (size_t step = 0; step < max_steps; ++step) {
    if (cursor_ < results_.size()) return PumpOutcome::kAnswerReady;
    switch (phase_) {
      case RunPhase::kIdle:
      case RunPhase::kDone:
        return PumpOutcome::kExhausted;
      case RunPhase::kExpanding:
        ++pump_steps_;
        if (!ExpansionBudgetOk() || !ExecuteStep()) {
          EndExpansion(/*ran_strategy=*/true);
        }
        break;
      case RunPhase::kDraining: {
        ++pump_steps_;
        const size_t want =
            options_.exhaustive ? SIZE_MAX : options_.max_answers;
        if (results_.size() >= want) {
          phase_ = RunPhase::kDone;
          break;
        }
        auto best = output_heap_.PopBest();
        if (!best.has_value()) {
          phase_ = RunPhase::kDone;
          break;
        }
        Emit(std::move(*best));
        break;
      }
    }
  }
  if (cursor_ < results_.size()) return PumpOutcome::kAnswerReady;
  // Also correct for max_steps == 0 on an idle/finished run.
  if (phase_ == RunPhase::kIdle || phase_ == RunPhase::kDone) {
    return PumpOutcome::kExhausted;
  }
  return PumpOutcome::kYielded;
}

std::optional<ConnectionTree> ExpansionSearchBase::NextEmitted() {
  if (!PumpUntilAnswer()) return std::nullopt;
  return std::move(results_[cursor_++]);
}

void ExpansionSearchBase::Abort() {
  phase_ = RunPhase::kDone;
  frontier_heap_ = {};
  iterators_.clear();
  origins_.clear();
  probes_.clear();
  pending_probes_.clear();
  vertex_lists_.clear();
  forward_node_terms_.clear();
  output_heap_ = OutputHeap(1);
  AbortExecute();
}

void ExpansionSearchBase::EndExpansion(bool ran_strategy) {
  if (ran_strategy) FinishExecute();
  if (options_.exhaustive) {
    // Exhaustive mode holds everything in the (unbounded) heap: nothing was
    // emitted early, so drain it all and exact-sort the result.
    for (;;) {
      auto best = output_heap_.PopBest();
      if (!best.has_value()) break;
      Emit(std::move(*best));
    }
    std::stable_sort(results_.begin(), results_.end(),
                     [](const ConnectionTree& a, const ConnectionTree& b) {
                       return a.relevance > b.relevance;
                     });
    phase_ = RunPhase::kDone;
  } else {
    phase_ = RunPhase::kDraining;
  }
}

size_t ExpansionSearchBase::VisitCap() const {
  return budget_.max_visits == 0
             ? options_.max_visits
             : std::min(options_.max_visits, budget_.max_visits);
}

bool ExpansionSearchBase::ExpansionBudgetOk() {
  if (stats_.iterator_visits >= VisitCap()) {
    stats_.truncation = Truncation::kVisitBudget;
    return false;
  }
  if (budget_.HasDeadline() &&
      std::chrono::steady_clock::now() >= budget_.deadline) {
    stats_.truncation = Truncation::kDeadline;
    return false;
  }
  return true;
}

// Single-term fast path: every answer is a single matching node (a tree
// rooted elsewhere would have a single child and no keyword at its root,
// so the §3 pruning discards it). Skip graph expansion entirely.
void ExpansionSearchBase::RunSingleTerm(const std::vector<NodeId>& nodes) {
  for (NodeId s : nodes) {
    // Metadata keywords can match whole relations, so even the no-expansion
    // path honours the budget (a deadline stops the scan mid-way with the
    // truncation recorded; the answers scored so far still drain).
    if (!ExpansionBudgetOk()) break;
    if (RootExcluded(s)) continue;  // §2.1: not a valid information node
    ConnectionTree tree;
    tree.root = s;
    tree.leaf_for_term = {s};
    tree.leaf_relevance = {MatchRelevance(0, s)};
    scorer_->ScoreInPlace(&tree);
    ++stats_.trees_generated;
    OfferTree(std::move(tree));
    if (done_) break;
  }
}

void ExpansionSearchBase::PrepareExpansionLoop(
    const std::vector<std::vector<NodeId>>& keyword_nodes,
    uint64_t forward_term_mask) {
  const size_t n = keyword_nodes.size();
  forward_term_mask_ = forward_term_mask;

  // Term membership bitmasks. Backward terms get one iterator per distinct
  // keyword node; forward terms are covered by probes from candidate roots.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    for (NodeId s : keyword_nodes[i]) {
      if (bit & forward_term_mask_) {
        forward_node_terms_[s] |= bit;
      } else {
        origins_.push_back(Origin{s, bit});
      }
    }
  }
  // Sorted by node with one entry per node, so an iterator's index orders
  // the frontier heap's ties exactly as its origin NodeId would.
  std::sort(origins_.begin(), origins_.end(),
            [](const Origin& a, const Origin& b) { return a.node < b.node; });
  size_t distinct = 0;
  for (const Origin& o : origins_) {
    if (distinct > 0 && origins_[distinct - 1].node == o.node) {
      origins_[distinct - 1].term_mask |= o.term_mask;
    } else {
      origins_[distinct++] = o;
    }
  }
  origins_.resize(distinct);

  const double max_w = delta_ != nullptr ? delta_->MaxNodeWeight()
                                         : dg_->graph.MaxNodeWeight();
  iterators_.reserve(origins_.size());
  for (const Origin& o : origins_) {
    double initial = 0.0;
    if (options_.keyword_prestige_bias > 0 && max_w > 0) {
      initial = options_.keyword_prestige_bias *
                (1.0 - NodeWeightOf(o.node) / max_w);
    }
    iterators_.emplace_back(dg_->graph, o.node, ExpandDirection::kBackward,
                            options_.distance_cap, initial, delta_);
  }
  stats_.num_iterators = iterators_.size();

  for (size_t i = 0; i < iterators_.size(); ++i) {
    if (iterators_[i].HasNext()) {
      frontier_heap_.push(Frontier{iterators_[i].PeekDistance(),
                                   kBackwardFrontier,
                                   static_cast<NodeId>(i)});
    }
  }
}

bool ExpansionSearchBase::StepExpansionLoop() {
  const size_t want = options_.exhaustive ? SIZE_MAX : options_.max_answers;
  if (frontier_heap_.empty() || done_ || results_.size() >= want) {
    return false;
  }
  Frontier top = frontier_heap_.top();
  frontier_heap_.pop();
  if (top.kind == kBackwardFrontier) {
    ExpansionIterator& it = iterators_[top.id];
    if (!it.HasNext()) return true;
    ExpansionIterator::Visit visit = it.Next();
    ++stats_.iterator_visits;
    if (it.HasNext()) {
      frontier_heap_.push(
          Frontier{it.PeekDistance(), kBackwardFrontier, top.id});
    }
    ProcessBackwardVisit(visit.node, top.id, num_terms_);
  } else {
    ExpansionIterator* it = probes_.at(top.id).get();
    if (!it->HasNext()) return true;
    ExpansionIterator::Visit visit = it->Next();
    ++stats_.iterator_visits;
    ++stats_.forward_expansions;
    if (it->HasNext()) {
      frontier_heap_.push(Frontier{it->PeekDistance(), kProbeFrontier, top.id});
    }
    ProcessForwardVisit(top.id, visit.node, num_terms_);
  }
  // Probes spawned by the visit join the frontier.
  while (!pending_probes_.empty()) {
    NodeId root = pending_probes_.back();
    pending_probes_.pop_back();
    ExpansionIterator* it = probes_.at(root).get();
    if (it->HasNext()) {
      frontier_heap_.push(Frontier{it->PeekDistance(), kProbeFrontier, root});
    }
  }
  return true;
}

void ExpansionSearchBase::ProcessBackwardVisit(NodeId v,
                                               size_t origin_index,
                                               size_t num_terms) {
  // Roots may be restricted (§2.1): skip excluded tables entirely — their
  // origin lists would only ever feed trees rooted there.
  if (RootExcluded(v)) return;
  VertexLists& lists = vertex_lists_[v];
  if (lists.per_term.empty()) lists.per_term.resize(num_terms);

  const auto [origin, mask] = origins_[origin_index];
  for (size_t i = 0; i < num_terms; ++i) {
    if (!(mask & (uint64_t{1} << i))) continue;
    HandleArrival(v, origin, i, lists);
  }
  MaybeSpawnProbe(v, lists, num_terms);
}

void ExpansionSearchBase::ProcessForwardVisit(NodeId root, NodeId node,
                                              size_t num_terms) {
  auto it = forward_node_terms_.find(node);
  if (it == forward_node_terms_.end()) return;
  VertexLists& lists = vertex_lists_[root];
  if (lists.per_term.empty()) lists.per_term.resize(num_terms);
  const uint64_t mask = it->second;
  for (size_t i = 0; i < num_terms; ++i) {
    if (!(mask & (uint64_t{1} << i))) continue;
    HandleArrival(root, node, i, lists);
  }
}

void ExpansionSearchBase::MaybeSpawnProbe(NodeId v, const VertexLists& lists,
                                          size_t num_terms) {
  if (forward_term_mask_ == 0 || probes_.count(v)) return;
  for (size_t i = 0; i < num_terms; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    if (bit & forward_term_mask_) continue;  // covered by the probe itself
    if (lists.per_term[i].empty()) return;   // not yet a candidate root
  }
  // The probe starts at distance 0 rather than the backward distance its
  // root was discovered at, so probe frontiers run slightly ahead of the
  // global cheapest-first order; ties aside this only reorders emission
  // (see ROADMAP: probe budgeting/offsets for strict BANKS-II ordering).
  probes_.emplace(v, std::make_unique<ExpansionIterator>(
                         dg_->graph, v, ExpandDirection::kForward,
                         options_.distance_cap, /*initial_distance=*/0.0,
                         delta_));
  pending_probes_.push_back(v);
  ++stats_.probes_spawned;
  ++stats_.roots_tried;
}

void ExpansionSearchBase::HandleArrival(NodeId v, NodeId origin, size_t term,
                                        VertexLists& lists) {
  GenerateTrees(v, origin, term, lists);
  // Insert after generating so the cross product pairs `origin` with
  // previously-arrived origins only (Figure 3 ordering). For an origin
  // matching several terms, the earlier insertions let the later terms
  // pair with it — producing the legitimate single-node/multi-term trees.
  lists.per_term[term].push_back(origin);
}

void ExpansionSearchBase::GenerateTrees(NodeId v, NodeId origin, size_t term,
                                        const VertexLists& lists) {
  const size_t n = lists.per_term.size();
  // Cross product is empty if any other term has an empty list.
  for (size_t j = 0; j < n; ++j) {
    if (j != term && lists.per_term[j].empty()) return;
  }

  // Enumerate the cross product origin x prod_{j != term} L_j with an
  // odometer over the other term lists.
  std::vector<size_t> idx(n, 0);
  std::vector<NodeId> leaves(n, kInvalidNode);
  for (;;) {
    for (size_t j = 0; j < n; ++j) {
      leaves[j] = (j == term) ? origin : lists.per_term[j][idx[j]];
    }
    ConnectionTree tree = BuildTree(v, leaves);
    ++stats_.trees_generated;
    // §3 pruning: a root with a single child is a spurious junction — the
    // smaller tree with the root removed is generated separately and is a
    // better answer. The exception: when the root itself satisfies a search
    // term, removing it would lose that keyword, so the tree is kept (its
    // interior re-rootings collapse with it via the duplicate rule anyway).
    bool root_is_leaf = false;
    for (NodeId leaf : leaves) root_is_leaf |= (leaf == v);
    if (tree.RootChildCount() == 1 && !root_is_leaf) {
      ++stats_.trees_pruned_root;
    } else {
      OfferTree(std::move(tree));
    }
    if (done_) return;

    // Advance odometer (skipping position `term`).
    size_t j = 0;
    for (; j < n; ++j) {
      if (j == term) continue;
      if (++idx[j] < lists.per_term[j].size()) break;
      idx[j] = 0;
    }
    if (j == n) break;
  }
}

ConnectionTree ExpansionSearchBase::BuildTree(
    NodeId root, const std::vector<NodeId>& leaves) {
  ConnectionTree tree;
  tree.root = root;
  tree.leaf_for_term = leaves;
  tree.leaf_relevance.reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    tree.leaf_relevance.push_back(MatchRelevance(i, leaves[i]));
  }

  for (size_t i = 0; i < leaves.size(); ++i) {
    // A node matching several terms contributes its path once.
    if (std::find(leaves.begin(), leaves.begin() + i, leaves[i]) !=
        leaves.begin() + i) {
      continue;
    }
    AppendLeafPath(&tree, root, leaves[i]);
  }
  for (const auto& e : tree.edges) tree.tree_weight += e.weight;
  scorer_->ScoreInPlace(&tree);
  return tree;
}

void ExpansionSearchBase::AppendChain(ConnectionTree* tree,
                                      const std::vector<NodeId>& chain,
                                      const ExpansionIterator& it) {
  for (size_t k = 0; k + 1 < chain.size(); ++k) {
    NodeId a = chain[k], b = chain[k + 1];
    // First parent wins; stay a tree. Answer trees have a handful of
    // nodes, so a scan of the edges beats any set.
    bool in_tree = b == tree->root;
    for (const TreeEdge& e : tree->edges) in_tree |= e.to == b;
    if (in_tree) continue;
    // The relaxed edge weight equals the distance change along the chain
    // (distances fall toward a backward iterator's source and rise away
    // from a forward one's).
    double w = std::abs(it.DistanceTo(b) - it.DistanceTo(a));
    tree->edges.push_back(TreeEdge{a, b, w});
  }
}

void ExpansionSearchBase::AppendLeafPath(ConnectionTree* tree, NodeId root,
                                         NodeId leaf) {
  // Preferred route: the leaf is a backward origin whose iterator settled
  // the root — read the path root ... leaf out of its parent chain (the
  // only route in the pure backward strategy).
  auto origin = std::lower_bound(
      origins_.begin(), origins_.end(), leaf,
      [](const Origin& o, NodeId node) { return o.node < node; });
  if (origin != origins_.end() && origin->node == leaf) {
    const ExpansionIterator& it = iterators_[origin - origins_.begin()];
    std::vector<NodeId> path = it.PathToSource(root);  // root ... leaf
    if (!path.empty()) {
      AppendChain(tree, path, it);
      return;
    }
  }
  // Bidirectional route: the leaf was discovered by the forward probe
  // rooted at `root`; its parent chain runs leaf ... root, i.e. the
  // forward path reversed.
  auto probe_it = probes_.find(root);
  assert(probe_it != probes_.end() &&
         "leaf must be settled by an iterator or the root's probe");
  const ExpansionIterator& fwd = *probe_it->second;
  std::vector<NodeId> chain = fwd.PathToSource(leaf);  // leaf ... root
  assert(!chain.empty() && "probe must have settled the leaf");
  std::reverse(chain.begin(), chain.end());  // root ... leaf
  AppendChain(tree, chain, fwd);
}

void ExpansionSearchBase::OfferTree(ConnectionTree tree) {
  const std::string sig = tree.UndirectedSignature();

  if (dedup_.WasOutput(sig)) {
    // A duplicate was already shown to the user; discard even if the new
    // copy scores higher (§3).
    ++stats_.duplicates_discarded;
    return;
  }
  if (output_heap_.Contains(sig)) {
    if (tree.relevance > output_heap_.HeldRelevance(sig)) {
      output_heap_.Remove(sig);  // replace with the better-rooted copy
    } else {
      ++stats_.duplicates_discarded;
      return;
    }
    ++stats_.duplicates_discarded;
  }
  auto overflow = output_heap_.Add(std::move(tree), sig);
  if (overflow.has_value()) {
    Emit(std::move(*overflow));
    if (!options_.exhaustive && results_.size() >= options_.max_answers) {
      done_ = true;
    }
  }
}

void ExpansionSearchBase::Emit(ConnectionTree tree) {
  dedup_.MarkOutput(tree.UndirectedSignature());
  ++stats_.answers_emitted;
  results_.push_back(std::move(tree));
}

}  // namespace banks
