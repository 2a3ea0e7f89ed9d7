#include "core/forward_search.h"

#include <algorithm>

namespace banks {

void ForwardSearch::BeginExecute(
    const std::vector<std::vector<NodeId>>& keyword_nodes) {
  n_terms_ = keyword_nodes.size();  // >= 2: base handled n <= 1

  // Pivot = most selective term.
  pivot_ = 0;
  for (size_t i = 1; i < n_terms_; ++i) {
    if (keyword_nodes[i].size() < keyword_nodes[pivot_].size()) pivot_ = i;
  }

  // Node -> bitmask of non-pivot terms it satisfies.
  term_mask_.clear();
  all_other_ = 0;
  for (size_t i = 0; i < n_terms_; ++i) {
    if (i == pivot_) continue;
    all_other_ |= (uint64_t{1} << i);
    for (NodeId v : keyword_nodes[i]) term_mask_[v] |= (uint64_t{1} << i);
  }

  // Multi-source reverse Dijkstra from the pivot set: settles candidate
  // roots in increasing distance-to-pivot; parent chains give the forward
  // path root -> pivot node (parents point toward the sources).
  rev_ = std::make_unique<ExpansionIterator>(dg_->graph, keyword_nodes[pivot_],
                                             ExpandDirection::kBackward,
                                             options_.distance_cap, delta_);
  stats_.num_iterators = 1;

  root_budget_ =
      options_.max_answers * std::max<size_t>(options_.root_budget_factor, 1);
  buffer_.clear();
}

bool ForwardSearch::ExecuteStep() {
  const FrozenGraph& g = dg_->graph;
  if (stats_.roots_tried >= root_budget_ || !rev_->HasNext() ||
      buffer_.size() >= options_.max_answers * 2) {
    return false;
  }

  ExpansionIterator::Visit settled = rev_->Next();
  ++stats_.iterator_visits;
  NodeId root = settled.node;
  if (RootExcluded(root)) return true;
  ++stats_.roots_tried;

  // Bounded forward Dijkstra from the candidate root until every other
  // term is reached (or the frontier exhausts).
  ExpansionIterator fwd(g, root, ExpandDirection::kForward,
                        options_.distance_cap, /*initial_distance=*/0.0,
                        delta_);
  uint64_t covered = 0;
  std::vector<NodeId> leaf_of_term(n_terms_, kInvalidNode);
  while (covered != all_other_ && fwd.HasNext() &&
         stats_.iterator_visits < VisitCap()) {
    ExpansionIterator::Visit f = fwd.Next();
    ++stats_.iterator_visits;
    ++stats_.forward_expansions;
    auto tm = term_mask_.find(f.node);
    if (tm != term_mask_.end()) {
      uint64_t fresh = tm->second & ~covered;
      for (size_t i = 0; i < n_terms_ && fresh; ++i) {
        if (fresh & (uint64_t{1} << i)) leaf_of_term[i] = f.node;
      }
      covered |= fresh;
    }
  }
  if (covered != all_other_) return true;  // root cannot reach every term

  // Assemble: reverse-parent chain root -> pivot source, plus forward-
  // parent chains root -> each other leaf.
  ConnectionTree tree;
  tree.root = root;
  tree.leaf_for_term.assign(n_terms_, kInvalidNode);

  {
    // rev parents point from farther nodes toward the pivot sources, so
    // the chain root ... nearest-pivot-source is the tree's pivot limb.
    std::vector<NodeId> chain = rev_->PathToSource(root);
    AppendChain(&tree, chain, *rev_);
    tree.leaf_for_term[pivot_] = chain.back();
  }
  for (size_t i = 0; i < n_terms_; ++i) {
    if (i == pivot_) continue;
    // fwd parents point back toward the root; reversed they give the
    // forward path root ... leaf.
    std::vector<NodeId> chain = fwd.PathToSource(leaf_of_term[i]);
    std::reverse(chain.begin(), chain.end());
    AppendChain(&tree, chain, fwd);
    tree.leaf_for_term[i] = leaf_of_term[i];
  }
  for (const auto& e : tree.edges) tree.tree_weight += e.weight;
  tree.leaf_relevance.reserve(n_terms_);
  for (size_t i = 0; i < n_terms_; ++i) {
    tree.leaf_relevance.push_back(MatchRelevance(i, tree.leaf_for_term[i]));
  }
  ++stats_.trees_generated;
  // Same pruning rule as §3 (keep single-child roots that are keyword
  // leaves themselves).
  bool root_is_leaf = false;
  for (NodeId leaf : tree.leaf_for_term) root_is_leaf |= (leaf == root);
  if (tree.RootChildCount() == 1 && !root_is_leaf) {
    ++stats_.trees_pruned_root;
    return true;
  }
  if (!dedup_.MarkGenerated(tree.UndirectedSignature())) {
    ++stats_.duplicates_discarded;
    return true;
  }
  scorer_->ScoreInPlace(&tree);
  buffer_.push_back(std::move(tree));
  return true;
}

void ForwardSearch::FinishExecute() {
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const ConnectionTree& a, const ConnectionTree& b) {
                     return a.relevance > b.relevance;
                   });
  if (buffer_.size() > options_.max_answers) {
    buffer_.resize(options_.max_answers);
  }
  for (auto& tree : buffer_) Emit(std::move(tree));
  buffer_.clear();
  rev_.reset();
}

}  // namespace banks
