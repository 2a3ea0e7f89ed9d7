// Strategy-agnostic core of the expansion-search framework.
//
// The §3 backward expanding search, the §7 forward search and the
// bidirectional strategy all share the same machinery: per-vertex origin
// lists (one per search term), cross-product connection-tree generation,
// the §3 single-child-root pruning, duplicate resolution in favour of the
// most relevant copy, and a small reordering output heap. This base class
// owns that machinery; strategies decide *which frontiers expand*:
//
//   BackwardSearch       one reverse-Dijkstra iterator per keyword node,
//                        scheduled cheapest-next-first (§3, Figure 3).
//   ForwardSearch        multi-source reverse Dijkstra from the most
//                        selective term, bounded forward Dijkstra from each
//                        candidate root (§7 "ongoing work").
//   BidirectionalSearch  reverse-Dijkstra iterators from the selective
//                        terms' keyword nodes interleaved with forward
//                        probes from candidate roots, covering the
//                        low-selectivity terms (BANKS-II-style
//                        bidirectional expansion); the globally cheapest
//                        frontier expands next.
//
// Strategy selection is a SearchOptions knob (`strategy`), threaded through
// BanksEngine::Search and CreateExpansionSearch().
//
// Execution model: the engine is a *resumable stepper*. Begin() sets up a
// run without expanding anything; each PumpUntilAnswer()/NextEmitted() call
// advances the cheapest frontier only until the next answer is ready, so
// callers can consume results incrementally (see AnswerStream in
// core/answer_stream.h and QuerySession in core/query_session.h). The
// batch Run()/RunScored() entry points are thin wrappers that begin a run
// and drain it — batch behaviour and results are unchanged.
#ifndef BANKS_CORE_EXPANSION_SEARCH_BASE_H_
#define BANKS_CORE_EXPANSION_SEARCH_BASE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/answer.h"
#include "core/dedup.h"
#include "core/expansion_iterator.h"
#include "core/output_heap.h"
#include "core/query.h"
#include "core/scorer.h"
#include "graph/graph_builder.h"

namespace banks {

/// Which expansion strategy a search run uses.
enum class SearchStrategy : uint8_t {
  kBackward,       ///< §3 backward expanding search (the paper's default)
  kForward,        ///< §7 forward search from the most selective term
  kBidirectional,  ///< backward iterators + forward root probes
};

/// Stable lowercase name ("backward", "forward", "bidirectional").
const char* SearchStrategyName(SearchStrategy strategy);

/// Parses a strategy name, case-insensitively (as printed by
/// SearchStrategyName, plus the shorthand "bidi"). Returns false on
/// unknown input.
bool ParseSearchStrategy(const std::string& name, SearchStrategy* out);

/// Human-readable list of the accepted strategy names, for error messages
/// ("backward|forward|bidirectional (alias: bidi)").
const char* SearchStrategyNames();

/// Search configuration, shared by every strategy.
struct SearchOptions {
  /// Expansion strategy. Existing callers default to backward search and
  /// see unchanged behaviour.
  SearchStrategy strategy = SearchStrategy::kBackward;

  /// Number of answers to return (the paper's experiments stop at 10).
  size_t max_answers = 10;

  /// Capacity of the reordering output heap (§3: "a reasonably small heap
  /// size" works well).
  size_t output_heap_size = 20;

  /// Relevance scoring knobs (§2.3).
  ScoringParams scoring;

  /// Iterators never expand past this distance (infinity = unbounded).
  double distance_cap = std::numeric_limits<double>::infinity();

  /// Safety valve on total iterator visits (guards pathological graphs).
  size_t max_visits = 50'000'000;

  /// Tables whose tuples may not serve as information nodes (§2.1: "we may
  /// exclude ... a specified set of relations, such as Writes").
  std::unordered_set<uint32_t> excluded_root_tables;

  /// Exhaustive mode: generate every connection tree reachable, then return
  /// them all in exact decreasing-relevance order. This is the
  /// generate-then-sort strawman §3 argues against; used as a baseline.
  bool exhaustive = false;

  /// §3 extension: "The distance measure can be extended to include node
  /// weights of nodes matching keywords." With bias b > 0, the iterator
  /// from keyword node s starts at distance b * (1 - w(s)/w_max) instead
  /// of 0, so iterators from prestigious matches expand first and their
  /// answers surface earlier. 0 disables (the paper's default).
  double keyword_prestige_bias = 0.0;

  /// Forward strategy: candidate roots examined, as a multiple of
  /// max_answers.
  size_t root_budget_factor = 8;

  /// Bidirectional strategy: a term whose keyword-node set is larger than
  /// this is covered by forward probes instead of per-node backward
  /// iterators (the §7 observation that metadata keywords make every tuple
  /// of a relation relevant). With every term below the threshold the
  /// strategy degenerates to exactly the backward expanding search.
  size_t frontier_size_threshold = 256;
};

/// Per-run execution budget, checked inside the stepper between frontier
/// expansions. Unlike SearchOptions::max_visits (an engine-wide safety
/// valve), a Budget is a per-session serving knob: a query deadline or a
/// work cap. When the budget runs out mid-expansion the run stops early,
/// the answers generated so far are still drained in relevance order, and
/// SearchStats::truncation records why.
///
/// Overshoot contract: the deadline (and the visit cap) is re-checked
/// *between* steps, never inside one, so a run may overshoot its deadline
/// by at most one step of work: one frontier expansion plus the tree
/// generation that visit triggers (for forward search, ranking one
/// candidate root). A deadline already in the past therefore yields zero
/// expansion work and zero answers — Begin() itself never expands — with
/// SearchStats::truncation set to Truncation::kDeadline on the first pump.
/// Tree generation is the unbounded part of a step (a visit's cross
/// product can be large on adversarial graphs); callers needing hard
/// bounds should pair the deadline with a visit cap.
struct Budget {
  /// Wall-clock deadline; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Cap on total iterator visits for the run; 0 = unlimited.
  size_t max_visits = 0;

  bool HasDeadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool Unlimited() const { return !HasDeadline() && max_visits == 0; }

  /// Budget expiring `timeout` from now.
  static Budget WithTimeout(std::chrono::nanoseconds timeout) {
    Budget b;
    b.deadline = std::chrono::steady_clock::now() + timeout;
    return b;
  }
  /// Budget of at most `visits` frontier expansions.
  static Budget WithVisitCap(size_t visits) {
    Budget b;
    b.max_visits = visits;
    return b;
  }
};

/// Outcome of one bounded stepper slice (PumpSlice). Cooperative
/// schedulers use this to multiplex many sessions over a few threads: a
/// kYielded session goes back to the run queue, the others retire.
enum class PumpOutcome : uint8_t {
  kAnswerReady,  ///< at least one unconsumed answer is buffered
  kExhausted,    ///< the run is over and nothing is buffered
  kYielded,      ///< the step bound was hit; expansion work remains
};

/// Why a run stopped expanding before its natural end.
enum class Truncation : uint8_t {
  kNone = 0,      ///< ran to completion (frontier exhausted or answer cap)
  kVisitBudget,   ///< hit Budget::max_visits or SearchOptions::max_visits
  kDeadline,      ///< hit Budget::deadline
};

/// Instrumentation counters for benchmarks and tests.
struct SearchStats {
  size_t iterator_visits = 0;      ///< total frontier expansions (all kinds)
  size_t trees_generated = 0;      ///< cross-product trees built
  size_t trees_pruned_root = 0;    ///< discarded: root had one child
  size_t duplicates_discarded = 0; ///< discarded or replaced as duplicates
  size_t answers_emitted = 0;
  size_t num_iterators = 0;        ///< backward iterators created
  size_t roots_tried = 0;          ///< forward: candidate roots examined
  size_t forward_expansions = 0;   ///< nodes settled by forward expansion
  size_t probes_spawned = 0;       ///< bidirectional: forward probes started

  /// Why expansion stopped early, if it did (budget enforcement). Answers
  /// returned after a truncation are partial: the best of what had been
  /// generated when the budget ran out.
  Truncation truncation = Truncation::kNone;
  bool truncated() const { return truncation != Truncation::kNone; }
};

/// Shared base of all expansion-search strategies. One instance = one run
/// configuration over one data graph; runs (batch or streaming) may be
/// started repeatedly — Begin() fully resets per-run state.
///
/// `delta` (optional) is the live-update overlay captured with the
/// snapshot: expansion then also walks overlay edges, skips tombstoned
/// nodes, and resolves overlay-added NodeIds. Null (the default, and the
/// state right after a refreeze) keeps the frozen-only hot path.
class ExpansionSearchBase {
 public:
  ExpansionSearchBase(const DataGraph& dg, SearchOptions options,
                      const DeltaGraph* delta = nullptr);
  virtual ~ExpansionSearchBase() = default;

  /// keyword_nodes[i] = nodes relevant to search term i. Terms with empty
  /// node sets make every answer impossible: returns no answers (the
  /// engine layer may drop such terms beforehand for partial matching).
  std::vector<ConnectionTree> Run(
      const std::vector<std::vector<NodeId>>& keyword_nodes);

  /// Scored variant: matches carry per-node match relevances (fuzzy and
  /// numeric-approx hits score < 1), which flow into answer relevance.
  std::vector<ConnectionTree> RunScored(
      const std::vector<std::vector<KeywordMatch>>& keyword_matches);

  // --------------------------------------------------------- streaming API
  // Prefer the AnswerStream wrapper (core/answer_stream.h) over calling
  // these directly; the raw stepper is exposed for benches and tests.

  /// Begins a streaming run: resets state and sets up the strategy without
  /// expanding anything. Trivial cases (no terms, an empty term set, a
  /// single term) are resolved immediately.
  void Begin(const std::vector<std::vector<NodeId>>& keyword_nodes);
  void BeginScored(
      const std::vector<std::vector<KeywordMatch>>& keyword_matches);

  /// Advances the run until at least one unconsumed answer is available or
  /// the run is over. Returns true iff an answer is ready.
  bool PumpUntilAnswer();

  /// Bounded variant for cooperative scheduling: advances the run by at
  /// most `max_steps` stepper iterations (each one strategy step or one
  /// output-heap pop) and reports why it stopped. A pool worker pumps a
  /// slice, then requeues the session if it yielded — so one heavy query
  /// cannot monopolise a worker thread.
  PumpOutcome PumpSlice(size_t max_steps);

  /// Total stepper iterations consumed by the current run (the unit
  /// `PumpSlice` counts in). Monotone within a run; reset by Begin().
  size_t pump_steps() const { return pump_steps_; }

  /// Consumes and returns the next answer, expanding only as far as needed
  /// to produce it (nullopt = stream exhausted).
  std::optional<ConnectionTree> NextEmitted();

  /// Tears down frontiers, iterators and buffered state without draining
  /// the graph; the stream is over. Begin() starts a fresh run afterwards.
  void Abort();

  /// Per-run execution budget (deadline / visit cap), checked between
  /// frontier expansions. Persists across runs until replaced; pass a
  /// default-constructed Budget to clear.
  void set_budget(const Budget& budget) { budget_ = budget; }
  const Budget& budget() const { return budget_; }

  /// Thread-safety: an ExpansionSearchBase confines all mutable run state
  /// to itself — concurrent runs over one (const) DataGraph are safe as
  /// long as each searcher is driven by one thread at a time. The graph,
  /// scorer inputs and options are never written after construction.

  const SearchStats& stats() const { return stats_; }
  const SearchOptions& options() const { return options_; }

 protected:
  /// Strategy hook: set up a multi-term run over non-empty node sets. The
  /// base Begin() has already reset state and handled the trivial cases
  /// (no terms, empty term set, single term).
  virtual void BeginExecute(
      const std::vector<std::vector<NodeId>>& keyword_nodes) = 0;

  /// Strategy hook: one unit of expansion work (one frontier pop for the
  /// shared expansion loop; one candidate root for forward search).
  /// Returns false once expansion is exhausted — further answers come only
  /// from draining buffered state.
  virtual bool ExecuteStep() = 0;

  /// Strategy hook: called exactly once when expansion ends (naturally or
  /// by budget), before the output heap drains. Forward search sorts and
  /// releases its candidate buffer here.
  virtual void FinishExecute() {}

  /// Strategy hook: release strategy-owned run state on Abort() (forward
  /// search drops its pivot iterator and candidate buffer).
  virtual void AbortExecute() {}

  // ------------------------------------------------------------ machinery
  // Per-visited-vertex origin lists, one per search term.
  struct VertexLists {
    std::vector<std::vector<NodeId>> per_term;
  };

  /// True if `v` may not serve as an information node (§2.1 exclusions).
  bool RootExcluded(NodeId v) const;

  /// Rid of `v` across base + overlay (overlay-added nodes have ids past
  /// the frozen node count, where DataGraph::RidForNode would be UB).
  Rid RidOf(NodeId v) const { return ResolveRidForNode(*dg_, delta_, v); }

  /// Prestige weight of `v` across base + overlay.
  double NodeWeightOf(NodeId v) const {
    return delta_ != nullptr ? delta_->NodeWeight(v)
                             : dg_->graph.node_weight(v);
  }

  /// Match relevance of `node` for `term` (1.0 unless a scored run
  /// supplied a fuzzy/numeric relevance below 1).
  double MatchRelevance(size_t term, NodeId node) const;

  /// Sets up the cheapest-frontier expansion loop shared by the backward
  /// and bidirectional strategies. Terms in `forward_term_mask` are covered
  /// by forward probes spawned at candidate roots (vertices whose origin
  /// lists are non-empty for every backward term); all other terms get one
  /// backward iterator per keyword node. With mask 0 this is exactly the
  /// §3 backward expanding search.
  void PrepareExpansionLoop(
      const std::vector<std::vector<NodeId>>& keyword_nodes,
      uint64_t forward_term_mask);

  /// One iteration of the shared expansion loop: pops the globally
  /// cheapest frontier, processes the visit, and re-queues. Returns false
  /// when the loop is over (frontier empty, answer cap reached).
  bool StepExpansionLoop();

  /// Effective visit cap: min(options_.max_visits, budget_.max_visits).
  size_t VisitCap() const;

  /// Offers every generated tree through dedup + the output heap; Emit
  /// moves accepted trees into results_.
  void OfferTree(ConnectionTree tree);
  void Emit(ConnectionTree tree);

  /// Appends the parent-chain path `chain` (root first, leaf last; every
  /// node settled by `it`) to the tree as parent->child edges, skipping
  /// nodes already present (first parent wins; the result stays a tree).
  /// Each edge weight is the relaxed weight, i.e. the distance change
  /// between consecutive settled nodes.
  static void AppendChain(ConnectionTree* tree,
                          const std::vector<NodeId>& chain,
                          const ExpansionIterator& it);

  const DataGraph* dg_;
  const DeltaGraph* delta_;  // null = frozen-only snapshot
  SearchOptions options_;
  std::unique_ptr<Scorer> scorer_;

  // Backward iterators, one per keyword (origin) node, sorted by origin;
  // origins_[i] names iterators_[i]'s origin and the terms it matches.
  struct Origin {
    NodeId node;
    uint64_t term_mask;
  };
  std::vector<ExpansionIterator> iterators_;
  std::vector<Origin> origins_;
  // Per-term node match relevances (empty maps = all exact).
  std::vector<std::unordered_map<NodeId, double>> match_relevance_;
  std::unordered_map<NodeId, VertexLists> vertex_lists_;
  OutputHeap output_heap_{1};
  DedupTable dedup_;
  // Emission log of the current run: answers in emission order. A
  // streaming consumer moves entries out through NextEmitted() (cursor_
  // marks how many were consumed); batch Run() drains the whole log.
  std::vector<ConnectionTree> results_;
  SearchStats stats_;
  bool done_ = false;

 private:
  /// Streaming state machine. kExpanding steps the strategy; kDraining
  /// serves the output heap; kDone means the stream is exhausted.
  enum class RunPhase : uint8_t { kIdle, kExpanding, kDraining, kDone };

  void RunSingleTerm(const std::vector<NodeId>& nodes);
  // Transition out of kExpanding: strategy finalization, then either the
  // exhaustive sort-everything path or incremental heap draining.
  void EndExpansion(bool ran_strategy);
  // False once the visit/deadline budget is exhausted (records why).
  bool ExpansionBudgetOk();
  void ProcessBackwardVisit(NodeId v, size_t origin_index,
                            size_t num_terms);
  void ProcessForwardVisit(NodeId root, NodeId node, size_t num_terms);
  // Generates the new trees rooted at v contributed by `origin` arriving
  // for `term`, then records the arrival in v's origin lists.
  void HandleArrival(NodeId v, NodeId origin, size_t term,
                     VertexLists& lists);
  void GenerateTrees(NodeId v, NodeId origin, size_t term,
                     const VertexLists& lists);
  ConnectionTree BuildTree(NodeId root, const std::vector<NodeId>& leaves);
  // Appends the path root -> ... -> leaf to the tree, skipping nodes
  // already present (first parent wins; the result stays a tree).
  void AppendLeafPath(ConnectionTree* tree, NodeId root, NodeId leaf);
  void MaybeSpawnProbe(NodeId v, const VertexLists& lists, size_t num_terms);

  // §2.1 root exclusions as a bitmap over table ids (ids are dense: the
  // Database numbers its tables in creation order).
  std::vector<bool> excluded_tables_;
  bool keep_match_relevance_ = false;  // scored Begin -> node-list handoff
  uint64_t forward_term_mask_ = 0;
  std::unordered_map<NodeId, uint64_t> forward_node_terms_;  // node -> mask
  // Forward probes by candidate root: one bounded forward Dijkstra each,
  // covering the forward-mask terms (bidirectional strategy).
  std::unordered_map<NodeId, std::unique_ptr<ExpansionIterator>> probes_;
  std::vector<NodeId> pending_probes_;  // spawned, not yet in the frontier

  // Frontier heap over all expansion sources — backward iterators and
  // forward probes — ordered on the distance of the next node each will
  // output; ties break on kind then id for determinism.
  enum : uint8_t { kBackwardFrontier = 0, kProbeFrontier = 1 };
  struct Frontier {
    double dist;
    uint8_t kind;
    NodeId id;  // index into iterators_ (= origin order), or probe root
    bool operator>(const Frontier& o) const {
      if (dist != o.dist) return dist > o.dist;
      if (kind != o.kind) return kind > o.kind;
      return id > o.id;
    }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<Frontier>>
      frontier_heap_;

  RunPhase phase_ = RunPhase::kIdle;
  size_t cursor_ = 0;      // results_ entries already consumed by the stream
  size_t num_terms_ = 0;   // of the current run
  size_t pump_steps_ = 0;  // stepper iterations consumed (PumpSlice unit)
  Budget budget_;
};

/// Factory: the strategy named by `options.strategy` over `dg`, optionally
/// layered with a live-update overlay (which must outlive the searcher —
/// sessions hold the owning DeltaSnapshot).
std::unique_ptr<ExpansionSearchBase> CreateExpansionSearch(
    const DataGraph& dg, SearchOptions options,
    const DeltaGraph* delta = nullptr);

}  // namespace banks

#endif  // BANKS_CORE_EXPANSION_SEARCH_BASE_H_
