// bench_concurrent_sessions — SessionPool throughput, latency and
// deadline behaviour on the DBLP workload.
//
// Three sections:
//   1. Equivalence: every pooled session must render byte-identical
//      answers to its serial OpenSession+drain run — concurrency is
//      transparent (shared immutable snapshot, confined steppers, work
//      stealing migrates sessions whole). This is a hard failure if
//      violated.
//   2. Scaling: the same query list through pools of 1/2/4/8 workers,
//      submitted and drained by 4 submitter threads. Every mode is
//      measured over several interleaved rounds and scored best-of (an
//      external load spike on a shared runner slows whichever round it
//      lands on; the best round approximates unloaded capability).
//      Reports throughput (queries/s), speedup over serial draining,
//      per-query p50/p99 submit-to-drained latency, and the scheduler
//      counters that attribute the result (steals vs local pops,
//      answer-publication batching, average adaptive quantum).
//      Rendering answer transcripts happens outside the timed region in
//      both modes: the bench measures serving (open/pump/drain), not the
//      presentation layer.
//      Hardware-aware floors: with >= 8 hardware threads the 8-worker
//      pool must sustain >= 4x serial throughput and every worker count
//      at least half of perfect scaling; with fewer threads the floors
//      scale down; on a single-core machine only the scheduling-overhead
//      bound is checkable (pool >= 0.55x serial at every worker count —
//      a cooperative pool cannot out-run serial without real
//      parallelism, and OS-timeslice interleaving of submitters and
//      workers on one core costs real cache locality that multicore
//      overlap would win back).
//   3. Overload: more deadline-carrying sessions than the admission cap
//      admits at once, with a bimodal deadline mix (5ms: infeasible by
//      construction, single-query work exceeds it; 3000ms: feasible
//      unless the pool degrades badly). The deadline-miss rate must
//      therefore sit strictly inside (0,1) — a pinned 0.0 or 1.0 means
//      the scenario measures a constant, not degradation.
//   4. Query cache: the epoch-keyed answer cache
//      (src/server/query_cache.h) under Zipf(s=1.0)-repeated traffic — a
//      second engine over an identically generated dataset runs with the
//      cache on, the cache-off engine provides reference transcripts.
//      Warm every distinct query (misses), pump 512 Zipf-skewed pooled
//      submissions (hits), apply an identical insert burst to both
//      engines (answer entries invalidate), refreeze both (dead-epoch
//      purge), re-query twice (misses, then hits). Byte-identity of cache-on vs
//      cache-off transcripts is checked at every phase (always hard);
//      the probe counters are deterministic, so the >= 90% hit-rate
//      floor is hard too. Cache-on vs cache-off qps is reported and
//      soft-gated like the speedup floors.
//
// --json <path> writes BENCH_concurrent_sessions-style counters for the
// CI regression gate (deterministic counters only; timings and scheduler
// counters are info), plus a sibling BENCH_query_cache.json carrying the
// cache scenario's counters. BENCH_SOFT_SPEEDUP=1 demotes the
// speedup-floor, miss-rate-bounds and cache-qps failures to warnings
// (shared CI runners are noisy); the byte-identity equivalence checks
// and the deterministic cache-counter floors are always hard.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "server/query_cache.h"
#include "server/session_pool.h"
#include "util/timer.h"

using namespace banks;
using namespace banks::bench;

namespace {

constexpr const char* kQueryTexts[] = {"author soumen",     "author mohan",
                                       "paper transaction", "author sunita paper",
                                       "soumen sunita",     "seltzer sunita"};
constexpr size_t kDistinct = sizeof(kQueryTexts) / sizeof(kQueryTexts[0]);
constexpr size_t kRepeat = 8;  // query instances = kDistinct * kRepeat
constexpr size_t kSubmitters = 4;

std::vector<std::string> QueryList() {
  std::vector<std::string> queries;
  queries.reserve(kDistinct * kRepeat);
  for (size_t r = 0; r < kRepeat; ++r) {
    for (size_t i = 0; i < kDistinct; ++i) queries.push_back(kQueryTexts[i]);
  }
  return queries;
}

std::string RenderAll(const BanksEngine& engine,
                      const std::vector<ConnectionTree>& answers) {
  std::string out;
  for (const auto& tree : answers) out += engine.Render(tree);
  return out;
}

struct RunResult {
  double wall_s = 0;
  std::vector<double> latency_ms;       // per query, submit -> drained
  std::vector<std::string> rendered;    // per query, full transcript
  size_t answers = 0;
  server::PoolStats pool_stats;         // scheduler counters (pool runs)
};

RunResult RunSerial(const BanksEngine& engine,
                    const std::vector<std::string>& queries) {
  RunResult result;
  result.latency_ms.resize(queries.size());
  result.rendered.resize(queries.size());
  std::vector<std::vector<ConnectionTree>> answers(queries.size());
  Timer wall;
  for (size_t i = 0; i < queries.size(); ++i) {
    Timer t;
    auto session = engine.OpenSession({.text = queries[i]});
    if (session.ok()) answers[i] = session.value().Drain();
    result.latency_ms[i] = t.Millis();
  }
  result.wall_s = wall.Seconds();
  for (size_t i = 0; i < queries.size(); ++i) {  // untimed: presentation
    result.rendered[i] = RenderAll(engine, answers[i]);
    result.answers += answers[i].size();
  }
  return result;
}

RunResult RunPool(const BanksEngine& engine,
                  const std::vector<std::string>& queries, size_t workers) {
  server::PoolOptions popts;
  popts.num_workers = workers;
  // Default adaptive quanta: initial_quantum small for fast first answers,
  // growing geometrically to step_quantum so long sessions amortize
  // scheduling to near zero (this is what production serving would use).
  // The admission cap is the serving-side working-set bound: ~2 runnable
  // sessions per worker keeps caches warm (fair round-robin over dozens
  // of heavy frontiers would thrash), the rest wait FIFO.
  popts.max_active = workers * 2;
  popts.max_waiting = 4096;
  server::SessionPool pool(engine, popts);

  RunResult result;
  result.latency_ms.resize(queries.size());
  result.rendered.resize(queries.size());
  std::vector<std::vector<ConnectionTree>> answers(queries.size());
  Timer wall;
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        // Each submitter owns the stripe i % kSubmitters == t: it fires
        // the whole stripe, then drains handle by handle — so many
        // sessions are in flight per thread and the pool decides order.
        std::vector<size_t> mine;
        std::vector<server::SessionHandle> handles;
        std::vector<Timer> start;
        for (size_t i = t; i < queries.size(); i += kSubmitters) {
          mine.push_back(i);
          start.emplace_back();
          auto submitted = pool.Submit({.text = queries[i]});
          handles.push_back(submitted.ok()
                                ? std::move(submitted).value()
                                : server::SessionHandle{});
        }
        for (size_t j = 0; j < mine.size(); ++j) {
          answers[mine[j]] = handles[j].Drain();  // own stripe slot: no race
          result.latency_ms[mine[j]] = start[j].Millis();
        }
      });
    }
    for (auto& s : submitters) s.join();
  }
  result.wall_s = wall.Seconds();
  result.pool_stats = pool.stats();
  for (size_t i = 0; i < queries.size(); ++i) {  // untimed: presentation
    result.rendered[i] = RenderAll(engine, answers[i]);
    result.answers += answers[i].size();
  }
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = std::min(values.size() - 1,
                        static_cast<size_t>(p * double(values.size())));
  return values[idx];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("bench_concurrent_sessions — SessionPool scaling",
              "serving-side extension: concurrent sessions over one "
              "immutable snapshot");
  const std::string json_path = BenchReport::JsonPathFromArgs(argc, argv);
  BenchReport report("bench_concurrent_sessions");
  const bool soft = std::getenv("BENCH_SOFT_SPEEDUP") != nullptr;

  DblpConfig config = EvalDblpConfig();
  config.num_authors = 2'000;
  config.num_papers = 4'000;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), EvalWorkload::DefaultOptions());
  std::printf("graph: %zu nodes / %zu edges\n",
              engine.data_graph().graph.num_nodes(),
              engine.data_graph().graph.num_edges());

  const auto queries = QueryList();
  std::printf("%zu query instances (%zu distinct x %zu), %zu submitter "
              "threads, %u hardware threads\n\n",
              queries.size(), kDistinct, kRepeat, kSubmitters,
              std::thread::hardware_concurrency());

  // Interleaved best-of rounds: serial and every pool width run once per
  // round, and each mode is scored by its best round. Back-to-back
  // single measurements made the *ratio* hostage to whichever run an
  // external load spike hit; interleaving plus best-of compares the two
  // modes at their respective unloaded capability.
  constexpr int kRounds = 3;
  const size_t kWidths[] = {1, 2, 4, 8};
  RunResult serial;       // best round
  double serial_qps = 0;
  RunResult pooled[4];    // best round per width
  double pooled_qps[4] = {0, 0, 0, 0};
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    RunResult s = RunSerial(engine, queries);
    const double qps = double(queries.size()) / s.wall_s;
    if (qps > serial_qps) {
      serial_qps = qps;
      serial = std::move(s);
    }
    for (size_t w = 0; w < 4; ++w) {
      RunResult p = RunPool(engine, queries, kWidths[w]);
      // Byte-identity is checked on *every* round, not just the kept one.
      for (size_t i = 0; i < queries.size(); ++i) {
        if (p.rendered[i] != serial.rendered[i]) {
          identical = false;
          std::printf("!! divergence: round=%d workers=%zu query #%zu '%s'\n",
                      round, kWidths[w], i, queries[i].c_str());
        }
      }
      const double pool_qps = double(queries.size()) / p.wall_s;
      if (pool_qps > pooled_qps[w]) {
        pooled_qps[w] = pool_qps;
        pooled[w] = std::move(p);
      }
    }
  }

  std::printf("best of %d interleaved rounds per mode:\n", kRounds);
  std::printf("%-10s %8s %9s %9s %9s %9s  %s\n", "mode", "workers", "qps",
              "speedup", "p50-ms", "p99-ms", "answers");
  PrintRule();
  std::printf("%-10s %8s %9.1f %9s %9.2f %9.2f  %zu\n", "serial", "-",
              serial_qps, "1.00x", Percentile(serial.latency_ms, 0.5),
              Percentile(serial.latency_ms, 0.99), serial.answers);

  report.Counter("serial/answers", double(serial.answers));
  report.Info("serial/qps", serial_qps);
  report.Info("serial/p50_ms", Percentile(serial.latency_ms, 0.5));
  report.Info("serial/p99_ms", Percentile(serial.latency_ms, 0.99));

  // Hardware-aware floors (ratios, not absolute qps): perfect scaling at
  // w workers is min(w, hw); require half of it, but never less than the
  // scheduling-overhead bound 0.55x that must hold even without real
  // parallelism (on one core the OS timeslices submitters against the
  // worker, so overlap that multicore turns into speedup shows up as
  // cache-locality loss instead). With >= 8 hardware threads this is the
  // ROADMAP target: >= 4x serial qps at 8 workers.
  const unsigned hw = std::thread::hardware_concurrency();
  auto floor_for = [hw](size_t workers) {
    const double parallel = 0.5 * double(std::min<size_t>(workers, hw));
    return std::max(0.55, parallel);
  };

  bool floors_ok = true;
  double speedup8 = 0;
  for (size_t w = 0; w < 4; ++w) {
    const size_t workers = kWidths[w];
    const double qps = pooled_qps[w];
    const double speedup = qps / serial_qps;
    if (workers == 8) speedup8 = speedup;
    if (speedup < floor_for(workers)) floors_ok = false;
    const server::PoolStats& ps = pooled[w].pool_stats;
    const double avg_quantum = Ratio(double(ps.quantum_steps), double(ps.slices));
    const double avg_batch =
        Ratio(double(ps.answers_published), double(ps.publishes));
    std::printf("%-10s %8zu %9.1f %8.2fx %9.2f %9.2f  %zu\n", "pool",
                workers, qps, speedup, Percentile(pooled[w].latency_ms, 0.5),
                Percentile(pooled[w].latency_ms, 0.99), pooled[w].answers);
    std::printf("%-10s   slices %zu (local %zu + stolen %zu), avg quantum "
                "%.0f, %zu answers in %zu publish batches (%.1f/batch)\n",
                "", ps.slices, ps.local_pops, ps.steals, avg_quantum,
                ps.answers_published, ps.publishes, avg_batch);
    const std::string prefix = "pool_w" + std::to_string(workers) + "/";
    report.Counter(prefix + "answers", double(pooled[w].answers));
    report.Info(prefix + "qps", qps);
    report.Info(prefix + "speedup", speedup);
    report.Info(prefix + "p50_ms", Percentile(pooled[w].latency_ms, 0.5));
    report.Info(prefix + "p99_ms", Percentile(pooled[w].latency_ms, 0.99));
    report.Info(prefix + "slices", double(ps.slices));
    report.Info(prefix + "steals", double(ps.steals));
    report.Info(prefix + "local_pops", double(ps.local_pops));
    report.Info(prefix + "publishes", double(ps.publishes));
    report.Info(prefix + "avg_publish_batch", avg_batch);
    report.Info(prefix + "avg_quantum", avg_quantum);
  }

  // ------------------------------------------------------------- overload
  // Twice the admission cap's worth of deadline-carrying sessions, two
  // workers, bimodal deadlines: 5ms is below single-query work on any
  // realistic machine (guaranteed misses), 3000ms is feasible unless the
  // pool degrades to multi-second latencies (guaranteed hits for a
  // healthy scheduler). A healthy pool therefore lands strictly inside
  // (0,1); the exact value is machine-dependent (info, not gated), the
  // bounds are the gate.
  double miss_rate = 0;
  {
    server::PoolOptions popts;
    popts.num_workers = 2;
    popts.step_quantum = 8192;  // keep preemption tight under deadlines
    popts.max_active = 8;
    popts.max_waiting = 4096;
    server::SessionPool pool(engine, popts);
    std::vector<server::SessionHandle> handles;
    const size_t overload_n = 64;
    for (size_t i = 0; i < overload_n; ++i) {
      Budget budget = Budget::WithTimeout(std::chrono::milliseconds(
          i % 2 == 0 ? 5 : 3000));
      auto submitted = pool.Submit({.text = queries[i % queries.size()], .search = engine.options().search, .budget = budget});
      if (submitted.ok()) handles.push_back(std::move(submitted).value());
    }
    size_t missed = 0, delivered = 0;
    for (auto& handle : handles) {
      delivered += handle.Drain().size();
      handle.Wait();
      if (handle.stats().truncation == Truncation::kDeadline) ++missed;
    }
    miss_rate = double(missed) / double(handles.size());
    std::printf("\noverload: %zu sessions (5ms/3000ms deadlines) over "
                "max_active=8, 2 workers:\n  deadline-miss rate %.0f%%, "
                "%zu answers delivered before truncation\n",
                handles.size(), miss_rate * 100, delivered);
    report.Info("overload/miss_rate", miss_rate);
    report.Info("overload/answers", double(delivered));
  }

  // ---------------------------------------------------------- query cache
  // Section 4 (see the file comment): Zipfian repetition against the
  // epoch-keyed cache, byte-identity against the cache-off engine at every
  // phase, invalidation via an identical insert burst, purge via refreeze.
  BenchReport cache_report("bench_query_cache");
  double cache_hit_rate = 0;
  bool cache_identical = true;
  bool cache_floors_ok = true;
  double cache_qps_on = 0, cache_qps_off = 0;
  uint64_t cache_purged = 0;
  server::QueryCacheStats cache_stats;
  {
    DblpDataset ds_on = GenerateDblp(config);  // same config => same graph
    BanksOptions cache_options = EvalWorkload::DefaultOptions();
    cache_options.cache.enabled = true;
    BanksEngine cached(std::move(ds_on.db), cache_options);

    size_t divergences = 0;
    auto note_divergence = [&](const char* phase, const std::string& query) {
      cache_identical = false;
      if (++divergences <= 4) {
        std::printf("!! cache divergence: phase=%s query '%s'\n", phase,
                    query.c_str());
      }
    };
    // One serial pass over the distinct queries on both engines, comparing
    // transcripts. Each pass costs exactly kDistinct answer probes on the
    // cached engine; what they classify as (miss/hit/invalidation) depends
    // on where the pass sits in the protocol.
    auto serial_round = [&](const char* phase) {
      for (size_t i = 0; i < kDistinct; ++i) {
        std::string on, off;
        auto on_session = cached.OpenSession({.text = kQueryTexts[i]});
        if (on_session.ok()) on = RenderAll(cached, on_session.value().Drain());
        auto off_session = engine.OpenSession({.text = kQueryTexts[i]});
        if (off_session.ok()) {
          off = RenderAll(engine, off_session.value().Drain());
        }
        if (on != off || on_session.ok() != off_session.ok()) {
          note_divergence(phase, kQueryTexts[i]);
        }
      }
    };

    serial_round("warm");  // kDistinct cold misses fill the cache

    // Zipf(s=1.0) over the distinct queries: weight 1/(rank+1), sampled
    // with a fixed-seed LCG so the workload (and the counters) are
    // deterministic. Skew means the head query dominates — the regime the
    // cache exists for.
    constexpr size_t kZipfQueries = 512;
    std::vector<std::string> zipf;
    zipf.reserve(kZipfQueries);
    {
      double weight[kDistinct];
      double total = 0;
      for (size_t i = 0; i < kDistinct; ++i) {
        weight[i] = 1.0 / double(i + 1);
        total += weight[i];
      }
      uint64_t lcg = 0x9e3779b97f4a7c15ull;
      for (size_t n = 0; n < kZipfQueries; ++n) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        double u = double(lcg >> 33) / double(1ull << 31) * total;
        size_t pick = 0;
        while (pick + 1 < kDistinct && u >= weight[pick]) {
          u -= weight[pick];
          ++pick;
        }
        zipf.push_back(kQueryTexts[pick]);
      }
    }
    RunResult zipf_on = RunPool(cached, zipf, /*workers=*/4);
    RunResult zipf_off = RunPool(engine, zipf, /*workers=*/4);
    cache_qps_on = double(zipf.size()) / zipf_on.wall_s;
    cache_qps_off = double(zipf.size()) / zipf_off.wall_s;
    for (size_t i = 0; i < zipf.size(); ++i) {
      if (zipf_on.rendered[i] != zipf_off.rendered[i]) {
        note_divergence("zipf", zipf[i]);
      }
    }

    // Identical insert burst on both engines: the pending bump invalidates
    // every answer entry.
    auto burst = [&](BanksEngine& target) {
      std::vector<Mutation> batch;
      batch.push_back(Mutation::Insert(
          kPaperTable, Tuple({Value(std::string("P_cache0")),
                              Value(std::string("caching transaction"))})));
      batch.push_back(Mutation::Insert(
          kPaperTable, Tuple({Value(std::string("P_cache1")),
                              Value(std::string("soumen caching results"))})));
      batch.push_back(Mutation::Insert(
          kPaperTable, Tuple({Value(std::string("P_cache2")),
                              Value(std::string("sunita caching results"))})));
      for (auto& applied : target.ApplyBatch(std::move(batch))) {
        if (!applied.ok()) cache_floors_ok = false;
      }
    };
    burst(cached);
    burst(engine);
    serial_round("after-burst");  // kDistinct answer invalidations

    auto refrozen_on = cached.Refreeze();
    auto refrozen_off = engine.Refreeze();
    if (!refrozen_on.ok() || !refrozen_off.ok()) {
      cache_floors_ok = false;
    } else {
      cache_purged = refrozen_on.value().cache_entries_purged;
    }
    serial_round("after-refreeze");  // kDistinct misses (dead epoch purged)
    serial_round("steady");          // kDistinct hits again

    cache_stats = cached.query_cache_stats();
  }

  // Every answer probe classifies as exactly one of hit/miss/invalidation.
  const double classified = double(cache_stats.hits + cache_stats.misses +
                                   cache_stats.invalidations);
  cache_hit_rate = classified == 0 ? 0 : double(cache_stats.hits) / classified;
  std::printf("\nquery cache: Zipf(s=1.0) x %d pooled + 4 serial rounds over "
              "%zu distinct queries\n  hits %llu, misses %llu, invalidations "
              "%llu, hit rate %.1f%% (floor 90%%)\n  refreeze purged %llu "
              "entries\n  qps cache-on %.1f vs cache-off %.1f (%.2fx)\n",
              512, kDistinct,
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.invalidations),
              cache_hit_rate * 100,
              static_cast<unsigned long long>(cache_purged), cache_qps_on,
              cache_qps_off, Ratio(cache_qps_on, cache_qps_off));
  // Deterministic floors (hard): the protocol constructs >= 90% hits, at
  // least kDistinct invalidations, and a non-empty refreeze purge. A miss
  // here is a cache behaviour change, not machine noise.
  if (cache_hit_rate < 0.9) {
    cache_floors_ok = false;
    std::printf("!! cache hit rate %.1f%% below the 90%% floor\n",
                cache_hit_rate * 100);
  }
  if (cache_stats.invalidations < kDistinct || cache_purged == 0) {
    cache_floors_ok = false;
    std::printf("!! cache lifecycle counters missed their floors\n");
  }
  bool cache_qps_ok = cache_qps_on > cache_qps_off;
  if (!cache_qps_ok) {
    std::printf("!! cache-on qps did not beat cache-off qps\n");
  }
  cache_report.Counter("cache/identical", cache_identical ? 1.0 : 0.0);
  cache_report.Counter("cache/hits", double(cache_stats.hits));
  cache_report.Counter("cache/misses", double(cache_stats.misses));
  cache_report.Counter("cache/invalidations",
                       double(cache_stats.invalidations));
  cache_report.Counter("cache/purged", double(cache_purged));
  cache_report.Counter("cache/hit_rate_pct", cache_hit_rate * 100);
  cache_report.Info("cache/qps_on", cache_qps_on);
  cache_report.Info("cache/qps_off", cache_qps_off);
  cache_report.Info("cache/speedup", Ratio(cache_qps_on, cache_qps_off));
  cache_report.Info("cache/insertions", double(cache_stats.insertions));
  cache_report.Info("cache/evictions", double(cache_stats.evictions));

  PrintRule();
  std::printf("results byte-identical to serial on every run: %s\n",
              identical ? "yes" : "NO");
  std::printf("8-worker speedup %.2fx on %u hardware thread(s); "
              "floors (>= half of perfect scaling, min 0.55x): %s\n",
              speedup8, hw, floors_ok ? "met at every worker count" : "MISSED");
  const bool miss_rate_in_bounds = miss_rate > 0.0 && miss_rate < 1.0;
  std::printf("overload miss rate %.2f strictly inside (0,1): %s\n",
              miss_rate, miss_rate_in_bounds ? "yes" : "NO");
  std::printf("cache-on transcripts byte-identical to cache-off: %s; "
              "hit rate %.1f%%, deterministic floors: %s\n",
              cache_identical ? "yes" : "NO", cache_hit_rate * 100,
              cache_floors_ok ? "met" : "MISSED");
  if (!json_path.empty()) {
    if (!report.WriteJson(json_path)) return 1;
    // The cache scenario reports next to the pool report so the CI smoke
    // loop and the baseline refresher pick both up from one binary run.
    const size_t slash = json_path.find_last_of('/');
    const std::string cache_json =
        (slash == std::string::npos ? std::string()
                                    : json_path.substr(0, slash + 1)) +
        "BENCH_query_cache.json";
    if (!cache_report.WriteJson(cache_json)) return 1;
  }
  bool gates_ok = floors_ok && miss_rate_in_bounds && cache_qps_ok;
  if (!gates_ok && soft) {
    std::printf("WARNING: speedup floor / miss-rate bounds / cache qps "
                "missed (soft mode; not failing)\n");
    gates_ok = true;
  }
  return (identical && cache_identical && cache_floors_ok && gates_ok) ? 0 : 1;
}
