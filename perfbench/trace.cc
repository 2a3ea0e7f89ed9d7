#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "core/query.h"
#include "graph/graph_builder.h"
#include "index/approx_match.h"
#include "index/inverted_index.h"
#include "index/metadata_index.h"
#include "index/numeric_index.h"
#include "server/net/http.h"
#include "server/query_cache.h"
#include "server/session_handle.h"
#include "server/session_pool.h"
#include "storage/csv.h"
#include "util/json.h"

namespace perfbench {

namespace {

using banks::server::PoolStats;
using banks::server::QueryCacheStats;
using banks::server::net::BanksService;

/// One span: a call into one layer, timed by the benchmark around a
/// public entry point. Spans of one request share `request`.
struct Span {
  const char* name;
  Clock::time_point start, end;
  int parent;        // index of the parent span, -1 for a root
  uint64_t request;  // read: stream index; write: kWriteIds + batch
};
constexpr uint64_t kWriteIds = 1'000'000'000;

/// Spans kept in memory and written out at the end. A layer's number is
/// the self time of its spans: duration minus the children's durations.
class Tracer {
 public:
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, uint64_t request) {
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  double Ms(int id) const {
    return MillisBetween(spans_[id].start, spans_[id].end);
  }
  /// Self times (ms) of every span named `name`.
  std::vector<double> Self(const char* name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += MillisBetween(s.start, s.end);
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::string_view(spans_[i].name) == name) {
        out.push_back(Ms(static_cast<int>(i)) - child[i]);
      }
    }
    return out;
  }
  double SelfOf(int id) const {
    double ms = Ms(id);
    for (const Span& s : spans_) {
      if (s.parent == id) ms -= MillisBetween(s.start, s.end);
    }
    return ms;
  }
  bool Write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                    i, s.name, MillisBetween(origin, s.start) * 1e3,
                    MillisBetween(origin, s.end) * 1e3, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per traced read request: the numbers the layer sums need.
struct Read {
  double client_first = 0, client_latency = 0;  // HTTP, from send
  double pool_submit = 0, pool_first = 0;       // SubmitQuery, then 1st answer
  double resolve = 0, open_self = 0, first = 0, drain = 0;
  double serialize = 0, render = 0, decode = 0;
  double net_first = 0;  // HTTP first answer for level 2's exact work
};
constexpr size_t kNonBinding = size_t{1} << 52;  // exact as a JSON number

}  // namespace

int RunTraced(const Spec& spec, const Inputs& in, double seconds) {
  Tracer tr;
  Report report;
  const Clock::time_point origin = Clock::now();
  const banks::BanksOptions options = EngineOptions(spec.cache);

  // -------------------------------------------------------------- set-up
  // The layers the engine constructor runs, called one by one on a loaded
  // copy of the database, three times (medians).
  for (uint64_t i = 0; i < 3; ++i) {
    Clock::time_point t0 = Clock::now();
    auto db = banks::LoadDatabase(in.csv_dir);
    Clock::time_point t1 = Clock::now();
    if (!db.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    banks::DataGraph dg = banks::BuildDataGraph(db.value(), options.graph);
    Clock::time_point t2 = Clock::now();
    banks::InvertedIndex index;
    index.Build(db.value());
    banks::MetadataIndex metadata;
    metadata.Build(db.value());
    banks::NumericIndex numeric;
    numeric.Build(db.value());
    Clock::time_point t3 = Clock::now();
    tr.Add("storage.load", t0, t1, -1, i);
    tr.Add("graph.build", t1, t2, -1, i);
    tr.Add("index.build", t2, t3, -1, i);
  }
  std::string error;
  std::unique_ptr<Stack> stack = StartStack(in.csv_dir, spec, &error);
  if (stack == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  banks::BanksEngine& engine = *stack->engine;
  const uint16_t port = stack->port();
  const size_t edges = engine.data_graph().graph.num_edges();

  // ------------------------------------------------------------- warm-up
  {
    HttpClient client(port);
    Response r;
    for (const Query& q : in.warm) {
      client.Post("/query", QueryBody(q.text, spec.render), &r);
    }
    for (const Query& q : in.set) {
      if (spec.cache) DrainedAnswers(engine, {.text = q.text}, spec.render);
      client.Post("/query", QueryBody(q.text, spec.render), &r);
    }
  }

  // -------------------------------------------------------------- stream
  // Reads in stream order; ingest interleaves the writer's batches at
  // their due times (read i at i / open_rate, batch b at b / write_rate).
  struct Event {
    double due;
    bool write;
    size_t index;
  };
  std::vector<Event> events;
  std::vector<const Query*> reads;
  if (spec.name == "cold") {
    for (const Query& q : in.timed) reads.push_back(&q);
  } else {
    for (uint32_t z : in.zipf) reads.push_back(&in.set[z]);
  }
  const double read_rate = spec.open_rate > 0 ? spec.open_rate : 1.0;
  for (size_t i = 0; i < reads.size(); ++i) {
    events.push_back({double(i) / read_rate, false, i});
  }
  if (spec.write_rate > 0) {
    for (size_t b = 0; b < in.batches.size(); ++b) {
      events.push_back({double(b) / spec.write_rate, true, b});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.due < b.due;
                     });
  }

  const banks::MatchOptions match = options.match;
  std::unordered_map<std::string, std::vector<size_t>> expansions;
  std::vector<Read> traced;
  std::vector<Sample> classed;  // every read, for the class check
  std::vector<double> untraced_latency, traced_latency;
  std::vector<double> matches, visits, iterators, pending, hit_us, bytes;
  double trees = 0, emitted = 0, duplicates = 0, rendered = 0;
  QueryCacheStats l1{};  // cache counter deltas summed over HTTP requests
  size_t batches = 0, refreezes = 0, merged = 0;
  std::vector<double> purged, rebuild_ms;
  bool correct = true;
  size_t attempted = 0, failed = 0;

  auto pool_stats = [&] { return engine.pool().stats(); };
  const PoolStats pool_before = pool_stats();
  HttpClient client(port);
  Response r;
  const Clock::time_point replay_start = Clock::now();
  auto out_of_time = [&] {
    return MillisBetween(replay_start, Clock::now()) > seconds * 1e3;
  };

  auto write = [&](size_t b) {
    const Batch& batch = in.batches[b];
    const uint64_t id = kWriteIds + b;
    Clock::time_point t0 = Clock::now();
    auto parsed = banks::JsonValue::Parse(batch.body);
    Clock::time_point t1 = Clock::now();
    std::vector<banks::Mutation> copy = batch.mutations;
    Clock::time_point t2 = Clock::now();
    std::vector<banks::Result<banks::Rid>> results =
        engine.ApplyBatch(std::move(copy));
    Clock::time_point t3 = Clock::now();
    tr.Add("server.net.mutate_decode", t0, t1, -1, id);
    tr.Add("update.apply_batch", t2, t3, -1, id);
    ++attempted;
    ++batches;
    bool ok = parsed.ok();
    for (const auto& res : results) ok = ok && res.ok();
    if (!ok) ++failed;
    if ((b + 1) % kRefreezeEvery == 0) {
      ++attempted;
      Clock::time_point f0 = Clock::now();
      auto stats = engine.Refreeze();
      Clock::time_point f1 = Clock::now();
      tr.Add("update.refreeze", f0, f1, -1, id);
      if (!stats.ok()) {
        ++failed;
        return;
      }
      ++refreezes;
      merged += stats.value().merged ? 1 : 0;
      purged.push_back(double(stats.value().cache_entries_purged));
      rebuild_ms.push_back(stats.value().rebuild_ms);
    }
  };

  auto read = [&](size_t i) {
    const Query& q = *reads[i];
    const std::string body = QueryBody(q.text, spec.render);
    const bool trace = i % 2 == 0;
    Sample sample;
    sample.cls = int(q.form);

    // Level 1: HTTP.
    pending.push_back(double(engine.pending_mutations()));
    const QueryCacheStats c0 = engine.query_cache_stats();
    const Clock::time_point s0 = Clock::now();
    const bool sent = client.Post("/query", body, &r);
    const QueryCacheStats c1 = engine.query_cache_stats();
    ++attempted;
    if (!sent || r.status != 200 || !r.HasDoneLine()) {
      ++failed;
      if (!sent) client = HttpClient(port);
      classed.push_back(sample);
      return;
    }
    const bool hit = c1.hits > c0.hits;
    l1.hits += c1.hits - c0.hits;
    l1.misses += c1.misses - c0.misses;
    l1.invalidations += c1.invalidations - c0.invalidations;
    l1.resolution_hits += c1.resolution_hits - c0.resolution_hits;
    l1.resolution_misses += c1.resolution_misses - c0.resolution_misses;
    l1.coalesced += c1.coalesced - c0.coalesced;
    sample.ok = true;
    sample.ttfa_ms = MillisBetween(s0, r.first_line);
    sample.latency_ms = MillisBetween(s0, r.end);
    if (spec.name == "ingest") {
      sample.cls = hit ? 0 : pending.back() > 0 ? 1 : 2;
    }
    classed.push_back(sample);
    bytes.push_back(double(r.bytes));
    if (!trace) {
      untraced_latency.push_back(sample.latency_ms);
      return;
    }
    traced_latency.push_back(sample.latency_ms);
    const uint64_t id = i;
    Read rd;
    rd.client_first = sample.ttfa_ms;
    rd.client_latency = sample.latency_ms;
    tr.Add("http.query", s0, r.end, -1, id);

    // Request decode as the server does it, on the same bytes (16 calls
    // per sample, so the clock's resolution does not dominate).
    {
      std::string head = "POST /query HTTP/1.1\r\nHost: localhost\r\n"
                         "Content-Length: " +
                         std::to_string(body.size());
      Clock::time_point d0 = Clock::now();
      for (int k = 0; k < 16; ++k) {
        banks::server::net::HttpRequest req;
        (void)banks::server::net::ParseRequestHead(head, &req);
        auto json = banks::JsonValue::Parse(body);
        (void)json;
      }
      Clock::time_point d1 = Clock::now();
      tr.Add("server.net.decode", d0, d1, -1, id);
      rd.decode = MillisBetween(d0, d1) / 16;
    }

    // Levels 2 and 3 replay the request on the state HTTP just served it
    // from. A cache miss there filled the cache, so on a miss the replays
    // carry a non-binding visit budget, which makes them uncacheable:
    // they do the miss's work instead of hitting the fresh entry. They
    // still find the keyword resolutions the miss cached, so the HTTP side
    // of server.net.overhead_ms is then an HTTP replay with the same
    // budget, which does exactly level 2's work.
    banks::QueryRequest request{.text = q.text};
    rd.net_first = rd.client_first;
    if (spec.cache && !hit) {
      request.budget.max_visits = kNonBinding;
      std::string replay = body;
      replay.insert(replay.size() - 1,
                    ",\"max_visits\":" + std::to_string(kNonBinding));
      const Clock::time_point p0 = Clock::now();
      if (client.Post("/query", replay, &r) && r.status == 200) {
        rd.net_first = MillisBetween(p0, r.first_line);
        tr.Add("http.replay", p0, r.end, -1, id);
      }
    }

    // Level 2: SubmitQuery / SessionHandle.
    {
      Clock::time_point t0 = Clock::now();
      auto handle = engine.SubmitQuery(request);
      Clock::time_point t1 = Clock::now();
      if (!handle.ok()) {
        correct = false;
        return;
      }
      (void)handle.value().Next();
      Clock::time_point t2 = Clock::now();
      while (handle.value().Next()) {
      }
      Clock::time_point t3 = Clock::now();
      tr.Add("pool.submit", t0, t1, -1, id);
      tr.Add("pool.first_answer", t1, t2, -1, id);
      tr.Add("pool.drain", t2, t3, -1, id);
      rd.pool_submit = MillisBetween(t0, t1);
      rd.pool_first = MillisBetween(t1, t2);
    }

    // Level 3: keyword resolution, OpenSession / Next, AnswerJson, Render.
    {
      auto st = engine.state();
      int resolve_span = -1;
      Clock::time_point r0 = Clock::now(), r1 = r0;
      banks::ParsedQuery parsed = banks::ParseQuery(q.text);
      if (!spec.cache) {
        // OpenSession resolves the same terms internally; the replay just
        // before it is booked as its child.
        banks::KeywordResolver resolver(engine.db(), *st->dg, *st->index,
                                        *st->metadata, st->numeric.get(),
                                        st->delta.get(),
                                        st->index_delta.get());
        r0 = Clock::now();
        auto resolved = resolver.ResolveAllScored(parsed, match);
        r1 = Clock::now();
        (void)resolved;
      }
      auto& exp = expansions[q.text];
      if (exp.empty()) {
        for (const auto& term : parsed.terms) {
          exp.push_back(
              banks::ExpandKeyword(*st->index, term.keyword, match.approx)
                  .size());
        }
      }
      const QueryCacheStats h0 = engine.query_cache_stats();
      Clock::time_point o0 = Clock::now();
      auto session = engine.OpenSession(request);
      Clock::time_point o1 = Clock::now();
      if (!session.ok()) {
        correct = false;
        return;
      }
      const bool l3_hit = engine.query_cache_stats().hits > h0.hits;
      int open = tr.Add("core.open", o0, o1, -1, id);
      if (!spec.cache) {
        resolve_span = tr.Add("index.resolve", r0, r1, open, id);
        rd.resolve = tr.Ms(resolve_span);
      }
      rd.open_self = tr.SelfOf(open);
      double m = 0;
      for (const auto& nodes : session.value().keyword_nodes()) {
        m += double(nodes.size());
      }
      matches.push_back(m);

      std::vector<banks::ScoredAnswer> got;
      Clock::time_point n0 = Clock::now();
      auto first = session.value().Next();
      Clock::time_point n1 = Clock::now();
      if (first) got.push_back(std::move(*first));
      while (auto a = session.value().Next()) got.push_back(std::move(*a));
      Clock::time_point n2 = Clock::now();
      tr.Add("core.first_answer", n0, n1, -1, id);
      tr.Add("core.drain", n1, n2, -1, id);
      rd.first = MillisBetween(n0, n1);
      rd.drain = MillisBetween(n1, n2);
      if (l3_hit) {
        hit_us.push_back(
            (MillisBetween(o0, o1) + MillisBetween(n0, n2)) * 1e3);
        visits.push_back(0);
        iterators.push_back(0);
      } else {
        const banks::SearchStats& s = session.value().stats();
        visits.push_back(double(s.iterator_visits));
        iterators.push_back(double(s.num_iterators));
        trees += double(s.trees_generated);
        emitted += double(s.answers_emitted);
        duplicates += double(s.duplicates_discarded);
      }

      std::string lines;
      for (const banks::ScoredAnswer& a : got) {
        Clock::time_point a0 = Clock::now();
        std::string line = BanksService::AnswerJson(engine, a.tree, a.rank,
                                                    false);
        Clock::time_point a1 = Clock::now();
        tr.Add("server.net.serialize", a0, a1, -1, id);
        rd.serialize += MillisBetween(a0, a1);
        if (spec.render) {
          Clock::time_point b0 = Clock::now();
          std::string html = engine.Render(a.tree);
          Clock::time_point b1 = Clock::now();
          tr.Add("browse.render", b0, b1, -1, id);
          rd.render += MillisBetween(b0, b1);
          rendered += 1;
        }
      }
    }
    traced.push_back(rd);
  };

  size_t reads_done = 0, writes_done = 0;
  for (const Event& e : events) {
    if (out_of_time()) break;
    if (e.write) {
      write(e.index);
      ++writes_done;
    } else {
      read(e.index);
      ++reads_done;
    }
  }
  const PoolStats pool_after = pool_stats();
  // Cold and hot: the writer's first batches, in process after the reads,
  // so update.* is reported on every workload.
  if (spec.write_rate == 0) {
    for (size_t b = 0; b < in.batches.size(); ++b) write(b);
  }
  stack.reset();

  // ------------------------------------------------------------- metrics
  auto med = [&](const char* name) { return Median(tr.Self(name)); };
  auto count = [&](const char* name) { return tr.Self(name).size(); };
  std::vector<double> queue_wait, overhead, residual, layer_share;
  for (const Read& rd : traced) {
    const double wait = rd.pool_first - rd.first;
    const double net = rd.net_first - (rd.pool_submit + rd.pool_first);
    queue_wait.push_back(wait);
    overhead.push_back(net);
    const double layers = rd.resolve + rd.open_self + rd.first + rd.drain +
                          rd.render + rd.serialize + rd.decode + wait + net;
    residual.push_back(rd.client_latency - layers);
    if (spec.name == "cold") {
      layer_share.push_back((rd.resolve + rd.open_self + rd.first) /
                            rd.client_first);
    } else if (spec.name == "hot") {
      const double serving = rd.decode + rd.serialize + wait + net +
                             rd.open_self + rd.first + rd.drain;
      layer_share.push_back(serving / rd.client_latency);
    }
  }
  std::vector<double> exp_per_term;
  for (const auto& [text, v] : expansions) {
    for (size_t n : v) exp_per_term.push_back(double(n));
  }

  const size_t n = traced.size();
  report.Add("storage.load_ms", med("storage.load"), "ms",
             count("storage.load"));
  report.Add("graph.build_ms", med("graph.build"), "ms", count("graph.build"));
  report.Add("graph.edges", double(edges), "count", 1);
  report.Add("index.build_ms", med("index.build"), "ms", count("index.build"));
  report.Add("index.resolve_ms", med("index.resolve"), "ms",
             count("index.resolve"));
  report.Add("index.expansions_per_term", Mean(exp_per_term), "count",
             exp_per_term.size());
  report.Add("index.matches_per_query", Mean(matches), "count",
             matches.size());
  report.Add("core.open_ms", med("core.open"), "ms", count("core.open"));
  report.Add("core.first_answer_ms", med("core.first_answer"), "ms",
             count("core.first_answer"));
  report.Add("core.drain_ms", med("core.drain"), "ms", count("core.drain"));
  report.Add("core.visits_per_query", Mean(visits), "count", visits.size());
  report.Add("core.iterators_per_query", Mean(iterators), "count",
             iterators.size());
  report.Add("core.answers_per_tree", Ratio(emitted, trees), "ratio", n);
  report.Add("core.duplicates_per_answer", Ratio(duplicates, emitted),
             "ratio", n);
  report.Add("browse.render_us_per_answer",
             Mean(tr.Self("browse.render")) * 1e3, "us", size_t(rendered));
  report.Add("server.pool.queue_wait_ms", Median(queue_wait), "ms", n);
  const double slices = double(pool_after.slices - pool_before.slices);
  report.Add("server.pool.slices_per_query",
             Ratio(slices, double(pool_after.completed -
                                  pool_before.completed)),
             "ratio", pool_after.completed - pool_before.completed);
  report.Add("server.pool.steals_per_slice",
             Ratio(double(pool_after.steals - pool_before.steals), slices),
             "ratio", size_t(slices));
  report.Add("server.pool.answers_per_publish",
             Ratio(double(pool_after.answers_published -
                          pool_before.answers_published),
                   double(pool_after.publishes - pool_before.publishes)),
             "ratio", pool_after.publishes - pool_before.publishes);
  const double submitted = double(pool_after.submitted -
                                  pool_before.submitted +
                                  pool_after.rejected - pool_before.rejected);
  report.Add("server.pool.rejected_share",
             Ratio(double(pool_after.rejected - pool_before.rejected),
                   submitted),
             "ratio", size_t(submitted));
  report.Add("server.cache.hit_rate",
             Ratio(double(l1.hits),
                   double(l1.hits + l1.misses + l1.invalidations)),
             "ratio", size_t(l1.hits + l1.misses + l1.invalidations));
  report.Add("server.cache.hit_us", Median(hit_us), "us", hit_us.size());
  report.Add("server.cache.resolution_hit_rate",
             Ratio(double(l1.resolution_hits),
                   double(l1.resolution_hits + l1.resolution_misses)),
             "ratio", size_t(l1.resolution_hits + l1.resolution_misses));
  report.Add("server.cache.invalidations_per_batch",
             Ratio(double(l1.invalidations),
                   double(spec.write_rate > 0 ? writes_done : 0)),
             "ratio", writes_done);
  report.Add("server.cache.coalesced_per_miss",
             Ratio(double(l1.coalesced), double(l1.misses)), "ratio",
             size_t(l1.misses));
  report.Add("server.net.decode_us", Median(tr.Self("server.net.decode")) /
                                         16 * 1e3,
             "us", count("server.net.decode"));
  report.Add("server.net.serialize_us_per_answer",
             Mean(tr.Self("server.net.serialize")) * 1e3, "us",
             count("server.net.serialize"));
  report.Add("server.net.response_bytes", Mean(bytes), "bytes",
             bytes.size());
  report.Add("server.net.overhead_ms", Median(overhead), "ms", n);
  report.Add("server.net.mutate_decode_ms", med("server.net.mutate_decode"),
             "ms", count("server.net.mutate_decode"));
  report.Add("update.apply_batch_ms", med("update.apply_batch"), "ms",
             count("update.apply_batch"));
  report.Add("update.refreeze_ms", med("update.refreeze"), "ms",
             count("update.refreeze"));
  report.Add("update.merged_share", Ratio(double(merged), double(refreezes)),
             "ratio", refreezes);
  report.Add("update.pending_at_open", Mean(pending), "count",
             pending.size());
  report.Add("update.purged_per_refreeze", Mean(purged), "count",
             purged.size());
  report.Add("trace.client_ttfa_ms", Median([&] {
               std::vector<double> v;
               for (const Read& rd : traced) v.push_back(rd.client_first);
               return v;
             }()),
             "ms", n);
  report.Add("trace.client_latency_ms", Median(traced_latency), "ms", n);
  report.Add("trace.residual_ms", Median(residual), "ms", n);
  report.Add("trace.overhead_ms",
             Median(traced_latency) - Median(untraced_latency), "ms",
             untraced_latency.size());

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "replay: %zu reads (%zu traced), %zu writes, %zu refreezes "
                "in %.1f s; refreeze rebuild_ms p50 %.2f",
                reads_done, n, batches, refreezes,
                MillisBetween(replay_start, Clock::now()) / 1e3,
                Median(rebuild_ms));
  report.Note(buf);
  if (spec.name == "cold") {
    std::snprintf(buf, sizeof(buf),
                  "check cold: index + core self time is %.0f%% of client "
                  "TTFA (median over traced requests)",
                  100 * Median(layer_share));
    report.Note(buf);
  } else if (spec.name == "hot") {
    std::snprintf(buf, sizeof(buf),
                  "check hot: core.visits_per_query %.1f; server.net + "
                  "server.cache + server.pool are %.0f%% of client latency",
                  Mean(visits), 100 * Median(layer_share));
    report.Note(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "check update: %zu apply_batch spans for %zu batches, %zu "
                "refreeze spans for %zu refreezes",
                count("update.apply_batch"), batches, count("update.refreeze"),
                refreezes);
  report.Note(buf);
  std::vector<std::string> names = FormNames();
  if (spec.name == "ingest") names = {"hit", "miss/overlay", "miss/fresh"};
  bool flagged = false;
  report.Note(ClassBoundaryCheck(classed, names, &flagged));
  const std::string spans_path = in.csv_dir + ".spans.jsonl";
  if (!tr.Write(spans_path, origin)) correct = false;
  report.Note("spans written to " + spans_path);
  return report.Finish(correct, attempted, failed);
}

}  // namespace perfbench
