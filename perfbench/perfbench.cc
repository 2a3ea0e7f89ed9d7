// perfbench — the BANKS serving stack measured end to end over loopback
// HTTP at the paper's §5.2 scale. See README.md for the workloads, the
// metrics and why each exists.
//
//   perfbench --workload cold|hot|ingest --seed N --seconds S --trace 0|1
//             --data-dir DIR [--commit SHA] [--source-digest HEX]
//
// One process: generates the seeded inputs, saves the dataset as CSV,
// starts the stack from that directory (as banks_server <csv-dir> does),
// drives the workload over real sockets, checks every answer, and prints
// the metrics. The last stdout line is the one-line JSON result.
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "server/query_cache.h"
#include "storage/csv.h"
#include "trace.h"
#include "util/json.h"

using namespace perfbench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
// Set-ups per run: four before the workload (the last one serves it) and
// three after it, so one slow stretch of the machine cannot cover them all.
constexpr int kSetupsBefore = 4;
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string data_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds >= 1 &&
         (a->trace == 0 || a->trace == 1) && !a->data_dir.empty();
}

/// Outcome of one query response: a failure is a non-200 status, a
/// transport error or a stream without its summary line.
bool QueryOk(bool sent, const Response& r) {
  return sent && r.status == 200 && r.HasDoneLine();
}

/// Open loop: request i is due at t0 + i / rate; each of `conns`
/// connections takes the next due request whenever it is free, so a
/// stall delays later requests and the delay is counted (times run from
/// the due time).
std::vector<Sample> OpenLoop(uint16_t port, size_t conns, double rate,
                             size_t n, Clock::time_point t0,
                             const std::function<std::string(size_t)>& body,
                             std::vector<std::string>* keep) {
  std::vector<Sample> samples(n);
  if (keep != nullptr) keep->assign(n, std::string());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      HttpClient client(port);
      Response r;
      for (size_t i; (i = next++) < n;) {
        const Clock::time_point due = t0 + Seconds(double(i) / rate);
        std::this_thread::sleep_until(due);
        Sample& s = samples[i];
        s.late_ms = MillisBetween(due, Clock::now());
        bool sent = client.connected() && client.Post("/query", body(i), &r);
        s.ok = QueryOk(sent, r);
        if (s.ok) {
          s.ttfa_ms = MillisBetween(due, r.first_line);
          s.latency_ms = MillisBetween(due, r.end);
        }
        if (!sent) client = HttpClient(port);
        if (keep != nullptr) (*keep)[i] = std::move(r.body);
      }
    });
  }
  for (auto& t : threads) t.join();
  return samples;
}

/// Closed loop: every connection sends its next request as soon as the
/// previous one completes, until `end`. Times run from the send time.
struct ClosedLoopResult {
  std::vector<Sample> samples;
  double seconds = 0;  // to the last completion
};
ClosedLoopResult ClosedLoop(
    uint16_t port, size_t conns, size_t cap, Clock::time_point end,
    const std::function<std::string(size_t)>& body,
    const std::function<bool(size_t, const Response&)>& check,
    std::vector<std::string>* keep) {
  ClosedLoopResult out;
  out.samples.resize(cap);
  if (keep != nullptr) keep->assign(cap, std::string());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      HttpClient client(port);
      Response r;
      while (Clock::now() < end) {
        size_t i = next++;
        if (i >= cap) break;
        std::string request = body(i);
        Sample& s = out.samples[i];
        const Clock::time_point sent_at = Clock::now();
        bool sent = client.connected() && client.Post("/query", request, &r);
        s.ok = QueryOk(sent, r) && check(i, r);
        if (s.ok) {
          s.ttfa_ms = MillisBetween(sent_at, r.first_line);
          s.latency_ms = MillisBetween(sent_at, r.end);
        }
        s.done_s = MillisBetween(start, Clock::now()) / 1e3;
        if (!sent) client = HttpClient(port);
        if (keep != nullptr) (*keep)[i] = std::move(r.body);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.samples.resize(std::min(cap, next.load()));
  if (keep != nullptr) keep->resize(out.samples.size());
  for (const Sample& s : out.samples) {
    out.seconds = std::max(out.seconds, s.done_s);
  }
  return out;
}

/// The writer: batch b due at t0 + b / rate (open loop; rate 0 sends back
/// to back), a POST /refreeze after every kRefreezeEvery batches, until
/// `end`.
struct WriterResult {
  std::vector<double> mutate_ms;
  std::vector<double> refreeze_ms;
  std::vector<double> mutate_at_s, refreeze_at_s;  // due / send, since t0
  size_t batches = 0;  // batches sent
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> late_ms;
};
bool MutateOk(const Response& r, size_t batch_size) {
  if (r.status != 200) return false;
  size_t ok = 0;
  for (size_t pos = 0; (pos = r.body.find("{\"ok\":true", pos)) !=
                       std::string::npos;
       ++pos) {
    ++ok;
  }
  return ok == batch_size && r.body.find("\"ok\":false") == std::string::npos;
}
void Writer(HttpClient& client, uint16_t port,
            const std::vector<Batch>& batches, double rate,
            Clock::time_point t0, Clock::time_point end,
            WriterResult* result) {
  WriterResult& out = *result;
  Response r;
  for (size_t b = 0; b < batches.size(); ++b) {
    Clock::time_point due = Clock::now();
    if (rate > 0) {
      due = t0 + Seconds(double(b) / rate);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(MillisBetween(due, Clock::now()));
    }
    ++out.attempted;
    ++out.batches;
    bool sent =
        client.connected() && client.Post("/mutate", batches[b].body, &r);
    out.mutate_at_s.push_back(MillisBetween(t0, due) / 1e3);
    if (sent && MutateOk(r, batches[b].mutations.size())) {
      out.mutate_ms.push_back(MillisBetween(due, r.end));
    } else {
      ++out.failed;
      out.mutate_ms.push_back(kInf);
      if (!sent) client = HttpClient(port);
    }
    if ((b + 1) % kRefreezeEvery == 0) {
      ++out.attempted;
      Clock::time_point sent_at = Clock::now();
      out.refreeze_at_s.push_back(MillisBetween(t0, sent_at) / 1e3);
      sent = client.connected() && client.Post("/refreeze", "", &r);
      if (sent && r.status == 200) {
        out.refreeze_ms.push_back(MillisBetween(sent_at, r.end));
      } else {
        ++out.failed;
        out.refreeze_ms.push_back(kInf);
      }
    }
  }
}

/// Cold's and hot's timed phase: `rounds` closed-loop rounds of the same
/// `n` requests, one after another, each run to its last reply.
struct RoundsResult {
  std::vector<std::vector<Sample>> samples;  // [round][request]
  std::vector<double> seconds;               // each round, to its last reply
};
RoundsResult Rounds(uint16_t port, size_t rounds, size_t n,
                    const std::function<std::string(size_t)>& body,
                    const std::function<bool(size_t, const Response&)>& check,
                    std::vector<std::vector<std::string>>* keep) {
  RoundsResult out;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<std::string>* kept = nullptr;
    if (keep != nullptr) kept = &keep->emplace_back();
    ClosedLoopResult one = ClosedLoop(port, kReaders, n,
                                      Clock::time_point::max(), body, check,
                                      kept);
    out.samples.push_back(std::move(one.samples));
    out.seconds.push_back(one.seconds);
  }
  return out;
}

/// The better of two repeats of one operation; a failed repeat (+inf)
/// keeps the operation failed.
double BestTime(double a, double b) {
  return std::isinf(a) || std::isinf(b) ? kInf : std::min(a, b);
}

/// Per request, the best of its repeats over the rounds. Interference from
/// outside the process only ever adds time, so the best of repeats spread
/// over the run is the request's own cost, steady from run to run.
std::vector<Sample> BestOf(const std::vector<std::vector<Sample>>& rounds) {
  std::vector<Sample> best = rounds.front();
  for (size_t r = 1; r < rounds.size(); ++r) {
    for (size_t i = 0; i < best.size(); ++i) {
      best[i].ok = best[i].ok && rounds[r][i].ok;
      best[i].ttfa_ms = BestTime(best[i].ttfa_ms, rounds[r][i].ttfa_ms);
      best[i].latency_ms =
          BestTime(best[i].latency_ms, rounds[r][i].latency_ms);
    }
  }
  return best;
}

struct Phase {
  std::vector<double> ttfa, latency, late;
  size_t attempted = 0, failed = 0;
  void Add(const std::vector<Sample>& samples) {
    for (const Sample& s : samples) {
      ++attempted;
      if (!s.ok) ++failed;
      ttfa.push_back(s.ok ? s.ttfa_ms : kInf);
      latency.push_back(s.ok ? s.latency_ms : kInf);
      late.push_back(s.late_ms);
    }
  }
};

std::string EnvLine(const Args& a, const Spec& spec, size_t nproc) {
  std::string env = "env {\"hardware_threads\":" + std::to_string(nproc);
  env += ",\"compiler\":";
  banks::JsonAppendQuoted(&env, std::string("gcc-compatible ") + __VERSION__);
  env += ",\"build_type\":";
  banks::JsonAppendQuoted(&env, PERFBENCH_BUILD_TYPE);
  env += ",\"commit\":";
  banks::JsonAppendQuoted(&env, a.commit);
  env += ",\"source_digest\":";
  banks::JsonAppendQuoted(&env, a.source_digest);
  env += ",\"seed\":" + std::to_string(a.seed);
  env += ",\"workload\":";
  banks::JsonAppendQuoted(&env, spec.name);
  env += ",\"connections\":" +
         std::to_string(kReaders + (spec.write_rate > 0 ? kWriters : 0));
  env += ",\"http_workers\":" + std::to_string(kHttpWorkers);
  env += ",\"pool_workers\":" + std::to_string(spec.pool_workers);
  env += ",\"trace\":" + std::to_string(a.trace) + "}";
  return env;
}

/// Verifies every round's stored /query body of each query against one
/// in-process drain on the same state, on up to `threads` threads.
size_t CountMismatches(const banks::BanksEngine& engine,
                       const std::vector<Query>& queries,
                       const std::vector<std::vector<std::string>>& rounds,
                       bool render, size_t threads) {
  std::atomic<size_t> next{0}, bad{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next++) < queries.size();) {
        const std::string expected =
            DrainedAnswers(engine, {.text = queries[i].text}, render);
        for (const std::vector<std::string>& bodies : rounds) {
          // An empty body is a failed request, counted already.
          if (!bodies[i].empty() && !StreamMatches(bodies[i], expected)) {
            ++bad;
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return bad.load();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold|hot|ingest --seed N "
                 "--seconds S --trace 0|1 --data-dir DIR [--commit SHA] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Spec spec;
  if (!SpecFor(args.workload, nproc, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Thread budget: a reader connection's client thread, HTTP worker and
  // pool task hand one request along and run one at a time; a writer's
  // request runs on its HTTP worker. So at most max(connections, pool
  // workers + writers) threads are runnable at once.
  const size_t connections = kReaders + kWriters;
  const size_t runnable = std::max(connections, spec.pool_workers + kWriters);
  if (connections > nproc || runnable > nproc) {
    std::fprintf(stderr,
                 "thread budget exceeded: %zu connections, %zu HTTP "
                 "workers, %zu pool workers, %zu runnable > %zu hardware "
                 "threads\n",
                 connections, kHttpWorkers, spec.pool_workers, runnable,
                 nproc);
    return 3;
  }
  std::printf("%s\n", EnvLine(args, spec, nproc).c_str());

  Inputs in;
  std::string error;
  if (!MakeInputs(spec, args.seed, args.seconds, args.data_dir, &in, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("dataset fingerprint %016llx\n",
              static_cast<unsigned long long>(in.fingerprint));

  if (args.trace == 1) return RunTraced(spec, in, args.seconds);

  Report report;
  WriterResult writes;  // ingest's writer

  // ------------------------------------------------------------ set-up
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  auto set_up = [&]() -> bool {
    stack.reset();
    // Return the freed stack's memory to the system, so the peak resident
    // set does not depend on how allocator arenas happened to be reused.
    malloc_trim(0);
    Clock::time_point t = Clock::now();
    stack = StartStack(in.csv_dir, spec, &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
    setup_s.push_back(MillisBetween(t, Clock::now()) / 1e3);
    return true;
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up()) return 1;
  }
  const uint16_t port = stack->port();
  banks::BanksEngine& engine = *stack->engine;

  // ------------------------------------------------------------ warm-up
  // Untimed: exercises resolution, expansion, the pool and the sockets
  // with queries outside the timed stream.
  {
    HttpClient client(port);
    Response r;
    for (const Query& q : in.warm) {
      if (!client.Post("/query", QueryBody(q.text, spec.render), &r) ||
          r.status != 200) {
        std::fprintf(stderr, "warm-up request failed\n");
        return 1;
      }
    }
  }

  bool correct = true;
  bool flagged = false;  // class-boundary check (reported, not fatal)
  // Peak memory of the process through the timed phase, taken before the
  // checks' in-process engines and the later set-ups add their own.
  double rss_mb = 0;
  Phase timed, closed;
  RoundsResult rounds;       // cold and hot
  std::vector<Sample> best;  // cold and hot: per request, its best round
  std::vector<Sample> peak;  // ingest: closed-loop requests
  double peak_seconds = 0;   // ingest: closed-loop time, to each half's end

  if (spec.name == "hot") {
    // Warm the hot set into the cache and check every distinct query:
    // the in-process drain fills the entry, the HTTP stream replays it.
    std::vector<std::string> expected;
    {
      // Scoped: a keep-alive connection pins an HTTP worker.
      HttpClient client(port);
      Response r;
      for (const Query& q : in.set) {
        expected.push_back(DrainedAnswers(engine, {.text = q.text}, false));
        if (!client.Post("/query", QueryBody(q.text, false), &r) ||
            !StreamMatches(r.body, expected.back())) {
          std::printf("MISMATCH hot set query '%s'\n", q.text.c_str());
          correct = false;
        }
      }
    }
    std::vector<std::string> bodies;
    for (const Query& q : in.set) bodies.push_back(QueryBody(q.text, false));
    const banks::server::QueryCacheStats before = engine.query_cache_stats();
    rounds = Rounds(
        port, spec.rounds, in.zipf.size(),
        [&](size_t i) { return bodies[in.zipf[i]]; },
        [&](size_t i, const Response& resp) {
          return StreamMatches(resp.body, expected[in.zipf[i]]);
        },
        nullptr);
    rss_mb = PeakRssMb();
    const banks::server::QueryCacheStats after = engine.query_cache_stats();
    const uint64_t misses = after.misses - before.misses +
                            after.invalidations - before.invalidations;
    if (misses != 0) {
      std::printf("hot: %llu timed requests missed the cache\n",
                  static_cast<unsigned long long>(misses));
      correct = false;
    }
    best = BestOf(rounds.samples);
    for (size_t i = 0; i < best.size(); ++i) {
      best[i].cls = int(in.set[in.zipf[i]].form);
    }
  } else if (spec.name == "cold") {
    std::vector<std::vector<std::string>> bodies;  // [round][query]
    rounds = Rounds(
        port, spec.rounds, in.timed.size(),
        [&](size_t i) { return QueryBody(in.timed[i].text, true); },
        [](size_t, const Response&) { return true; }, &bodies);
    rss_mb = PeakRssMb();
    // Output check on the state that served them (cold never writes
    // during its reads).
    size_t bad = CountMismatches(engine, in.timed, bodies, true, nproc);
    if (bad != 0) {
      std::printf("MISMATCH: %zu cold streams differ from in-process "
                  "drains\n",
                  bad);
      correct = false;
    }
    best = BestOf(rounds.samples);
    for (size_t i = 0; i < best.size(); ++i) {
      best[i].cls = int(in.timed[i].form);
    }
  } else {  // ingest
    {
      HttpClient client(port);
      Response r;
      for (const Query& q : in.set) {
        if (!client.Post("/query", QueryBody(q.text, false), &r) ||
            r.status != 200) {
          std::fprintf(stderr, "warm-up request failed\n");
          return 1;
        }
      }
    }
    const double open_seconds = args.seconds * kOpenShare;
    const double closed_half = (args.seconds - open_seconds) / 2;
    const size_t n_open = static_cast<size_t>(
        std::ceil(spec.open_rate * open_seconds));
    // The closed halves sit before and after the open loop, so one slow
    // stretch of the machine cannot cover both.
    auto closed_loop = [&](size_t cap, Clock::time_point end,
                           const std::function<std::string(size_t)>& body) {
      ClosedLoopResult result = ClosedLoop(
          port, kReaders, cap, end, body,
          [](size_t, const Response&) { return true; }, nullptr);
      peak.insert(peak.end(), result.samples.begin(), result.samples.end());
      peak_seconds += result.seconds;
      return result.samples.size();
    };
    std::vector<std::string> bodies;
    for (const Query& q : in.set) bodies.push_back(QueryBody(q.text, false));
    const Clock::time_point t0 = Clock::now();
    std::thread writer([&] {
      HttpClient client(port);
      Writer(client, port, in.batches, spec.write_rate, t0,
             t0 + Seconds(args.seconds), &writes);
    });
    // Readers: closed half, open loop, closed half. The open loop reads
    // zipf[0, n_open); the closed halves read on from there.
    auto zipf_body = [&](size_t offset) {
      return [&, offset](size_t i) { return bodies[in.zipf[offset + i]]; };
    };
    const size_t cap = in.zipf.size() - n_open;
    const size_t first =
        closed_loop(cap, t0 + Seconds(closed_half), zipf_body(n_open));
    std::vector<Sample> open = OpenLoop(
        port, kReaders, spec.open_rate, n_open,
        t0 + Seconds(closed_half), zipf_body(0), nullptr);
    closed_loop(cap - first, t0 + Seconds(args.seconds),
                zipf_body(n_open + first));
    writer.join();
    rss_mb = PeakRssMb();
    for (size_t i = 0; i < n_open; ++i) {
      open[i].cls = int(in.set[in.zipf[i]].form);
    }
    timed.Add(open);
    // The writes of the open-loop phase: while the readers run back to
    // back they never leave the engine's state lock idle and writes queue
    // far longer, a different class. The write percentiles take the open
    // phase only, like the read percentiles.
    WriterResult open_writes;
    for (size_t i = 0; i < writes.mutate_ms.size(); ++i) {
      const double at = writes.mutate_at_s[i];
      if (at >= closed_half && at < closed_half + open_seconds) {
        open_writes.mutate_ms.push_back(writes.mutate_ms[i]);
      }
    }
    for (size_t i = 0; i < writes.refreeze_ms.size(); ++i) {
      const double at = writes.refreeze_at_s[i];
      if (at >= closed_half && at < closed_half + open_seconds) {
        open_writes.refreeze_ms.push_back(writes.refreeze_ms[i]);
      }
    }

    // Final-state oracle: fold everything into a fresh epoch, then every
    // reader query must answer exactly as a fresh engine built from the
    // base CSV plus the same mutations applied straight to storage.
    HttpClient client(port);
    Response r;
    if (!client.Post("/refreeze", "{\"force\":true}", &r) || r.status != 200) {
      std::printf("ingest: forced refreeze failed\n");
      correct = false;
    }
    auto db = banks::LoadDatabase(in.csv_dir);
    bool applied = db.ok();
    for (size_t b = 0; applied && b < writes.batches; ++b) {
      for (const banks::Mutation& m : in.batches[b].mutations) {
        banks::Database& d = db.value();
        switch (m.kind) {
          case banks::Mutation::Kind::kInsert:
            applied = d.Insert(m.table, m.tuple).ok();
            break;
          case banks::Mutation::Kind::kDelete:
            applied = d.Delete(m.rid).ok();
            break;
          case banks::Mutation::Kind::kUpdate:
            applied = d.UpdateValue(m.rid, m.column, m.value).ok();
            break;
        }
        if (!applied) break;
      }
    }
    if (!applied) {
      std::printf("ingest: oracle could not replay the mutation stream\n");
      correct = false;
    } else {
      banks::BanksEngine fresh(std::move(db).value(), EngineOptions(false));
      size_t bad = 0;
      for (const Query& q : in.set) {
        std::string want = DrainedAnswers(fresh, {.text = q.text}, false);
        if (!client.Post("/query", QueryBody(q.text, false), &r) ||
            !StreamMatches(r.body, want)) {
          ++bad;
        }
      }
      if (bad != 0) {
        std::printf("MISMATCH: %zu reader queries differ from a fresh "
                    "engine over the final database\n",
                    bad);
        correct = false;
      }
    }
    report.Note(ClassBoundaryCheck(open, FormNames(), &flagged));
    writes.mutate_ms = std::move(open_writes.mutate_ms);
    writes.refreeze_ms = std::move(open_writes.refreeze_ms);
  }

  if (spec.rounds > 0) {
    report.Note(ClassBoundaryCheck(best, FormNames(), &flagged));
  }

  // The closed loop's latency limit on p90 TTFA, over all its requests.
  for (const std::vector<Sample>& round : rounds.samples) closed.Add(round);
  closed.Add(peak);
  const double peak_p90 = Percentile(closed.ttfa, 0.9);
  if (!(peak_p90 <= spec.ttfa_limit_ms)) {
    std::printf("closed-loop p90 TTFA %.2f ms exceeds the %.0f ms limit\n",
                peak_p90, spec.ttfa_limit_ms);
    correct = false;
  }

  // The remaining set-ups replace the serving stack.
  while (setup_s.size() < size_t(kSetups)) {
    if (!set_up()) return 1;
  }

  const size_t attempted =
      writes.attempted + closed.attempted + timed.attempted;
  const size_t failed = writes.failed + closed.failed + timed.failed;

  if (spec.open_rate > 0) {
    report.Note("generator lateness p90 " +
                std::to_string(Percentile(timed.late, 0.9)) +
                " ms (open loop, " + std::to_string(timed.late.size()) +
                " requests)");
  }
  if (!writes.late_ms.empty()) {
    report.Note("writer lateness p90 " +
                std::to_string(Percentile(writes.late_ms, 0.9)) + " ms (" +
                std::to_string(writes.late_ms.size()) + " batches)");
  }
  report.Note("closed-loop p90 TTFA " + std::to_string(peak_p90) +
              " ms (limit " + std::to_string(spec.ttfa_limit_ms) + " ms)");

  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  if (spec.rounds > 0) {
    // Cold and hot: percentiles over the round's requests, each at its
    // best round.
    std::vector<double> ttfa, latency;
    for (const Sample& s : best) {
      ttfa.push_back(s.ttfa_ms);
      latency.push_back(s.latency_ms);
    }
    // Little's law: with every connection sending back to back, a closed
    // loop completes connections / mean latency requests a second. Taken
    // with each request at its best round, like the percentiles: a
    // round's own rate sums every delay of the round.
    double busy_s = 0;
    for (const Sample& s : best) busy_s += s.latency_ms / 1e3;
    const double qps =
        busy_s > 0 ? double(kReaders * best.size()) / busy_s : 0;
    std::string rates = "round rates";
    for (size_t r = 0; r < rounds.samples.size(); ++r) {
      double ok = 0;
      for (const Sample& s : rounds.samples[r]) ok += s.ok ? 1 : 0;
      rates += " " + std::to_string(ok / rounds.seconds[r]);
    }
    report.Note(rates + " req/s");
    report.Add("ttfa_p50_ms", Percentile(ttfa, 0.5), "ms", ttfa.size());
    report.Add("ttfa_p90_ms", Percentile(ttfa, 0.9), "ms", ttfa.size());
    report.Add("latency_p50_ms", Percentile(latency, 0.5), "ms",
               latency.size());
    report.Add("latency_p90_ms", Percentile(latency, 0.9), "ms",
               latency.size());
    report.Add("peak_qps", qps, "req/s", best.size());
  } else {
    // Ingest: percentiles over every open-loop request, and the rate over
    // the whole closed loop.
    const size_t n_timed = timed.ttfa.size();
    report.Add("ttfa_p50_ms", Percentile(timed.ttfa, 0.5), "ms", n_timed);
    report.Add("ttfa_p90_ms", Percentile(timed.ttfa, 0.9), "ms", n_timed);
    report.Add("latency_p50_ms", Percentile(timed.latency, 0.5), "ms",
               n_timed);
    report.Add("latency_p90_ms", Percentile(timed.latency, 0.9), "ms",
               n_timed);
    report.Add("peak_qps",
               peak_seconds > 0
                   ? double(closed.attempted - closed.failed) / peak_seconds
                   : 0,
               "req/s", closed.attempted);
  }
  report.Add("rss_mb", rss_mb, "MB", 1);
  if (spec.write_rate > 0) {
    // Ingest's write metrics (cold and hot write nothing).
    report.Add("mutate_p50_ms", Percentile(writes.mutate_ms, 0.5), "ms",
               writes.mutate_ms.size());
    report.Add("mutate_p90_ms", Percentile(writes.mutate_ms, 0.9), "ms",
               writes.mutate_ms.size());
    report.Add("refreeze_p50_ms", Median(writes.refreeze_ms), "ms",
               writes.refreeze_ms.size());
  }
  stack.reset();
  return report.Finish(correct, attempted, failed);
}
