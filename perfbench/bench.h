// Shared pieces of the serving benchmark: workload constants, the serving
// stack, the inputs, the answer oracle and the metric report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/banks.h"
#include "gen.h"
#include "http_client.h"
#include "server/net/banks_service.h"
#include "server/net/http_server.h"

namespace perfbench {

/// Every workload reads over two connections; ingest also writes over
/// one. One HTTP worker per connection.
inline constexpr size_t kReaders = 2;
inline constexpr size_t kWriters = 1;
inline constexpr size_t kHttpWorkers = kReaders + kWriters;
/// Batches per POST /refreeze.
inline constexpr size_t kRefreezeEvery = 4;
/// Share of --seconds that ingest's open loop takes; its closed loop
/// splits the rest.
inline constexpr double kOpenShare = 0.7;

/// Fixed per-workload constants. Rates and cadences are never calibrated
/// per run: a run's inputs are a function of the seed alone.
struct Spec {
  std::string name;
  bool cache = false;          // QueryCache enabled
  bool render = false;         // "render" in the query body
  double open_rate = 0;        // ingest's open-loop requests/s
  size_t rounds = 0;           // cold, hot: closed-loop rounds of one stream
  double round_rate = 0;       // requests/s the rounds are sized for
  double ttfa_limit_ms = 250;  // p90 TTFA limit of the closed-loop phase
  double write_rate = 0;       // ingest's writer batches/s (0 = no writer)
  size_t pool_workers = 0;     // nproc / 2
};

/// The three workloads; `nproc` sizes the pool.
bool SpecFor(const std::string& workload, size_t nproc, Spec* out);

/// Requests in each of cold's and hot's rounds: the rounds together are
/// sized to take about `seconds` at `round_rate` (cold's round is whole
/// blocks of the query mix).
size_t PerRound(const Spec& spec, double seconds);

/// banks_server's options: EvalWorkload defaults, approximate and partial
/// matching, backward search; the query cache as the workload needs.
banks::BanksOptions EngineOptions(bool cache);

/// BanksEngine -> SessionPool -> BanksService + HttpServer on loopback.
struct Stack {
  std::unique_ptr<banks::BanksEngine> engine;
  std::unique_ptr<banks::server::net::BanksService> service;
  std::unique_ptr<banks::server::net::HttpServer> server;

  uint16_t port() const { return server->port(); }
  ~Stack();
};

/// The binary's `<csv-dir>` start-up path: LoadDatabase, engine build,
/// pool start and listener ready. Null (with `*error` set) on failure.
std::unique_ptr<Stack> StartStack(const std::string& csv_dir,
                                  const Spec& spec, std::string* error);

/// Everything a run sends, generated from the seed before any timing.
struct Inputs {
  std::string csv_dir;
  uint64_t fingerprint = 0;            // snapshot::DatabaseFingerprint
  std::vector<Query> timed;            // cold: every round's queries
  std::vector<Query> warm;             // untimed warm-up queries
  std::vector<Query> set;              // hot set / ingest reader set
  std::vector<uint32_t> zipf;          // hot / ingest: indexes into `set`
  std::vector<Batch> batches;          // writer stream
};

/// Generates the dataset for `seed`, saves it to `csv_dir` and draws the
/// workload's streams, sized for `seconds` of measurement.
bool MakeInputs(const Spec& spec, uint64_t seed, double seconds,
                const std::string& csv_dir, Inputs* out, std::string* error);

/// `{"text":...,"render":...}` — the JSON image of a QueryRequest.
std::string QueryBody(const std::string& text, bool render);

/// The oracle: AnswerJson over an in-process drained OpenSession, one
/// NDJSON line per answer.
std::string DrainedAnswers(const banks::BanksEngine& engine,
                           const banks::QueryRequest& request, bool render);

/// True iff an HTTP /query body is `answers` followed by one summary line.
bool StreamMatches(const std::string& body, const std::string& answers);

/// One timed request as the client saw it. +inf times mark a failure.
struct Sample {
  double ttfa_ms = std::numeric_limits<double>::infinity();
  double latency_ms = std::numeric_limits<double>::infinity();
  double late_ms = 0;  // open loop: send time minus due time
  double done_s = 0;   // completion time, seconds since the phase began
  int cls = 0;         // request class (Form, or a workload-specific class)
  bool ok = false;
};

/// Prints every request class's share and latency range, and flags a
/// reported percentile of `samples` that lies within a few samples of a
/// jump between two classes (adjacent by median latency, with the faster
/// class's p90 below the slower class's p10). `*flagged` is set on a flag.
std::string ClassBoundaryCheck(const std::vector<Sample>& samples,
                               const std::vector<std::string>& class_names,
                               bool* flagged);

/// Nearest-rank percentile (p in (0,1]); +inf marks a failed request.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Metrics of one run, printed with unit and sample count, plus the final
/// one-line JSON result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Prints the table and notes, then the result line. Returns the exit
  /// code.
  int Finish(bool correct, size_t attempted, size_t failed) const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
    size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
