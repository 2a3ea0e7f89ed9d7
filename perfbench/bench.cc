#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "eval/workload.h"
#include "snapshot/snapshot.h"
#include "storage/csv.h"
#include "util/json.h"

namespace perfbench {

using banks::server::net::BanksService;
using banks::server::net::BanksServiceOptions;
using banks::server::net::HttpRequest;
using banks::server::net::HttpResponseWriter;
using banks::server::net::HttpServer;
using banks::server::net::HttpServerOptions;

bool SpecFor(const std::string& workload, size_t nproc, Spec* out) {
  Spec s;
  s.name = workload;
  s.pool_workers = std::max<size_t>(1, nproc / 2);
  if (workload == "cold") {
    s.render = true;
    // Two back-to-back connections complete ~24 cold queries a second. At
    // 30 s each of the four rounds holds 180 distinct queries, enough for a
    // p90 that does not move with the seed's draw.
    s.rounds = 4;
    s.round_rate = 24;
  } else if (workload == "hot") {
    s.cache = true;
    s.ttfa_limit_ms = 10;
    // Two connections complete 5K-18K hot requests a second as the
    // machine's speed drifts. At 30 s each of the ten rounds holds 12K
    // requests.
    s.rounds = 10;
    s.round_rate = 4000;
  } else if (workload == "ingest") {
    s.cache = true;
    // Readers hold the engine's state lock while they resolve keywords
    // (~30 ms), and a batch publishes under it: at 9 reads/s about a
    // quarter of the batches wait, so mutate_p50_ms sits inside the
    // no-wait class and mutate_p90_ms inside the wait class. 9 and 10 are
    // coprime rates, so the batches sweep every phase of the reads.
    s.open_rate = 9;
    s.write_rate = 10;
  } else {
    return false;
  }
  *out = s;
  return true;
}

size_t PerRound(const Spec& spec, double seconds) {
  if (spec.rounds == 0) return 0;
  size_t n = static_cast<size_t>(
      std::ceil(spec.round_rate * seconds / double(spec.rounds)));
  // Cold: whole blocks, so a round ends on light queries (the heavy one
  // sits mid-block) and its last reply does not wait on a heavy tail.
  if (spec.name == "cold") n = (n + kBlock - 1) / kBlock * kBlock;
  return n;
}

banks::BanksOptions EngineOptions(bool cache) {
  banks::BanksOptions options = banks::EvalWorkload::DefaultOptions();
  options.match.approx.enable = true;
  options.allow_partial_match = true;
  options.search.strategy = banks::SearchStrategy::kBackward;
  options.cache.enabled = cache;
  return options;
}

Stack::~Stack() {
  if (server) server->Stop();
}

std::unique_ptr<Stack> StartStack(const std::string& csv_dir,
                                  const Spec& spec, std::string* error) {
  auto loaded = banks::LoadDatabase(csv_dir);
  if (!loaded.ok()) {
    *error = "load failed: " + loaded.status().ToString();
    return nullptr;
  }
  auto stack = std::make_unique<Stack>();
  stack->engine = std::make_unique<banks::BanksEngine>(
      std::move(loaded).value(), EngineOptions(spec.cache));
  BanksServiceOptions service_options;
  service_options.pool.num_workers = spec.pool_workers;
  stack->service =
      std::make_unique<BanksService>(stack->engine.get(), service_options);
  HttpServerOptions server_options;
  server_options.num_threads = static_cast<int>(kHttpWorkers);
  BanksService* service = stack->service.get();
  stack->server = std::make_unique<HttpServer>(
      server_options,
      [service](const HttpRequest& request, HttpResponseWriter& writer) {
        service->Handle(request, writer);
      });
  banks::Status started = stack->server->Start();
  if (!started.ok()) {
    *error = "cannot start server: " + started.ToString();
    return nullptr;
  }
  return stack;
}

bool MakeInputs(const Spec& spec, uint64_t seed, double seconds,
                const std::string& csv_dir, Inputs* out,
                std::string* error) {
  banks::DblpDataset ds = banks::GenerateDblp(DatasetConfig(seed));
  out->csv_dir = csv_dir;
  out->fingerprint = banks::snapshot::DatabaseFingerprint(ds.db);
  banks::Status saved = banks::SaveDatabase(ds.db, csv_dir);
  if (!saved.ok()) {
    *error = "cannot save dataset: " + saved.ToString();
    return false;
  }

  QueryGen queries(ds, seed);
  MutationGen writer(ds, seed);
  out->warm = queries.Light(8);
  if (spec.name == "cold") {
    out->timed = queries.Cold(PerRound(spec, seconds));
    if (out->timed.size() != PerRound(spec, seconds)) {
      *error = "query generator exhausted";
      return false;
    }
  } else if (spec.name == "hot") {
    out->set = queries.Light(kHotSetSize);
    out->zipf = ZipfStream(kHotSetSize, PerRound(spec, seconds), seed);
  } else {
    const size_t n_open = static_cast<size_t>(
        std::ceil(spec.open_rate * seconds * kOpenShare));
    out->set = writer.ReaderQueries(kReaderSetSize);
    out->zipf = ZipfStream(kReaderSetSize,
                           static_cast<size_t>(200 * seconds) + n_open, seed);
  }
  // The writer stream: ingest writes throughout the run; the traced run of
  // cold and hot applies the first 40 batches (ten refreezes) after its
  // reads.
  const size_t n_batches =
      spec.write_rate > 0
          ? static_cast<size_t>(std::ceil(spec.write_rate * seconds)) + 1
          : 40;
  out->batches.reserve(n_batches);
  for (size_t b = 0; b < n_batches; ++b) out->batches.push_back(writer.Make(b));
  if (out->warm.empty() || (spec.name != "cold" && out->set.empty())) {
    *error = "query generator exhausted";
    return false;
  }
  return true;
}

std::string QueryBody(const std::string& text, bool render) {
  std::string body = "{\"text\":";
  banks::JsonAppendQuoted(&body, text);
  body += render ? ",\"render\":true}" : "}";
  return body;
}

std::string DrainedAnswers(const banks::BanksEngine& engine,
                           const banks::QueryRequest& request, bool render) {
  auto session = engine.OpenSession(request);
  std::string out;
  if (!session.ok()) return out;
  while (auto answer = session.value().Next()) {
    out += BanksService::AnswerJson(engine, answer->tree, answer->rank, render);
    out += '\n';
  }
  return out;
}

bool StreamMatches(const std::string& body, const std::string& answers) {
  if (body.size() <= answers.size() ||
      body.compare(0, answers.size(), answers) != 0) {
    return false;
  }
  // Exactly one more line: the summary.
  return body.compare(answers.size(), 12, "{\"done\":true") == 0 &&
         body.find('\n', answers.size()) == body.size() - 1;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * double(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::string ClassBoundaryCheck(const std::vector<Sample>& samples,
                               const std::vector<std::string>& class_names,
                               bool* flagged) {
  const size_t n = samples.size();
  // "A few samples": 3, or 1% of a large run.
  const size_t near = std::max<size_t>(3, n / 100);
  std::string out;
  char buf[256];
  for (const char* metric : {"ttfa", "latency"}) {
    const bool ttfa = metric[0] == 't';
    std::vector<std::vector<double>> by(class_names.size());
    for (const Sample& s : samples) {
      by[s.cls].push_back(ttfa ? s.ttfa_ms : s.latency_ms);
    }
    std::vector<size_t> order;
    for (size_t c = 0; c < by.size(); ++c) {
      if (!by[c].empty()) order.push_back(c);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return Median(by[a]) < Median(by[b]);
    });
    size_t cum = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      const std::vector<double>& v = by[order[k]];
      std::snprintf(buf, sizeof(buf),
                    "class %-8s %-14s share %5.1f%% n %6zu  min %8.3f p10 "
                    "%8.3f p50 %8.3f p90 %8.3f max %8.3f ms\n",
                    metric, class_names[order[k]].c_str(),
                    100.0 * double(v.size()) / double(n), v.size(),
                    Percentile(v, 1e-9), Percentile(v, 0.1), Median(v),
                    Percentile(v, 0.9), Percentile(v, 1.0));
      out += buf;
      cum += v.size();
      if (k + 1 == order.size()) break;
      // A jump: the faster class's bulk lies wholly below the slower one's.
      if (!(Percentile(v, 0.9) < Percentile(by[order[k + 1]], 0.1))) continue;
      for (double p : {0.5, 0.9}) {
        const size_t rank = static_cast<size_t>(std::ceil(p * double(n)));
        const size_t gap = rank > cum ? rank - cum : cum - rank;
        if (gap <= near) {
          std::snprintf(buf, sizeof(buf),
                        "FLAG %s p%.0f (rank %zu) is %zu samples from the "
                        "jump after class %s (rank %zu)\n",
                        metric, p * 100, rank, gap,
                        class_names[order[k]].c_str(), cum);
          out += buf;
          *flagged = true;
        }
      }
    }
  }
  out += "class-boundary check: ";
  out += *flagged ? "FLAGGED" : "ok";
  return out;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back({name, unit, value, samples});
}

int Report::Finish(bool correct, size_t attempted, size_t failed) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("%-40s %14s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-40s %14.4f %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) line += ',';
    banks::JsonAppendQuoted(&line, m.name);
    // A failed request counts as an infinitely late one; JSON has no
    // infinity, so it prints as 1e300.
    double v = std::isfinite(m.value) ? m.value : 1e300;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    line += ":{\"value\":";
    line += buf;
    line += ",\"unit\":";
    banks::JsonAppendQuoted(&line, m.unit);
    line += '}';
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
