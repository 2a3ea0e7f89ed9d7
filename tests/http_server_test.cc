// End-to-end tests for the HTTP serving tier (src/server/net/).
//
// The contract under test, from the transport up: the request parser is
// strict (HttpParseTest), and a streamed POST /query response is
// byte-identical — roots, scores, order — to serializing a drained
// in-process search with the same QueryRequest (HttpServerTest). Plus the
// serving semantics: per-request budget knobs map onto Budget, pool
// overload surfaces as a typed 429, malformed/unknown-field bodies as a
// typed 400, and the whole tier survives concurrent mixed traffic
// (HttpServerStress, picked up by the CI TSan stress job).
#include "server/net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "eval/workload.h"
#include "server/net/banks_service.h"
#include "server/net/http.h"
#include "server/net/socket.h"
#include "util/json.h"

namespace banks::server::net {
namespace {

// ---------------------------------------------------------------------------
// Request-head parser unit tests (no sockets involved).

TEST(HttpParseTest, ParsesRequestLineAndLowercasesHeaders) {
  HttpRequest request;
  Status status = ParseRequestHead(
      "POST /query?trace=1 HTTP/1.1\r\nHost: localhost\r\n"
      "X-Custom-Header:  spaced value \r\nContent-Length: 12",
      &request);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/query?trace=1");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_NE(request.FindHeader("x-custom-header"), nullptr);
  EXPECT_EQ(*request.FindHeader("x-custom-header"), "spaced value");
  ASSERT_NE(request.FindHeader("content-length"), nullptr);
  EXPECT_EQ(*request.FindHeader("content-length"), "12");
  EXPECT_EQ(request.FindHeader("X-Custom-Header"), nullptr);  // lookup is lc
  EXPECT_TRUE(request.keep_alive);
}

TEST(HttpParseTest, ConnectionPersistenceDefaultsAndOverrides) {
  HttpRequest request;
  ASSERT_TRUE(ParseRequestHead("GET / HTTP/1.0\r\nHost: x", &request).ok());
  EXPECT_FALSE(request.keep_alive);  // 1.0 defaults to close
  ASSERT_TRUE(
      ParseRequestHead("GET / HTTP/1.0\r\nConnection: keep-alive", &request)
          .ok());
  EXPECT_TRUE(request.keep_alive);
  ASSERT_TRUE(
      ParseRequestHead("GET / HTTP/1.1\r\nConnection: close", &request).ok());
  EXPECT_FALSE(request.keep_alive);
}

TEST(HttpParseTest, RejectsMalformedHeads) {
  HttpRequest request;
  // Wrong shape of the request line.
  EXPECT_FALSE(ParseRequestHead("GET/query HTTP/1.1", &request).ok());
  EXPECT_FALSE(ParseRequestHead("GET /query HTTP/1.1 extra", &request).ok());
  EXPECT_FALSE(ParseRequestHead("GET query HTTP/1.1", &request).ok());
  EXPECT_FALSE(ParseRequestHead("GET /query HTTP/2.0", &request).ok());
  EXPECT_FALSE(ParseRequestHead("", &request).ok());
  // Header lines: missing colon, empty name, whitespace around the name
  // (request-smuggling vector per RFC 9112).
  EXPECT_FALSE(
      ParseRequestHead("GET / HTTP/1.1\r\nBadHeader", &request).ok());
  EXPECT_FALSE(ParseRequestHead("GET / HTTP/1.1\r\n: value", &request).ok());
  EXPECT_FALSE(
      ParseRequestHead("GET / HTTP/1.1\r\nHost : x", &request).ok());
}

// ---------------------------------------------------------------------------
// Loopback test client: raw socket in, parsed (dechunked) response out.

struct TestResponse {
  bool ok = false;  // transport-level success (sent + parsed a response)
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // names lc'd
  std::string body;  // dechunked when the response was chunked
};

const std::string* FindHeader(const TestResponse& response,
                              std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// Splits an NDJSON body into its lines (drops the trailing empty piece).
std::vector<std::string> Lines(const std::string& body) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(body.substr(pos));
      break;
    }
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

/// The typed code out of an `{"error":{...}}` body ("" when absent).
std::string ErrorCode(const TestResponse& response) {
  auto parsed = JsonValue::Parse(response.body);
  if (!parsed.ok()) return "";
  const JsonValue* error = parsed.value().Find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->Find("code");
  return code != nullptr && code->is_string() ? code->string_value() : "";
}

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    auto sock = Socket::ConnectLoopback(port);
    if (sock.ok()) sock_ = std::move(sock).value();
  }

  bool connected() const { return sock_.valid(); }

  bool SendRaw(std::string_view bytes) { return sock_.SendAll(bytes); }

  bool SendRequest(std::string_view method, std::string_view target,
                   std::string_view body) {
    std::string request(method);
    request += ' ';
    request += target;
    request += " HTTP/1.1\r\nHost: localhost\r\nContent-Length: ";
    request += std::to_string(body.size());
    request += "\r\n\r\n";
    request += body;
    return SendRaw(request);
  }

  /// Reads and parses the status line + headers; body bytes stay buffered.
  /// Returning true proves the server committed to this response (for
  /// /query: the pool admitted the session before the head was sent).
  bool ReadHead(TestResponse* out) {
    size_t head_end;
    while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = carry_.substr(0, head_end);
    carry_.erase(0, head_end + 4);

    out->headers.clear();
    size_t line_end = head.find("\r\n");
    std::string status_line =
        head.substr(0, line_end == std::string::npos ? head.size() : line_end);
    size_t sp = status_line.find(' ');
    if (sp == std::string::npos) return false;
    out->status = std::atoi(status_line.c_str() + sp + 1);

    size_t pos =
        line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      size_t end = head.find("\r\n", pos);
      std::string line =
          head.substr(pos, (end == std::string::npos ? head.size() : end) - pos);
      pos = end == std::string::npos ? head.size() : end + 2;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      out->headers.emplace_back(std::move(name), std::move(value));
    }
    return true;
  }

  bool ReadBody(TestResponse* out) {
    const std::string* te = FindHeader(*out, "transfer-encoding");
    if (te != nullptr && *te == "chunked") return Dechunk(&out->body);
    size_t length = 0;
    if (const std::string* cl = FindHeader(*out, "content-length")) {
      length = static_cast<size_t>(std::strtoull(cl->c_str(), nullptr, 10));
    }
    while (carry_.size() < length) {
      if (!Fill()) return false;
    }
    out->body = carry_.substr(0, length);
    carry_.erase(0, length);
    return true;
  }

  /// One full request/response exchange on this (keep-alive) connection.
  TestResponse Fetch(std::string_view method, std::string_view target,
                     std::string_view body) {
    TestResponse response;
    response.ok = SendRequest(method, target, body) && ReadHead(&response) &&
                  ReadBody(&response);
    return response;
  }

 private:
  bool Fill() {
    char buf[8192];
    long n = sock_.Recv(buf, sizeof(buf));
    if (n <= 0) return false;
    carry_.append(buf, static_cast<size_t>(n));
    return true;
  }

  bool Dechunk(std::string* body) {
    body->clear();
    for (;;) {
      size_t line_end;
      while ((line_end = carry_.find("\r\n")) == std::string::npos) {
        if (!Fill()) return false;
      }
      size_t size = std::strtoul(carry_.c_str(), nullptr, 16);
      carry_.erase(0, line_end + 2);
      if (size == 0) {  // terminal chunk; consume the final CRLF
        while (carry_.size() < 2) {
          if (!Fill()) return false;
        }
        carry_.erase(0, 2);
        return true;
      }
      while (carry_.size() < size + 2) {
        if (!Fill()) return false;
      }
      body->append(carry_, 0, size);
      carry_.erase(0, size + 2);
    }
  }

  Socket sock_;
  std::string carry_;
};

// ---------------------------------------------------------------------------
// One engine + service + server per test (each test owns its pool sizing;
// the pool is started by the service constructor, first starter wins).

DblpConfig SmallDblp() {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 42;
  return config;
}

struct TestServer {
  explicit TestServer(PoolOptions pool_options = {},
                      HttpServerOptions server_options = {},
                      DblpConfig data = SmallDblp()) {
    auto generated = GenerateDblp(data);
    BanksOptions options = EvalWorkload::DefaultOptions();
    options.allow_partial_match = true;
    engine =
        std::make_unique<BanksEngine>(std::move(generated.db), options);

    BanksServiceOptions service_options;
    service_options.pool = pool_options;
    service = std::make_unique<BanksService>(engine.get(),
                                             std::move(service_options));

    server_options.port = 0;  // kernel-assigned; read back below
    server = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request, HttpResponseWriter& writer) {
          service->Handle(request, writer);
        });
    service->set_server_stats([srv = server.get()] { return srv->stats(); });
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    port = server->port();
  }

  ~TestServer() { server->Stop(); }

  std::unique_ptr<BanksEngine> engine;
  std::unique_ptr<BanksService> service;
  std::unique_ptr<HttpServer> server;
  uint16_t port = 0;
};

/// The expected NDJSON answer lines for `request`, produced by running the
/// query serially in-process and serializing through the same AnswerJson
/// the streaming path uses. Byte-identity of the stream against this is
/// the tier's §3-over-the-wire contract.
std::vector<std::string> SerialAnswerLines(const BanksEngine& engine,
                                           const QueryRequest& request,
                                           bool render = false) {
  auto serial = engine.Search(request);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<std::string> lines;
  if (!serial.ok()) return lines;
  const auto& answers = serial.value().answers;
  for (size_t i = 0; i < answers.size(); ++i) {
    lines.push_back(BanksService::AnswerJson(engine, answers[i], i, render));
  }
  return lines;
}

/// Parses the final `{"done":true,...}` summary line of a /query stream.
JsonValue Summary(const std::vector<std::string>& lines) {
  EXPECT_FALSE(lines.empty());
  if (lines.empty()) return JsonValue();
  auto parsed = JsonValue::Parse(lines.back());
  EXPECT_TRUE(parsed.ok()) << lines.back();
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

TEST(HttpServerTest, StreamedAnswersByteIdenticalToSerial) {
  TestServer ts;
  for (const char* text : {"soumen sunita", "author paper"}) {
    std::vector<std::string> expected =
        SerialAnswerLines(*ts.engine, {.text = text});
    ASSERT_FALSE(expected.empty()) << text;

    TestClient client(ts.port);
    ASSERT_TRUE(client.connected());
    TestResponse response = client.Fetch(
        "POST", "/query", std::string("{\"text\":\"") + text + "\"}");
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 200);
    const std::string* type = FindHeader(response, "content-type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(*type, "application/x-ndjson");
    const std::string* encoding = FindHeader(response, "transfer-encoding");
    ASSERT_NE(encoding, nullptr);
    EXPECT_EQ(*encoding, "chunked");

    std::vector<std::string> lines = Lines(response.body);
    ASSERT_EQ(lines.size(), expected.size() + 1) << text;  // + summary
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(lines[i], expected[i]) << text << " answer #" << i;
    }
    JsonValue summary = Summary(lines);
    ASSERT_NE(summary.Find("done"), nullptr);
    EXPECT_TRUE(summary.Find("done")->bool_value());
    ASSERT_NE(summary.Find("answers"), nullptr);
    EXPECT_EQ(static_cast<size_t>(summary.Find("answers")->number_value()),
              expected.size());
  }
}

TEST(HttpServerTest, RenderedAnswersMatchEngineRender) {
  TestServer ts;
  std::vector<std::string> expected = SerialAnswerLines(
      *ts.engine, {.text = "soumen sunita"}, /*render=*/true);
  ASSERT_FALSE(expected.empty());

  TestClient client(ts.port);
  TestResponse response = client.Fetch(
      "POST", "/query", R"({"text":"soumen sunita","render":true})");
  ASSERT_TRUE(response.ok);
  std::vector<std::string> lines = Lines(response.body);
  ASSERT_EQ(lines.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "answer #" << i;
  }
}

TEST(HttpServerTest, AuthPolicyAppliesOverTheWire) {
  TestServer ts;
  QueryRequest serial_request{.text = "soumen sunita"};
  serial_request.auth = AuthPolicy().HideTable("Author");
  std::vector<std::string> expected =
      SerialAnswerLines(*ts.engine, serial_request);

  TestClient client(ts.port);
  TestResponse response = client.Fetch(
      "POST", "/query",
      R"({"text":"soumen sunita","hide_tables":["Author"]})");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  std::vector<std::string> lines = Lines(response.body);
  ASSERT_EQ(lines.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "answer #" << i;
  }
}

TEST(HttpServerTest, VisitBudgetMapsOntoBudgetAndMarksTruncation) {
  TestServer ts;
  QueryRequest serial_request{.text = "soumen sunita"};
  serial_request.budget.max_visits = 5;
  std::vector<std::string> expected =
      SerialAnswerLines(*ts.engine, serial_request);

  TestClient client(ts.port);
  TestResponse response = client.Fetch(
      "POST", "/query", R"({"text":"soumen sunita","max_visits":5})");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  std::vector<std::string> lines = Lines(response.body);
  ASSERT_EQ(lines.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "answer #" << i;
  }
  JsonValue summary = Summary(lines);
  ASSERT_NE(summary.Find("truncation"), nullptr);
  EXPECT_EQ(summary.Find("truncation")->string_value(), "visits");
}

TEST(HttpServerTest, ExpiredDeadlineStreamsDeadlineMarkerAndNoAnswers) {
  TestServer ts;
  TestClient client(ts.port);
  // deadline_ms:0 is already past when the stepper first pumps — the §3
  // one-step overshoot contract promises zero answers + kDeadline.
  TestResponse response = client.Fetch(
      "POST", "/query", R"({"text":"soumen sunita","deadline_ms":0})");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  std::vector<std::string> lines = Lines(response.body);
  ASSERT_EQ(lines.size(), 1u);  // summary only
  JsonValue summary = Summary(lines);
  ASSERT_NE(summary.Find("truncation"), nullptr);
  EXPECT_EQ(summary.Find("truncation")->string_value(), "deadline");
  ASSERT_NE(summary.Find("answers"), nullptr);
  EXPECT_EQ(summary.Find("answers")->number_value(), 0.0);
}

TEST(HttpServerTest, PoolOverloadIsTyped429) {
  // Single worker, one active slot, no wait queue: while the heavy query
  // holds the slot every further submit is a typed kOverloaded.
  PoolOptions pool_options;
  pool_options.num_workers = 1;
  pool_options.step_quantum = 8;
  pool_options.max_active = 1;
  pool_options.max_waiting = 0;
  DblpConfig data = SmallDblp();
  data.num_authors = 200;  // enough graph to keep the heavy query running
  data.num_papers = 400;
  TestServer ts(pool_options, {}, data);

  TestClient heavy(ts.port);
  ASSERT_TRUE(heavy.SendRequest(
      "POST", "/query", R"({"text":"author paper","max_answers":10000})"));
  TestResponse heavy_response;
  // The 200 head is sent strictly after SubmitQuery succeeded, so once it
  // arrives the slot is provably held.
  ASSERT_TRUE(heavy.ReadHead(&heavy_response));
  ASSERT_EQ(heavy_response.status, 200);

  TestClient second(ts.port);
  TestResponse rejected =
      second.Fetch("POST", "/query", R"({"text":"soumen sunita"})");
  ASSERT_TRUE(rejected.ok);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(ErrorCode(rejected), "Overloaded");

  // The rejection is visible in the pool counters over the wire too.
  TestClient stats_client(ts.port);
  TestResponse stats = stats_client.Fetch("GET", "/stats", "");
  ASSERT_TRUE(stats.ok);
  auto parsed = JsonValue::Parse(stats.body);
  ASSERT_TRUE(parsed.ok()) << stats.body;
  const JsonValue* pool = parsed.value().Find("pool");
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(pool->Find("rejected"), nullptr);
  EXPECT_GE(pool->Find("rejected")->number_value(), 1.0);

  // Drain the heavy stream so shutdown does not race its consumer.
  ASSERT_TRUE(heavy.ReadBody(&heavy_response));
  EXPECT_FALSE(Lines(heavy_response.body).empty());
}

TEST(HttpServerTest, MalformedJsonBodyIsTyped400) {
  TestServer ts;
  TestClient client(ts.port);
  TestResponse response = client.Fetch("POST", "/query", "{not json");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(ErrorCode(response), "InvalidArgument");
}

TEST(HttpServerTest, UnknownFieldIsTyped400) {
  TestServer ts;
  TestClient client(ts.port);
  // A misspelled budget knob must fail loudly, not silently default.
  TestResponse response = client.Fetch(
      "POST", "/query", R"({"text":"soumen sunita","max_visit":5})");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(ErrorCode(response), "InvalidArgument");
  EXPECT_NE(response.body.find("max_visit"), std::string::npos);
}

TEST(HttpServerTest, MissingTextAndBadStrategyAreTyped400) {
  TestServer ts;
  TestClient client(ts.port);
  TestResponse no_text = client.Fetch("POST", "/query", "{}");
  ASSERT_TRUE(no_text.ok);
  EXPECT_EQ(no_text.status, 400);
  EXPECT_EQ(ErrorCode(no_text), "InvalidArgument");

  TestResponse bad_strategy = client.Fetch(
      "POST", "/query", R"({"text":"x","strategy":"zigzag"})");
  ASSERT_TRUE(bad_strategy.ok);
  EXPECT_EQ(bad_strategy.status, 400);
  EXPECT_NE(bad_strategy.body.find("strategy"), std::string::npos);
}

TEST(HttpServerTest, UnknownEndpointAndWrongMethod) {
  TestServer ts;
  TestClient client(ts.port);
  TestResponse missing = client.Fetch("GET", "/nope", "");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(ErrorCode(missing), "NotFound");

  TestResponse wrong_method = client.Fetch("GET", "/query", "");
  ASSERT_TRUE(wrong_method.ok);
  EXPECT_EQ(wrong_method.status, 405);
}

TEST(HttpServerTest, GarbageRequestGets400AndClose) {
  TestServer ts;
  TestClient client(ts.port);
  ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n"));
  TestResponse response;
  ASSERT_TRUE(client.ReadHead(&response));
  EXPECT_EQ(response.status, 400);
  ASSERT_TRUE(client.ReadBody(&response));
  // The connection is dropped after a parse error: the next read hits EOF.
  TestResponse second;
  EXPECT_FALSE(client.ReadHead(&second));
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServerOptions server_options;
  server_options.limits.max_body_bytes = 64;
  TestServer ts({}, server_options);
  TestClient client(ts.port);
  TestResponse response =
      client.Fetch("POST", "/query", std::string(1000, 'x'));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 413);
}

TEST(HttpServerTest, KeepAliveServesSequentialMixedRequests) {
  TestServer ts;
  TestClient client(ts.port);
  // Fixed, chunked, fixed on one connection — the carry buffer and the
  // streaming writer must hand the connection back cleanly each time.
  TestResponse stats1 = client.Fetch("GET", "/stats", "");
  ASSERT_TRUE(stats1.ok);
  EXPECT_EQ(stats1.status, 200);
  TestResponse query =
      client.Fetch("POST", "/query", R"({"text":"soumen sunita"})");
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);
  TestResponse stats2 = client.Fetch("GET", "/stats", "");
  ASSERT_TRUE(stats2.ok);
  EXPECT_EQ(stats2.status, 200);

  auto parsed = JsonValue::Parse(stats2.body);
  ASSERT_TRUE(parsed.ok()) << stats2.body;
  const JsonValue* server = parsed.value().Find("server");
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->Find("requests"), nullptr);
  EXPECT_GE(server->Find("requests")->number_value(), 3.0);
  ASSERT_NE(parsed.value().Find("pool"), nullptr);
  ASSERT_NE(parsed.value().Find("engine"), nullptr);
  ASSERT_NE(parsed.value().Find("cache"), nullptr);
}

TEST(HttpServerTest, StatsReportsQuantumStepsInsertionsAndPurged) {
  TestServer ts;
  TestClient client(ts.port);
  TestResponse query =
      client.Fetch("POST", "/query", R"({"text":"soumen sunita"})");
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);
  TestResponse stats = client.Fetch("GET", "/stats", "");
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.status, 200);
  auto parsed = JsonValue::Parse(stats.body);
  ASSERT_TRUE(parsed.ok()) << stats.body;

  const JsonValue* pool = parsed.value().Find("pool");
  ASSERT_NE(pool, nullptr);
  const JsonValue* quantum_steps = pool->Find("quantum_steps");
  ASSERT_NE(quantum_steps, nullptr) << stats.body;
  ASSERT_TRUE(quantum_steps->is_number());
  EXPECT_GT(quantum_steps->number_value(), 0.0)
      << "the query ran at least one granted quantum";

  const JsonValue* cache = parsed.value().Find("cache");
  ASSERT_NE(cache, nullptr);
  for (const char* key : {"insertions", "purged"}) {
    const JsonValue* value = cache->Find(key);
    ASSERT_NE(value, nullptr) << key << " missing: " << stats.body;
    EXPECT_TRUE(value->is_number()) << key;
  }
}

TEST(HttpServerTest, MutateQueryRefreezeSnapshotRoundTrip) {
  TestServer ts;
  TestClient client(ts.port);

  // Insert a tuple carrying a term no generated row contains; a bad-arity
  // slot in the same batch fails typed without poisoning the good one.
  TestResponse mutate = client.Fetch(
      "POST", "/mutate",
      R"({"mutations":[)"
      R"({"op":"insert","table":"Author","values":["A9999","zzzuniqueterm person"]},)"
      R"({"op":"insert","table":"Author","values":["A10000"]}]})");
  ASSERT_TRUE(mutate.ok);
  EXPECT_EQ(mutate.status, 200);
  auto mutate_json = JsonValue::Parse(mutate.body);
  ASSERT_TRUE(mutate_json.ok()) << mutate.body;
  const JsonValue* results = mutate_json.value().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 2u);
  EXPECT_TRUE(results->items()[0].Find("ok")->bool_value());
  EXPECT_FALSE(results->items()[1].Find("ok")->bool_value());

  // The inserted tuple is searchable over HTTP before any refreeze (the
  // live-update overlay), and the stream matches the serial engine run.
  std::vector<std::string> expected =
      SerialAnswerLines(*ts.engine, {.text = "zzzuniqueterm"});
  ASSERT_FALSE(expected.empty());
  TestResponse query =
      client.Fetch("POST", "/query", R"({"text":"zzzuniqueterm"})");
  ASSERT_TRUE(query.ok);
  std::vector<std::string> lines = Lines(query.body);
  ASSERT_EQ(lines.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]);
  }

  // A delete addressing a table that does not exist is a typed 404 for
  // the whole batch — nothing half-applies.
  TestResponse bad_table = client.Fetch(
      "POST", "/mutate",
      R"({"mutations":[{"op":"delete","table":"Nope","row":0}]})");
  ASSERT_TRUE(bad_table.ok);
  EXPECT_EQ(bad_table.status, 404);
  EXPECT_EQ(ErrorCode(bad_table), "NotFound");

  TestResponse refreeze = client.Fetch("POST", "/refreeze", "");
  ASSERT_TRUE(refreeze.ok);
  EXPECT_EQ(refreeze.status, 200);
  auto refreeze_json = JsonValue::Parse(refreeze.body);
  ASSERT_TRUE(refreeze_json.ok()) << refreeze.body;
  ASSERT_NE(refreeze_json.value().Find("epoch"), nullptr);
  EXPECT_GE(refreeze_json.value().Find("epoch")->number_value(), 1.0);

  std::string path = ::testing::TempDir() + "banks_http_server_test.snapshot";
  TestResponse snapshot = client.Fetch(
      "POST", "/snapshot", std::string("{\"path\":\"") + path + "\"}");
  ASSERT_TRUE(snapshot.ok);
  EXPECT_EQ(snapshot.status, 200);
  auto snapshot_json = JsonValue::Parse(snapshot.body);
  ASSERT_TRUE(snapshot_json.ok()) << snapshot.body;
  ASSERT_NE(snapshot_json.value().Find("file_bytes"), nullptr);
  EXPECT_GT(snapshot_json.value().Find("file_bytes")->number_value(), 0.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Stress: concurrent mixed traffic. Named HttpServerStress so the CI TSan
// job's stress filter picks it up alongside the pool/update stress tests.

TEST(HttpServerStress, ConcurrentMixedTraffic) {
  TestServer ts;
  constexpr int kThreads = 6;
  constexpr int kIterations = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ts, &failures, t] {
      for (int i = 0; i < kIterations; ++i) {
        TestClient client(ts.port);
        if (!client.connected()) {
          ++failures;
          continue;
        }
        TestResponse response;
        switch ((t + i) % 5) {
          case 0:
            response =
                client.Fetch("POST", "/query", R"({"text":"soumen sunita"})");
            if (!response.ok || response.status != 200) ++failures;
            break;
          case 1:
            response = client.Fetch("GET", "/stats", "");
            if (!response.ok || response.status != 200) ++failures;
            break;
          case 2: {
            std::string body =
                R"({"mutations":[{"op":"insert","table":"Author",)"
                R"("values":["S)" +
                std::to_string(t * kIterations + i) +
                R"(","stress author"]}]})";
            response = client.Fetch("POST", "/mutate", body);
            if (!response.ok || response.status != 200) ++failures;
            break;
          }
          case 3:
            response = client.Fetch("GET", "/nope", "");
            if (!response.ok || response.status != 404) ++failures;
            break;
          case 4:
            response = client.Fetch("POST", "/query", "{bad json");
            if (!response.ok || response.status != 400) ++failures;
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  TestClient client(ts.port);
  TestResponse stats = client.Fetch("GET", "/stats", "");
  ASSERT_TRUE(stats.ok);
  auto parsed = JsonValue::Parse(stats.body);
  ASSERT_TRUE(parsed.ok()) << stats.body;
  const JsonValue* server = parsed.value().Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->Find("requests")->number_value(),
            static_cast<double>(kThreads * kIterations));
}

}  // namespace
}  // namespace banks::server::net
