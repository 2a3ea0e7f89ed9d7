#include "server/net/banks_service.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "server/query_cache.h"
#include "update/mutation.h"
#include "util/json.h"

namespace banks::server::net {

namespace {

/// Status -> HTTP mapping; the typed StatusCodeName still rides along in
/// the error body, so clients can distinguish e.g. the two 409 causes.
int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:    return 400;
    case StatusCode::kNotFound:           return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kOverloaded:         return 429;
    case StatusCode::kUnimplemented:      return 501;
    default:                              return 500;
  }
}

std::string ErrorBody(const Status& status) {
  std::string out = "{\"error\":{\"code\":";
  JsonAppendQuoted(&out, StatusCodeName(status.code()));
  out += ",\"status\":" + std::to_string(HttpStatusFor(status.code()));
  out += ",\"message\":";
  JsonAppendQuoted(&out, status.message());
  out += "}}\n";
  return out;
}

void SendError(HttpResponseWriter& writer, const Status& status,
               bool keep_alive) {
  writer.SendFull(HttpStatusFor(status.code()), "application/json",
                  ErrorBody(status), keep_alive);
}

const char* TruncationName(Truncation t) {
  switch (t) {
    case Truncation::kNone:        return "none";
    case Truncation::kVisitBudget: return "visits";
    case Truncation::kDeadline:    return "deadline";
  }
  return "none";
}

void AppendKeyValue(std::string* out, const char* key, uint64_t value,
                    bool* first) {
  if (!*first) *out += ',';
  *first = false;
  JsonAppendQuoted(out, key);
  *out += ':' + std::to_string(value);
}

/// `members` whose keys are not in `allowed` make the request a typed 400:
/// a misspelled knob silently falling back to a default would be the worst
/// failure mode an over-the-wire budget can have.
Status RejectUnknownFields(const JsonValue& object,
                           std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : object.members()) {
    (void)value;
    bool known = false;
    for (std::string_view name : allowed) known = known || key == name;
    if (!known) {
      return Status::InvalidArgument("unknown field \"" + key + "\"");
    }
  }
  return Status::OK();
}

Result<double> RequireNumber(const JsonValue& v, const char* field) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(field) + " must be a number");
  }
  return v.number_value();
}

Result<bool> RequireBool(const JsonValue& v, const char* field) {
  if (!v.is_bool()) {
    return Status::InvalidArgument(std::string(field) + " must be a boolean");
  }
  return v.bool_value();
}

/// JSON numbers with an exact integral value land as INT, everything else
/// as DOUBLE (JSON does not distinguish; the tuple column type does).
Value ValueFromJson(const JsonValue& v) {
  if (v.is_string()) return Value(v.string_value());
  double d = v.number_value();
  if (std::nearbyint(d) == d && std::abs(d) < 9007199254740992.0) {
    return Value(static_cast<int64_t>(d));
  }
  return Value(d);
}

}  // namespace

BanksService::BanksService(BanksEngine* engine, BanksServiceOptions options)
    : engine_(engine), options_(std::move(options)) {
  // Start the pool eagerly with the service's sizing so the first request
  // does not race an engine-default pool() call elsewhere in the process.
  engine_->pool(options_.pool);
}

void BanksService::Handle(const HttpRequest& request,
                          HttpResponseWriter& writer) {
  std::string_view path = request.target;
  if (size_t q = path.find('?'); q != std::string_view::npos) {
    path = path.substr(0, q);
  }
  struct Route {
    std::string_view path;
    std::string_view method;
    void (BanksService::*handler)(const HttpRequest&, HttpResponseWriter&);
  };
  static constexpr Route kRoutes[] = {
      {"/query", "POST", &BanksService::HandleQuery},
      {"/stats", "GET", &BanksService::HandleStats},
      {"/mutate", "POST", &BanksService::HandleMutate},
      {"/refreeze", "POST", &BanksService::HandleRefreeze},
      {"/snapshot", "POST", &BanksService::HandleSnapshot},
  };
  for (const Route& route : kRoutes) {
    if (route.path != path) continue;
    if (route.method != request.method) {
      writer.SendFull(405, "application/json",
                      ErrorBody(Status::InvalidArgument(
                          std::string(route.method) + " required for " +
                          std::string(route.path))),
                      request.keep_alive);
      return;
    }
    (this->*route.handler)(request, writer);
    return;
  }
  SendError(writer, Status::NotFound("no such endpoint: " + request.target),
            request.keep_alive);
}

std::string BanksService::AnswerJson(const BanksEngine& engine,
                                     const ConnectionTree& tree, size_t rank,
                                     bool render) {
  std::string out = "{\"rank\":" + std::to_string(rank);
  out += ",\"root\":" + std::to_string(tree.root);
  out += ",\"root_label\":";
  JsonAppendQuoted(&out, engine.RootLabel(tree));
  out += ",\"relevance\":";
  JsonAppendNumber(&out, tree.relevance);
  out += ",\"tree_weight\":";
  JsonAppendNumber(&out, tree.tree_weight);
  out += ",\"edges\":[";
  for (size_t i = 0; i < tree.edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '[' + std::to_string(tree.edges[i].from) + ',' +
           std::to_string(tree.edges[i].to) + ',';
    JsonAppendNumber(&out, tree.edges[i].weight);
    out += ']';
  }
  out += "],\"leaf_for_term\":[";
  for (size_t i = 0; i < tree.leaf_for_term.size(); ++i) {
    if (i > 0) out += ',';
    // kInvalidNode marks a term dropped by partial matching.
    if (tree.leaf_for_term[i] == kInvalidNode) {
      out += "null";
    } else {
      out += std::to_string(tree.leaf_for_term[i]);
    }
  }
  out += "],\"leaf_relevance\":[";
  for (size_t i = 0; i < tree.leaf_relevance.size(); ++i) {
    if (i > 0) out += ',';
    JsonAppendNumber(&out, tree.leaf_relevance[i]);
  }
  out += ']';
  if (render) {
    out += ",\"rendered\":";
    JsonAppendQuoted(&out, engine.Render(tree));
  }
  out += '}';
  return out;
}

void BanksService::HandleQuery(const HttpRequest& request,
                               HttpResponseWriter& writer) {
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    SendError(writer, body.status(), request.keep_alive);
    return;
  }
  const JsonValue& object = body.value();
  if (!object.is_object()) {
    SendError(writer,
              Status::InvalidArgument("request body must be a JSON object"),
              request.keep_alive);
    return;
  }
  if (Status unknown = RejectUnknownFields(
          object, {"text", "deadline_ms", "max_visits", "max_answers",
                   "strategy", "include_metadata", "hide_tables", "render"});
      !unknown.ok()) {
    SendError(writer, unknown, request.keep_alive);
    return;
  }

  QueryRequest query;
  const JsonValue* text = object.Find("text");
  if (text == nullptr || !text->is_string()) {
    SendError(writer,
              Status::InvalidArgument("\"text\" (string) is required"),
              request.keep_alive);
    return;
  }
  query.text = text->string_value();

  // Budget: deadline_ms / max_visits map straight onto the per-session
  // Budget the stepper enforces (one-step overshoot contract).
  if (const JsonValue* v = object.Find("deadline_ms")) {
    auto ms = RequireNumber(*v, "deadline_ms");
    if (!ms.ok()) return SendError(writer, ms.status(), request.keep_alive);
    if (ms.value() < 0) {
      return SendError(writer,
                       Status::InvalidArgument("deadline_ms must be >= 0"),
                       request.keep_alive);
    }
    query.budget.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(ms.value() * 1000.0));
  }
  if (const JsonValue* v = object.Find("max_visits")) {
    auto n = RequireNumber(*v, "max_visits");
    if (!n.ok()) return SendError(writer, n.status(), request.keep_alive);
    query.budget.max_visits = static_cast<size_t>(n.value());
  }

  if (object.Find("max_answers") != nullptr ||
      object.Find("strategy") != nullptr) {
    SearchOptions search = engine_->options().search;
    if (const JsonValue* v = object.Find("max_answers")) {
      auto n = RequireNumber(*v, "max_answers");
      if (!n.ok()) return SendError(writer, n.status(), request.keep_alive);
      if (n.value() < 1) {
        return SendError(writer,
                         Status::InvalidArgument("max_answers must be >= 1"),
                         request.keep_alive);
      }
      search.max_answers = static_cast<size_t>(n.value());
    }
    if (const JsonValue* v = object.Find("strategy")) {
      if (!v->is_string() ||
          !ParseSearchStrategy(v->string_value(), &search.strategy)) {
        return SendError(
            writer,
            Status::InvalidArgument(std::string("strategy must be one of ") +
                                    SearchStrategyNames()),
            request.keep_alive);
      }
    }
    query.search = search;
  }

  if (const JsonValue* v = object.Find("include_metadata")) {
    auto b = RequireBool(*v, "include_metadata");
    if (!b.ok()) return SendError(writer, b.status(), request.keep_alive);
    MatchOptions match = engine_->options().match;
    match.include_metadata = b.value();
    query.match = match;
  }

  if (const JsonValue* v = object.Find("hide_tables")) {
    if (!v->is_array()) {
      return SendError(
          writer, Status::InvalidArgument("hide_tables must be an array"),
          request.keep_alive);
    }
    AuthPolicy policy;
    for (const JsonValue& name : v->items()) {
      if (!name.is_string()) {
        return SendError(
            writer,
            Status::InvalidArgument("hide_tables entries must be strings"),
            request.keep_alive);
      }
      policy.HideTable(name.string_value());
    }
    query.auth = std::move(policy);
  }

  bool render = false;
  if (const JsonValue* v = object.Find("render")) {
    auto b = RequireBool(*v, "render");
    if (!b.ok()) return SendError(writer, b.status(), request.keep_alive);
    render = b.value();
  }

  auto handle = engine_->SubmitQuery(query);
  if (!handle.ok()) {
    SendError(writer, handle.status(), request.keep_alive);
    return;
  }

  // Stream: one NDJSON line per answer, flushed as the pool publishes it.
  if (!writer.BeginChunked(200, "application/x-ndjson", request.keep_alive)) {
    handle.value().Cancel();
    return;
  }
  size_t answers = 0;
  while (auto answer = handle.value().Next()) {
    std::string line =
        AnswerJson(*engine_, answer->tree, answer->rank, render);
    line += '\n';
    ++answers;
    if (!writer.WriteChunk(line)) {
      // Peer went away mid-stream: abandon the search instead of
      // computing answers nobody will read.
      handle.value().Cancel();
      return;
    }
  }
  SearchStats stats = handle.value().stats();
  std::string summary = "{\"done\":true,\"answers\":" +
                        std::to_string(answers) +
                        ",\"visits\":" + std::to_string(stats.iterator_visits);
  summary += ",\"truncation\":";
  JsonAppendQuoted(&summary, TruncationName(stats.truncation));
  summary += ",\"dropped_terms\":[";
  const std::vector<size_t>& dropped = handle.value().dropped_terms();
  for (size_t i = 0; i < dropped.size(); ++i) {
    if (i > 0) summary += ',';
    summary += std::to_string(dropped[i]);
  }
  summary += "]}\n";
  writer.WriteChunk(summary);
  writer.EndChunked();
}

void BanksService::HandleStats(const HttpRequest& request,
                               HttpResponseWriter& writer) {
  PoolStats pool = engine_->pool().stats();
  QueryCacheStats cache = engine_->query_cache_stats();

  std::string out = "{\"pool\":{";
  bool first = true;
  AppendKeyValue(&out, "submitted", pool.submitted, &first);
  AppendKeyValue(&out, "rejected", pool.rejected, &first);
  AppendKeyValue(&out, "completed", pool.completed, &first);
  AppendKeyValue(&out, "cancelled", pool.cancelled, &first);
  AppendKeyValue(&out, "deadline_truncated", pool.deadline_truncated, &first);
  AppendKeyValue(&out, "slices", pool.slices, &first);
  AppendKeyValue(&out, "active", pool.active, &first);
  AppendKeyValue(&out, "waiting", pool.waiting, &first);
  AppendKeyValue(&out, "local_pops", pool.local_pops, &first);
  AppendKeyValue(&out, "steals", pool.steals, &first);
  AppendKeyValue(&out, "publishes", pool.publishes, &first);
  AppendKeyValue(&out, "answers_published", pool.answers_published, &first);
  out += "},\"engine\":{";
  first = true;
  AppendKeyValue(&out, "epoch", engine_->epoch(), &first);
  AppendKeyValue(&out, "pending_mutations", engine_->pending_mutations(),
                 &first);
  AppendKeyValue(&out, "total_mutations", engine_->total_mutations(), &first);
  AppendKeyValue(&out, "snapshot_epoch", engine_->snapshot_epoch(), &first);
  AppendKeyValue(&out, "snapshot_bytes", engine_->snapshot_bytes(), &first);
  out += "},\"cache\":{";
  first = true;
  AppendKeyValue(&out, "hits", cache.hits, &first);
  AppendKeyValue(&out, "misses", cache.misses, &first);
  AppendKeyValue(&out, "invalidations", cache.invalidations, &first);
  AppendKeyValue(&out, "resolution_hits", cache.resolution_hits, &first);
  AppendKeyValue(&out, "resolution_invalidations",
                 cache.resolution_invalidations, &first);
  AppendKeyValue(&out, "coalesced", cache.coalesced, &first);
  AppendKeyValue(&out, "evictions", cache.evictions, &first);
  AppendKeyValue(&out, "entries", cache.entries, &first);
  AppendKeyValue(&out, "bytes", cache.bytes, &first);
  out += '}';
  if (options_.server_stats) {
    HttpServerStats server = options_.server_stats();
    out += ",\"server\":{";
    first = true;
    AppendKeyValue(&out, "accepted", server.accepted, &first);
    AppendKeyValue(&out, "requests", server.requests, &first);
    AppendKeyValue(&out, "rejected_503", server.rejected_503, &first);
    AppendKeyValue(&out, "parse_errors", server.parse_errors, &first);
    AppendKeyValue(&out, "active_connections", server.active_connections,
                   &first);
    out += '}';
  }
  {
    util::MutexLock lock(&refreeze_mu_);
    if (have_last_refreeze_) {
      out += ",\"last_refreeze\":{";
      first = true;
      AppendKeyValue(&out, "epoch", last_refreeze_.epoch, &first);
      AppendKeyValue(&out, "mutations_absorbed",
                     last_refreeze_.mutations_absorbed, &first);
      AppendKeyValue(&out, "merged", last_refreeze_.merged ? 1 : 0, &first);
      out += '}';
    }
  }
  out += "}\n";
  writer.SendFull(200, "application/json", out, request.keep_alive);
}

void BanksService::HandleMutate(const HttpRequest& request,
                                HttpResponseWriter& writer) {
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    SendError(writer, body.status(), request.keep_alive);
    return;
  }
  const JsonValue* list = body.value().Find("mutations");
  if (!body.value().is_object() || list == nullptr || !list->is_array()) {
    SendError(
        writer,
        Status::InvalidArgument("body must be {\"mutations\": [...]}"),
        request.keep_alive);
    return;
  }
  if (Status unknown = RejectUnknownFields(body.value(), {"mutations"});
      !unknown.ok()) {
    SendError(writer, unknown, request.keep_alive);
    return;
  }

  std::vector<Mutation> mutations;
  mutations.reserve(list->items().size());
  for (const JsonValue& m : list->items()) {
    const JsonValue* op = m.Find("op");
    const JsonValue* table = m.Find("table");
    if (!m.is_object() || op == nullptr || !op->is_string() ||
        table == nullptr || !table->is_string()) {
      SendError(writer,
                Status::InvalidArgument(
                    "each mutation needs \"op\" and \"table\" strings"),
                request.keep_alive);
      return;
    }
    const std::string& kind = op->string_value();
    if (kind == "insert") {
      const JsonValue* values = m.Find("values");
      if (values == nullptr || !values->is_array()) {
        SendError(writer,
                  Status::InvalidArgument("insert needs \"values\" array"),
                  request.keep_alive);
        return;
      }
      std::vector<Value> tuple;
      tuple.reserve(values->items().size());
      for (const JsonValue& v : values->items()) {
        if (!v.is_string() && !v.is_number() && !v.is_null()) {
          SendError(writer,
                    Status::InvalidArgument(
                        "tuple values must be strings, numbers, or null"),
                    request.keep_alive);
          return;
        }
        tuple.push_back(v.is_null() ? Value::Null() : ValueFromJson(v));
      }
      mutations.push_back(
          Mutation::Insert(table->string_value(), Tuple(std::move(tuple))));
      continue;
    }
    // delete/update address an existing row: resolve the table name here
    // so a typo is a typed 404 for the whole batch, not a half-applied one.
    auto table_id = engine_->TableId(table->string_value());
    if (!table_id.ok()) {
      SendError(writer, table_id.status(), request.keep_alive);
      return;
    }
    const JsonValue* row = m.Find("row");
    if (row == nullptr || !row->is_number()) {
      SendError(writer,
                Status::InvalidArgument(kind + " needs a numeric \"row\""),
                request.keep_alive);
      return;
    }
    Rid rid{table_id.value(), static_cast<uint32_t>(row->number_value())};
    if (kind == "delete") {
      mutations.push_back(Mutation::Delete(rid));
    } else if (kind == "update") {
      const JsonValue* column = m.Find("column");
      const JsonValue* value = m.Find("value");
      if (column == nullptr || !column->is_string() || value == nullptr ||
          (!value->is_string() && !value->is_number())) {
        SendError(writer,
                  Status::InvalidArgument(
                      "update needs \"column\" (string) and \"value\""),
                  request.keep_alive);
        return;
      }
      mutations.push_back(Mutation::Update(rid, column->string_value(),
                                           ValueFromJson(*value)));
    } else {
      SendError(writer,
                Status::InvalidArgument("unknown op \"" + kind +
                                        "\" (insert|delete|update)"),
                request.keep_alive);
      return;
    }
  }

  std::vector<Result<Rid>> results = engine_->ApplyBatch(std::move(mutations));
  std::string out = "{\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ',';
    if (results[i].ok()) {
      out += "{\"ok\":true,\"table\":" +
             std::to_string(results[i].value().table_id) +
             ",\"row\":" + std::to_string(results[i].value().row) + '}';
    } else {
      out += "{\"ok\":false,\"code\":";
      JsonAppendQuoted(&out, StatusCodeName(results[i].status().code()));
      out += ",\"message\":";
      JsonAppendQuoted(&out, results[i].status().message());
      out += '}';
    }
  }
  out += "],\"epoch\":" + std::to_string(engine_->epoch());
  out += ",\"pending\":" + std::to_string(engine_->pending_mutations());
  out += "}\n";
  writer.SendFull(200, "application/json", out, request.keep_alive);
}

void BanksService::HandleRefreeze(const HttpRequest& request,
                                  HttpResponseWriter& writer) {
  bool force = false;
  if (!request.body.empty()) {
    auto body = JsonValue::Parse(request.body);
    if (!body.ok()) {
      SendError(writer, body.status(), request.keep_alive);
      return;
    }
    if (Status unknown = RejectUnknownFields(body.value(), {"force"});
        !unknown.ok()) {
      SendError(writer, unknown, request.keep_alive);
      return;
    }
    if (const JsonValue* v = body.value().Find("force")) {
      auto b = RequireBool(*v, "force");
      if (!b.ok()) return SendError(writer, b.status(), request.keep_alive);
      force = b.value();
    }
  }
  auto stats = engine_->Refreeze(force);
  if (!stats.ok()) {
    SendError(writer, stats.status(), request.keep_alive);
    return;
  }
  {
    util::MutexLock lock(&refreeze_mu_);
    have_last_refreeze_ = true;
    last_refreeze_ = stats.value();
  }
  std::string out = "{\"epoch\":" + std::to_string(stats.value().epoch);
  out += ",\"mutations_absorbed\":" +
         std::to_string(stats.value().mutations_absorbed);
  out += ",\"nodes\":" + std::to_string(stats.value().nodes);
  out += ",\"edges\":" + std::to_string(stats.value().edges);
  out += ",\"merged\":" + std::string(stats.value().merged ? "true" : "false");
  out += ",\"rebuild_ms\":";
  JsonAppendNumber(&out, stats.value().rebuild_ms);
  out += "}\n";
  writer.SendFull(200, "application/json", out, request.keep_alive);
}

void BanksService::HandleSnapshot(const HttpRequest& request,
                                  HttpResponseWriter& writer) {
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    SendError(writer, body.status(), request.keep_alive);
    return;
  }
  const JsonValue* path = body.value().Find("path");
  if (!body.value().is_object() || path == nullptr || !path->is_string()) {
    SendError(writer,
              Status::InvalidArgument("body must be {\"path\": \"...\"}"),
              request.keep_alive);
    return;
  }
  if (Status unknown = RejectUnknownFields(body.value(), {"path"});
      !unknown.ok()) {
    SendError(writer, unknown, request.keep_alive);
    return;
  }
  auto stats = engine_->SaveSnapshot(path->string_value());
  if (!stats.ok()) {
    SendError(writer, stats.status(), request.keep_alive);
    return;
  }
  std::string out = "{\"epoch\":" + std::to_string(stats.value().epoch);
  out += ",\"file_bytes\":" + std::to_string(stats.value().file_bytes);
  out += ",\"write_ms\":";
  JsonAppendNumber(&out, stats.value().write_ms);
  out += "}\n";
  writer.SendFull(200, "application/json", out, request.keep_alive);
}

}  // namespace banks::server::net
