#include "server/runner.hpp"

#include <algorithm>
#include <utility>

namespace llhsc::server {

using support::Json;

namespace {

uint64_t fnv1a_extend(uint64_t h, const std::string& text) {
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

CheckRequest check_request_from(const Json& params) {
  CheckRequest r;
  r.path = params.at("path").as_string();
  r.source = params.at("source").as_string();
  r.base_directory = params.at("base_directory").as_string();
  for (const auto& [name, content] : params.at("includes").fields()) {
    r.includes.emplace_back(name, content.as_string());
  }
  if (params.has("format")) r.format = params.at("format").as_string();
  r.lint = params.at("lint").as_bool(true);
  r.crossref = params.at("crossref").as_bool(true);
  r.graph = params.at("graph").as_bool(true);
  r.syntax = params.at("syntax").as_bool(true);
  r.semantics = params.at("semantics").as_bool(true);
  r.quiet = params.at("quiet").as_bool(false);
  r.stats = params.at("stats").as_bool(false);
  r.baseline_text = params.at("baseline").as_string();
  if (params.has("backend")) r.backend = params.at("backend").as_string();
  r.schemas_text = params.at("schemas_text").as_string();
  r.schemas_path = params.at("schemas_path").as_string();
  r.disable_rule = params.at("disable_rule").as_string();
  r.rule_severity = params.at("rule_severity").as_string();
  r.solver_timeout_ms = params.at("solver_timeout_ms").as_uint(0);
  r.plan = params.at("plan").as_bool(true);
  r.cache_dir = params.at("cache_dir").as_string();
  return r;
}

SessionRequest session_request_from(const Json& params) {
  SessionRequest r;
  r.core_source = params.at("core_source").as_string();
  r.core_name = params.at("core_name").as_string();
  r.deltas_source = params.at("deltas_source").as_string();
  r.deltas_name = params.at("deltas_name").as_string();
  r.model_source = params.at("model_source").as_string();
  r.model_name = params.at("model_name").as_string();
  r.base_directory = params.at("base_directory").as_string();
  for (const auto& [name, content] : params.at("includes").fields()) {
    r.includes.emplace_back(name, content.as_string());
  }
  for (const Json& p : params.at("products").items()) {
    SessionProduct product;
    product.name = p.at("name").as_string();
    for (const Json& f : p.at("features").items()) {
      product.features.insert(f.as_string());
    }
    r.products.push_back(std::move(product));
  }
  r.check_platform = params.at("check_platform").as_bool(false);
  r.check_allocation = params.at("check_allocation").as_bool(false);
  r.check_lifted = params.at("check_lifted").as_bool(false);
  r.lifted_max_configs = params.at("lifted_max_configs").as_uint(8);
  for (const Json& f : params.at("exclusive").items()) {
    r.exclusive.push_back(f.as_string());
  }
  if (params.has("backend")) r.backend = params.at("backend").as_string();
  r.lint = params.at("lint").as_bool(true);
  r.graph = params.at("graph").as_bool(true);
  r.syntax = params.at("syntax").as_bool(true);
  r.semantics = params.at("semantics").as_bool(true);
  r.schemas_text = params.at("schemas_text").as_string();
  r.solver_timeout_ms = params.at("solver_timeout_ms").as_uint(0);
  r.plan = params.at("plan").as_bool(true);
  r.cache_dir = params.at("cache_dir").as_string();
  return r;
}

Json check_outcome_json(const CheckOutcome& outcome) {
  Json trace = Json::object();
  trace.set("tree_cache_hit", Json::boolean(outcome.trace.tree_cache_hit));
  trace.set("check_cache_hit", Json::boolean(outcome.trace.check_cache_hit));
  trace.set("solver_checks",
            Json::unsigned_integer(outcome.trace.solver_checks));
  trace.set("queries_issued",
            Json::unsigned_integer(outcome.trace.queries_issued));
  trace.set("queries_pruned",
            Json::unsigned_integer(outcome.trace.queries_pruned));
  trace.set("cache_hits", Json::unsigned_integer(outcome.trace.cache_hits));
  trace.set("cache_errors",
            Json::unsigned_integer(outcome.trace.cache_errors));
  trace.set("suppressed", Json::unsigned_integer(outcome.trace.suppressed));

  Json result = Json::object();
  result.set("exit_code", Json::integer(outcome.exit_code));
  result.set("stdout", Json::string(outcome.output));
  result.set("stderr", Json::string(outcome.error_text));
  result.set("errors", Json::unsigned_integer(outcome.errors));
  result.set("warnings", Json::unsigned_integer(outcome.warnings));
  result.set("trace", std::move(trace));
  return result;
}

Json store_stats_json(const StoreStats& s) {
  Json j = Json::object();
  j.set("hits", Json::unsigned_integer(s.hits));
  j.set("misses", Json::unsigned_integer(s.misses));
  j.set("evictions", Json::unsigned_integer(s.evictions));
  j.set("tree_parses", Json::unsigned_integer(s.tree_parses));
  j.set("delta_parses", Json::unsigned_integer(s.delta_parses));
  j.set("model_parses", Json::unsigned_integer(s.model_parses));
  j.set("product_line_builds",
        Json::unsigned_integer(s.product_line_builds));
  j.set("derives", Json::unsigned_integer(s.derives));
  j.set("unit_checks", Json::unsigned_integer(s.unit_checks));
  j.set("graph_builds", Json::unsigned_integer(s.graph_builds));
  j.set("cross_checks", Json::unsigned_integer(s.cross_checks));
  j.set("lifted_checks", Json::unsigned_integer(s.lifted_checks));
  return j;
}

Json session_outcome_json(const SessionOutcome& outcome) {
  Json units = Json::array();
  for (const SessionUnitResult& u : outcome.units) {
    Json unit = Json::object();
    unit.set("name", Json::string(u.name));
    unit.set("composed_cache_hit", Json::boolean(u.composed_cache_hit));
    unit.set("check_cache_hit", Json::boolean(u.check_cache_hit));
    unit.set("errors", Json::unsigned_integer(u.errors));
    unit.set("warnings", Json::unsigned_integer(u.warnings));
    unit.set("report", Json::string(u.report));
    units.push(std::move(unit));
  }
  Json result = Json::object();
  result.set("exit_code", Json::integer(outcome.exit_code));
  result.set("stderr", Json::string(outcome.error_text));
  result.set("units", std::move(units));
  result.set("cost", store_stats_json(outcome.cost));
  return result;
}

Json ok_response(const Json& id, Json result) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", Json::boolean(true));
  response.set("result", std::move(result));
  return response;
}

Json error_response(const Json& id, const std::string& code,
                    const std::string& message) {
  Json error = Json::object();
  error.set("code", Json::string(code));
  error.set("message", Json::string(message));
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", Json::boolean(false));
  response.set("error", std::move(error));
  return response;
}

std::string stamp_response_line(Json response, int schema_version) {
  response.set("schema_version", Json::integer(schema_version));
  std::string line = response.dump();
  line += '\n';
  return line;
}

Json execute_request(const std::string& method, const Json& id,
                     const Json& params, const support::Deadline& deadline,
                     ArtifactStore& store, CheckCounters& counters) {
  if (method == "check") {
    CheckRequest cr = check_request_from(params);
    // The request deadline bounds solver work: the tighter of the client's
    // solver budget and what is left of the deadline wins.
    if (!deadline.unlimited()) {
      const uint64_t remaining = deadline.remaining_ms();
      cr.solver_timeout_ms = cr.solver_timeout_ms == 0
                                 ? remaining
                                 : std::min(cr.solver_timeout_ms, remaining);
      if (cr.solver_timeout_ms == 0) cr.solver_timeout_ms = 1;
    }
    CheckOutcome outcome = run_check(cr, &store);
    counters.checks.fetch_add(1, std::memory_order_relaxed);
    counters.solver_checks.fetch_add(outcome.trace.solver_checks,
                                     std::memory_order_relaxed);
    counters.queries_issued.fetch_add(outcome.trace.queries_issued,
                                      std::memory_order_relaxed);
    counters.queries_pruned.fetch_add(outcome.trace.queries_pruned,
                                      std::memory_order_relaxed);
    counters.cache_hits.fetch_add(outcome.trace.cache_hits,
                                  std::memory_order_relaxed);
    counters.cache_errors.fetch_add(outcome.trace.cache_errors,
                                    std::memory_order_relaxed);
    return ok_response(id, check_outcome_json(outcome));
  }
  SessionRequest sr = session_request_from(params);
  if (!deadline.unlimited()) {
    const uint64_t remaining = deadline.remaining_ms();
    sr.solver_timeout_ms = sr.solver_timeout_ms == 0
                               ? remaining
                               : std::min(sr.solver_timeout_ms, remaining);
    if (sr.solver_timeout_ms == 0) sr.solver_timeout_ms = 1;
  }
  SessionOutcome outcome = run_session_check(sr, store);
  counters.sessions.fetch_add(1, std::memory_order_relaxed);
  return ok_response(id, session_outcome_json(outcome));
}

uint64_t shard_key(const std::string& method, const Json& params) {
  uint64_t h = 0xcbf29ce484222325ull;
  if (method == "check") {
    h = fnv1a_extend(h, params.at("path").as_string());
    h = fnv1a_extend(h, params.at("source").as_string());
  } else {
    h = fnv1a_extend(h, params.at("core_name").as_string());
    h = fnv1a_extend(h, params.at("core_source").as_string());
    h = fnv1a_extend(h, params.at("deltas_source").as_string());
  }
  return h;
}

}  // namespace llhsc::server
