#include "server/check_service.hpp"

#include <algorithm>
#include <sstream>

#include "checkers/report.hpp"
#include "checkers/suppress.hpp"
#include "dts/parser.hpp"
#include "obs/obs.hpp"
#include "obs/summary.hpp"
#include "schema/builtin_schemas.hpp"
#include "schema/yaml_lite.hpp"
#include "support/strings.hpp"

namespace llhsc::server {

namespace {

void render_outcome(const CheckRequest& request,
                    const checkers::Findings& findings, CheckOutcome& out) {
  out.errors = checkers::error_count(findings);
  out.warnings = findings.size() - out.errors;
  if (request.format == "json") {
    out.output += checkers::report_json(findings) + "\n";
  } else if (request.format == "sarif") {
    out.output += checkers::to_sarif(findings, request.path);
  } else {
    if (!request.quiet) out.output += checkers::render(findings);
    out.output += request.path + ": " + std::to_string(out.errors) +
                  " error(s), " + std::to_string(out.warnings) +
                  " warning(s)\n";
  }
  out.exit_code = out.errors == 0 ? 0 : 1;
}

void append_stats_line(const CheckRequest& request, const CheckArtifact& art,
                       size_t suppressed, CheckOutcome& out) {
  // With --no-semantics the solver counters are all zero, but the line still
  // prints: the suppressed count is meaningful for every stage.
  if (!request.stats) return;
  out.error_text += "semantic solver checks: " +
                    std::to_string(art.solver_checks) +
                    ", queries issued: " + std::to_string(art.queries_issued) +
                    ", queries pruned: " + std::to_string(art.queries_pruned) +
                    ", cache hits: " + std::to_string(art.cache_hits) +
                    ", cache errors: " + std::to_string(art.cache_errors) +
                    ", suppressed: " + std::to_string(suppressed) + "\n";
}

}  // namespace

uint64_t check_options_fingerprint(const CheckRequest& request) {
  std::ostringstream os;
  os << request.backend << '\n'
     << request.lint << request.crossref << request.graph << request.syntax
     << request.semantics << '\n'
     << request.disable_rule << '\n'
     << request.rule_severity << '\n'
     << support::fnv1a64(request.schemas_text) << '\n'
     << request.solver_timeout_ms << '\n'
     << request.plan << '\n'
     << request.cache_dir << '\n';
  return support::fnv1a64(os.str());
}

std::optional<checkers::BatteryOptions> battery_options(
    const CheckRequest& request, std::string& error_text,
    std::string& backend_warning) {
  auto rules = checkers::crossref::parse_rule_options(
      request.disable_rule, request.rule_severity, error_text);
  if (!rules) return std::nullopt;
  checkers::BatteryOptions options;
  options.lint = request.lint;
  options.crossref = request.crossref;
  options.graph = request.graph;
  options.syntax = request.syntax;
  options.semantics = request.semantics;
  options.backend = smt::backend_from_name(request.backend, backend_warning);
  options.solver_timeout_ms = request.solver_timeout_ms;
  options.plan = request.plan;
  options.cache_dir = request.cache_dir;
  options.rules = std::move(*rules);
  return options;
}

std::optional<schema::SchemaSet> load_schemas(const std::string& schemas_text,
                                              std::string& error_text) {
  if (schemas_text.empty()) return schema::builtin_schemas();
  schema::SchemaSet schemas;
  support::DiagnosticEngine diags;
  schema::load_schema_stream(schemas_text, schemas, diags);
  if (diags.has_errors()) {
    error_text += diags.render();
    return std::nullopt;
  }
  return schemas;
}

CheckArtifact check_tree(
    const dts::Tree& tree, const schema::SchemaSet& schemas,
    const checkers::BatteryOptions& options,
    std::shared_ptr<const checkers::graph::DeviceGraph> graph) {
  CheckArtifact art;
  // The battery records into a local sink first: the artifact's counters are
  // a reduction of that stream (the same obs::reduce behind --trace-json and
  // the daemon stats reply), and the raw events then splice into whatever
  // sink the caller installed so --profile sees per-query spans too.
  obs::TraceSink* outer = obs::current_sink();
  obs::TraceSink local;
  {
    obs::ScopedSink sink_guard(&local);
    art.findings = checkers::run_battery(tree, schemas, options,
                                         graph != nullptr ? &graph : nullptr);
  }

  std::vector<obs::Event> events = local.take();
  const obs::Summary summary = obs::reduce(events);
  // The verdict counters keep their historical meaning: solver/planner work
  // of the *semantic* stage (the syntactic checker's solver calls were never
  // part of the --stats line).
  auto semantic = [&](const char* name) {
    int64_t v = summary.scoped("semantic", name);
    return v < 0 ? 0u : static_cast<uint64_t>(v);
  };
  art.solver_checks = semantic("solver.checks");
  art.queries_issued = semantic("planner.queries_issued");
  art.queries_pruned = semantic("planner.queries_pruned");
  art.cache_hits = semantic("planner.cache_hits");
  art.cache_errors = semantic("planner.cache_errors");
  if (outer != nullptr) outer->extend(std::move(events));
  return art;
}

CheckOutcome run_check(const CheckRequest& request, ArtifactStore* store) {
  CheckOutcome out;

  if (request.format != "text" && request.format != "json" &&
      request.format != "sarif") {
    out.error_text +=
        "unknown --format '" + request.format + "' (want text|json|sarif)\n";
    out.exit_code = 2;
    return out;
  }
  std::string backend_warning;
  const std::optional<checkers::BatteryOptions> options =
      battery_options(request, out.error_text, backend_warning);
  if (!options) {
    out.exit_code = 2;
    return out;
  }
  // Baseline validation is a usage check: a malformed file is exit 2 before
  // any (potentially cached) verdict work happens.
  checkers::SuppressionIndex suppressions;
  if (!request.baseline_text.empty()) {
    std::string error;
    if (!suppressions.load_baseline(request.baseline_text, error)) {
      out.error_text += "bad --baseline file: " + error + "\n";
      out.exit_code = 2;
      return out;
    }
  }

  // Parse — identical failure contract to the CLI's parse_file_or_die:
  // exit 1 with the rendered diagnostics; parse *warnings* on a usable tree
  // are not rendered.
  dts::SourceManager sources;
  for (const auto& [name, content] : request.includes) {
    sources.register_file(name, content);
  }
  if (!request.base_directory.empty()) {
    sources.set_base_directory(request.base_directory);
  }

  std::shared_ptr<const TreeArtifact> tree_artifact;
  if (store != nullptr) {
    tree_artifact =
        store->tree(request.source, request.path, sources,
                    &out.trace.tree_cache_hit);
  } else {
    auto artifact = std::make_shared<TreeArtifact>();
    support::DiagnosticEngine diags;
    auto parsed = dts::parse_dts(request.source, request.path, sources, diags);
    artifact->tree = std::move(parsed);
    artifact->diagnostics_text = diags.render();
    artifact->parse_errors = artifact->tree == nullptr || diags.has_errors();
    tree_artifact = artifact;
  }
  if (tree_artifact->parse_errors) {
    out.error_text += tree_artifact->diagnostics_text;
    out.exit_code = 1;
    return out;
  }

  // The backend warning is emitted here — after the parse, like the CLI.
  out.error_text += backend_warning;

  // Schema-set resolution before the (cacheable) checker battery, so an
  // exit-2 never has to come out of a cached verdict. Matches the CLI's
  // lazy schemas_from(): parse errors surface only when syntax runs.
  const std::optional<schema::SchemaSet> schemas =
      request.syntax ? load_schemas(request.schemas_text, out.error_text)
                     : schema::SchemaSet{};
  if (!schemas) {
    out.exit_code = 2;
    return out;
  }

  std::shared_ptr<const CheckArtifact> verdict;
  if (store != nullptr) {
    // tree_artifact->key is include-aware (see TreeArtifact::key): an
    // edited .dtsi re-parses the tree *and* lands here as a new verdict key.
    const uint64_t key = fnv_combine(check_options_fingerprint(request),
                                     tree_artifact->key);
    verdict = store->unit_check(
        key,
        [&]() {
          // The device graph is its own keyed artifact (option-independent),
          // fetched only when the verdict actually rebuilds — a cache-hit
          // request never builds a graph.
          std::shared_ptr<const GraphArtifact> graph_artifact;
          if (request.graph) {
            graph_artifact = store->graph(tree_artifact->key,
                                          tree_artifact->tree);
          }
          CheckArtifact art = check_tree(
              *tree_artifact->tree, *schemas, *options,
              graph_artifact != nullptr ? graph_artifact->graph : nullptr);
          art.key = key;
          return art;
        },
        &out.trace.check_cache_hit);
  } else {
    verdict = std::make_shared<const CheckArtifact>(
        check_tree(*tree_artifact->tree, *schemas, *options));
  }

  // Suppression runs over a copy of the (possibly cached) verdict: inline
  // `// llhsc-disable-next-line` comments from every source the findings
  // touch, plus the baseline loaded above. Verdict artifacts stay pristine.
  checkers::Findings findings = verdict->findings;
  size_t suppressed = 0;
  if (!findings.empty()) {
    suppressions.add_source(request.path, request.source);
    std::vector<std::string> scanned = {request.path};
    for (const auto& [name, content] : request.includes) {
      suppressions.add_source(name, content);
      scanned.push_back(name);
    }
    for (const checkers::Finding& f : findings) {
      if (!f.location.valid()) continue;
      if (std::find(scanned.begin(), scanned.end(), f.location.file) !=
          scanned.end()) {
        continue;
      }
      scanned.push_back(f.location.file.str());
      // Disk-resolved includes: the location names the include as the
      // SourceManager registered it.
      if (auto text = sources.load(f.location.file.str())) {
        suppressions.add_source(f.location.file.str(), *text);
      }
    }
    suppressed = suppressions.apply(findings);
    obs::count("suppress.filtered", "suppress",
               static_cast<int64_t>(suppressed));
  }

  append_stats_line(request, *verdict, suppressed, out);
  render_outcome(request, findings, out);
  out.trace.suppressed = suppressed;
  out.trace.solver_checks = verdict->solver_checks;
  out.trace.queries_issued = verdict->queries_issued;
  out.trace.queries_pruned = verdict->queries_pruned;
  out.trace.cache_hits = verdict->cache_hits;
  out.trace.cache_errors = verdict->cache_errors;
  return out;
}

}  // namespace llhsc::server
