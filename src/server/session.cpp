#include "server/session.hpp"

#include <sstream>

#include "checkers/battery.hpp"
#include "checkers/resource_allocation.hpp"
#include "dts/printer.hpp"
#include "lift/lift.hpp"
#include "support/strings.hpp"

namespace llhsc::server {

namespace {

StoreStats stats_delta(const StoreStats& before, const StoreStats& after) {
  StoreStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.tree_parses = after.tree_parses - before.tree_parses;
  d.delta_parses = after.delta_parses - before.delta_parses;
  d.model_parses = after.model_parses - before.model_parses;
  d.product_line_builds =
      after.product_line_builds - before.product_line_builds;
  d.derives = after.derives - before.derives;
  d.unit_checks = after.unit_checks - before.unit_checks;
  d.graph_builds = after.graph_builds - before.graph_builds;
  d.cross_checks = after.cross_checks - before.cross_checks;
  d.lifted_checks = after.lifted_checks - before.lifted_checks;
  return d;
}

/// CheckRequest carrying the session's per-unit checker options. Sessions
/// carry no rule lists, so crossref and graph rules run at their defaults.
CheckRequest unit_check_request(const SessionRequest& request) {
  CheckRequest cr;
  cr.lint = request.lint;
  cr.graph = request.graph;
  cr.syntax = request.syntax;
  cr.semantics = request.semantics;
  cr.backend = request.backend;
  cr.schemas_text = request.schemas_text;
  cr.solver_timeout_ms = request.solver_timeout_ms;
  cr.plan = request.plan;
  cr.cache_dir = request.cache_dir;
  return cr;
}

}  // namespace

SessionOutcome run_session_check(const SessionRequest& request,
                                 ArtifactStore& store) {
  SessionOutcome out;
  const StoreStats before = store.stats();
  auto finish = [&]() {
    out.cost = stats_delta(before, store.stats());
    return out;
  };

  dts::SourceManager sources;
  for (const auto& [name, content] : request.includes) {
    sources.register_file(name, content);
  }
  if (!request.base_directory.empty()) {
    sources.set_base_directory(request.base_directory);
  }

  auto core = store.tree(request.core_source, request.core_name, sources);
  if (core->parse_errors) {
    out.error_text += core->diagnostics_text;
    out.exit_code = 1;
    return finish();
  }
  auto deltas = store.deltas(request.deltas_source, request.deltas_name);
  if (deltas->parse_errors) {
    out.error_text += deltas->diagnostics_text;
    out.exit_code = 1;
    return finish();
  }
  auto pl = store.product_line(*core, *deltas);
  if (pl == nullptr || pl->product_line == nullptr) {
    out.error_text += "cannot build product line\n";
    out.exit_code = 1;
    return finish();
  }

  const CheckRequest unit_request = unit_check_request(request);
  std::string backend_warning;
  const std::optional<checkers::BatteryOptions> options =
      battery_options(unit_request, out.error_text, backend_warning);
  out.error_text += backend_warning;

  // Schema-set parse errors reject the whole request up front, exactly once
  // — never from inside a cached verdict.
  const std::optional<schema::SchemaSet> schemas =
      request.syntax ? load_schemas(request.schemas_text, out.error_text)
                     : schema::SchemaSet{};
  if (!options || !schemas) {
    out.exit_code = 2;
    return finish();
  }

  // -- Allocation (global over every product, like the pipeline's stage 1) --
  if (request.check_allocation) {
    if (request.model_source.empty()) {
      out.error_text += "check_allocation requires a feature model\n";
      out.exit_code = 2;
      return finish();
    }
    auto model = store.model(request.model_source, request.model_name);
    if (model->parse_errors || model->model == nullptr) {
      out.error_text += model->diagnostics_text;
      out.exit_code = 1;
      return finish();
    }
    std::vector<feature::FeatureId> exclusive;
    for (const std::string& name : request.exclusive) {
      auto id = model->model->find(name);
      if (!id) {
        out.error_text += "unknown exclusive feature '" + name + "'\n";
        out.exit_code = 2;
        return finish();
      }
      exclusive.push_back(*id);
    }
    std::ostringstream ks;
    ks << request.backend << '\n';
    for (const std::string& name : request.exclusive) ks << name << ' ';
    ks << '\n';
    for (const SessionProduct& p : request.products) {
      for (const std::string& f : p.features) ks << f << ' ';
      ks << '\n';
    }
    const uint64_t alloc_key =
        fnv_combine(support::fnv1a64(ks.str()), model->key);
    auto alloc = store.allocation(alloc_key, [&]() {
      AllocationArtifact art;
      art.key = alloc_key;
      checkers::ResourceAllocationChecker rac(*model->model, exclusive,
                                              options->backend);
      std::vector<std::set<std::string>> features;
      features.reserve(request.products.size());
      for (const SessionProduct& p : request.products) {
        features.push_back(p.features);
      }
      art.findings = rac.check(features);
      checkers::sort_by_location(art.findings);
      return art;
    });
    SessionUnitResult unit;
    unit.name = "*";
    unit.errors = checkers::error_count(alloc->findings);
    unit.warnings = alloc->findings.size() - unit.errors;
    unit.report = checkers::render(alloc->findings);
    out.units.push_back(std::move(unit));
  }

  // -- Lifted family analysis: one unit whose verdict covers EVERY
  // configuration. The key composes the core, every delta module in
  // declaration order (the family depends on all of them — there is no
  // per-product subset to scope to), the model, and the lifted options, so
  // editing any input re-runs exactly one family analysis and everything
  // else stays cached.
  if (request.check_lifted) {
    if (request.model_source.empty()) {
      out.error_text += "check_lifted requires a feature model\n";
      out.exit_code = 2;
      return finish();
    }
    auto model = store.model(request.model_source, request.model_name);
    if (model->parse_errors || model->model == nullptr) {
      out.error_text += model->diagnostics_text;
      out.exit_code = 1;
      return finish();
    }
    std::ostringstream ks;
    ks << request.backend << '\n' << request.lifted_max_configs << '\n';
    for (const std::string& name : request.exclusive) ks << name << ' ';
    uint64_t lifted_key =
        fnv_combine(support::fnv1a64(ks.str()), 0x6c696674u /*"lift"*/);
    lifted_key = fnv_combine(lifted_key, pl->key);
    lifted_key = fnv_combine(lifted_key, model->key);
    SessionUnitResult unit;
    unit.name = "*lifted*";
    auto verdict = store.lifted_check(
        lifted_key,
        [&]() {
          CheckArtifact art;
          art.key = lifted_key;
          lift::LiftOptions opts;
          opts.backend = options->backend;
          opts.max_configs = request.lifted_max_configs;
          opts.exclusive_features = request.exclusive;
          support::DiagnosticEngine diags;
          lift::LiftedResult lifted = lift::check_family(
              *pl->product_line, *model->model, opts, diags);
          art.findings = lift::flatten(lifted);
          if (!lifted.ok) {
            checkers::Finding refused;
            refused.kind = checkers::FindingKind::kDeriveFailure;
            refused.subject = "*lifted*";
            refused.message =
                "lifted analysis incomplete or refused: " + diags.render();
            art.findings.push_back(std::move(refused));
          }
          return art;
        },
        &unit.check_cache_hit);
    unit.errors = checkers::error_count(verdict->findings);
    unit.warnings = verdict->findings.size() - unit.errors;
    unit.report = checkers::render(verdict->findings);
    out.units.push_back(std::move(unit));
  }

  // -- Per-product units, platform (union of selections) last --
  std::vector<SessionProduct> units = request.products;
  if (request.check_platform) {
    SessionProduct platform;
    platform.name = "platform";
    for (const SessionProduct& p : request.products) {
      platform.features.insert(p.features.begin(), p.features.end());
    }
    units.push_back(std::move(platform));
  }

  const delta::ProductLine& product_line = *pl->product_line;
  const std::vector<delta::DeltaModule>& modules = product_line.deltas();

  struct ProductGraphInput {
    std::string name;
    uint64_t composed_key;
    std::shared_ptr<const ComposedArtifact> composed;
  };
  std::vector<ProductGraphInput> product_graphs;

  for (const SessionProduct& product : units) {
    support::DiagnosticEngine order_diags;
    auto order = product_line.application_order(product.features, order_diags);
    if (!order) {
      out.error_text += order_diags.render();
      out.exit_code = 1;
      continue;
    }

    // The composed key names exactly the modules this product applies, in
    // application order — the heart of per-unit invalidation.
    uint64_t composed_key = fnv_combine(core->key, 0x636f6d70u /*"comp"*/);
    for (const delta::DeltaModule* m : *order) {
      const size_t idx = static_cast<size_t>(m - modules.data());
      composed_key = fnv_combine(composed_key, deltas->module_keys[idx]);
    }

    SessionUnitResult unit;
    unit.name = product.name;
    auto composed = store.composed(
        composed_key,
        [&]() {
          ComposedArtifact art;
          art.key = composed_key;
          support::DiagnosticEngine diags;
          auto tree = product_line.derive(product.features, diags);
          art.tree = std::shared_ptr<const dts::Tree>(std::move(tree));
          art.diagnostics_text = diags.render();
          art.derive_errors = art.tree == nullptr || diags.has_errors();
          if (art.tree != nullptr) art.dts_text = dts::print_dts(*art.tree);
          return art;
        },
        &unit.composed_cache_hit);
    if (composed->derive_errors || composed->tree == nullptr) {
      out.error_text += composed->diagnostics_text;
      out.exit_code = 1;
      out.units.push_back(std::move(unit));
      continue;
    }

    const uint64_t check_key =
        fnv_combine(check_options_fingerprint(unit_request), composed_key);
    auto verdict = store.unit_check(
        check_key,
        [&]() {
          // The unit's device graph is a separate keyed artifact under the
          // composed key: a one-delta edit re-derives exactly the affected
          // units' composed trees, and therefore exactly their graphs.
          std::shared_ptr<const GraphArtifact> graph_artifact;
          if (unit_request.graph) {
            graph_artifact = store.graph(composed_key, composed->tree);
          }
          CheckArtifact art = check_tree(
              *composed->tree, *schemas, *options,
              graph_artifact != nullptr ? graph_artifact->graph : nullptr);
          art.key = check_key;
          return art;
        },
        &unit.check_cache_hit);
    unit.errors = checkers::error_count(verdict->findings);
    unit.warnings = verdict->findings.size() - unit.errors;
    unit.report = checkers::render(verdict->findings);
    out.units.push_back(std::move(unit));

    if (request.graph && product.name != "platform") {
      product_graphs.push_back({product.name, composed_key, composed});
    }
  }

  // -- Cross-unit graph analysis: two VMs claiming one exclusive provider.
  // Cached under the fold of every product's composed key (order matters),
  // so only a change to some product's tree recomputes it; the per-unit
  // graphs it reads are the same keyed artifacts the unit checks built.
  if (request.graph && product_graphs.size() >= 2) {
    uint64_t cross_key = fnv_combine(
        check_options_fingerprint(unit_request), 0x78756e69u /*"xuni"*/);
    for (const ProductGraphInput& pg : product_graphs) {
      cross_key = fnv_combine(support::fnv1a64(pg.name, cross_key),
                              pg.composed_key);
    }
    bool cross_hit = false;
    auto cross = store.cross_check(
        cross_key,
        [&]() {
          CheckArtifact art;
          art.key = cross_key;
          std::vector<std::shared_ptr<const GraphArtifact>> artifacts;
          std::vector<checkers::graph::UnitGraph> unit_graphs;
          for (const ProductGraphInput& pg : product_graphs) {
            auto ga = store.graph(pg.composed_key, pg.composed->tree);
            if (ga == nullptr || ga->graph == nullptr) continue;
            unit_graphs.push_back({pg.name, ga->graph.get()});
            artifacts.push_back(std::move(ga));
          }
          art.findings = checkers::run_cross_unit(unit_graphs);
          return art;
        },
        &cross_hit);
    if (!cross->findings.empty()) {
      SessionUnitResult unit;
      unit.name = "*graph*";
      unit.check_cache_hit = cross_hit;
      unit.errors = checkers::error_count(cross->findings);
      unit.warnings = cross->findings.size() - unit.errors;
      unit.report = checkers::render(cross->findings);
      out.units.push_back(std::move(unit));
    }
  }

  if (out.exit_code == 0) {
    for (const SessionUnitResult& u : out.units) {
      if (u.errors > 0) {
        out.exit_code = 1;
        break;
      }
    }
  }
  return finish();
}

}  // namespace llhsc::server
