#include "checkers/battery.hpp"

#include <iterator>

#include "checkers/lint.hpp"
#include "checkers/semantic.hpp"
#include "checkers/syntactic.hpp"
#include "obs/obs.hpp"

namespace llhsc::checkers {

namespace {

/// One stage: its findings are counted under its scope and appended in the
/// checker's own order. `stage` and `span_name` are literals because spans
/// keep only the pointer until they record.
template <typename Fn>
void run_stage(const char* stage, const char* span_name, Findings& out,
               Fn&& fn) {
  obs::ScopedScope scope_guard(stage);
  obs::Span span(span_name, "stage");
  Findings found = fn();
  obs::count("stage.findings", "stage", static_cast<int64_t>(found.size()));
  out.insert(out.end(), std::make_move_iterator(found.begin()),
             std::make_move_iterator(found.end()));
}

}  // namespace

Findings run_battery(const dts::Tree& tree, const schema::SchemaSet& schemas,
                     const BatteryOptions& options,
                     std::shared_ptr<const graph::DeviceGraph>* graph) {
  Findings out;
  if (options.lint) {
    run_stage("lint", "stage.lint", out,
              [&] { return LintChecker().check(tree); });
  }
  if (options.crossref) {
    run_stage("crossref", "stage.crossref", out, [&] {
      return crossref::CrossRefChecker(options.rules).check(tree);
    });
  }
  if (options.graph) {
    run_stage("graph", "stage.graph", out, [&] {
      const graph::GraphChecker checker(options.rules);
      if (graph == nullptr) {
        return checker.check(graph::DeviceGraph::build(tree));
      }
      if (*graph == nullptr) {
        *graph = std::make_shared<const graph::DeviceGraph>(
            graph::DeviceGraph::build(tree));
      }
      return checker.check(**graph);
    });
  }
  if (options.syntax) {
    run_stage("syntactic", "stage.syntactic", out, [&] {
      return SyntacticChecker(schemas, options.backend).check(tree);
    });
  }
  if (options.semantics) {
    run_stage("semantic", "stage.semantic", out, [&] {
      SemanticOptions semantic;
      semantic.solver_timeout_ms = options.solver_timeout_ms;
      semantic.plan = options.plan;
      semantic.cache_dir = options.cache_dir;
      return SemanticChecker(options.backend, semantic).check(tree);
    });
  }
  return out;
}

Findings run_cross_unit(const std::vector<graph::UnitGraph>& units) {
  Findings out;
  run_stage("graph-cross", "stage.graph-cross", out, [&] {
    Findings cross = graph::check_exclusive_providers(units);
    sort_by_location(cross);
    return cross;
  });
  return out;
}

}  // namespace llhsc::checkers
