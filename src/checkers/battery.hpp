// The per-unit checker battery: the one place that knows which checkers run
// on a DTS tree and in what order. Every route to a verdict — `llhsc check`
// and llhscd (server::run_check), daemon sessions, the Fig. 2 pipeline
// behind `llhsc demo`, and `llhsc generate` — calls run_battery(), so a
// unit's findings cannot drift between routes.
//
// Stages, each under its own `stage.<name>` obs span and scope:
//   lint -> crossref -> graph -> syntactic -> semantic
// Findings come back in stage order, each checker's own order inside a
// stage; callers that render them add no sort of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkers/crossref/rules.hpp"
#include "checkers/finding.hpp"
#include "checkers/graph/graph.hpp"
#include "checkers/graph/rules.hpp"
#include "dts/tree.hpp"
#include "schema/schema.hpp"
#include "smt/solver.hpp"

namespace llhsc::checkers {

struct BatteryOptions {
  bool lint = true;
  bool crossref = true;
  /// Device-graph dataflow rules (checkers/graph/).
  bool graph = true;
  bool syntax = true;
  bool semantics = true;
  smt::Backend backend = smt::Backend::kBuiltin;
  /// Per-tree wall-clock budget for the semantic stage's solver work, in ms
  /// (0 = unlimited). Expiry yields a kSolverTimeout error finding.
  uint64_t solver_timeout_ms = 0;
  /// Route semantic queries through the smt::QueryPlanner. Findings are
  /// byte-identical either way; false is the exhaustive A/B path.
  bool plan = true;
  /// Persistent query-result cache directory ("" = none).
  std::string cache_dir;
  /// Per-rule enable/severity for the crossref and graph rules, parsed once
  /// from --disable-rule / --rule-severity (crossref::parse_rule_options).
  crossref::CrossRefOptions rules;
};

/// Runs the enabled stages over `tree`; `schemas` is read only by the
/// syntactic stage. `graph` is an optional in/out slot for the tree's device
/// graph: a graph already in it (for example a keyed store artifact) is
/// checked instead of building one, and a graph the stage builds is left in
/// it for the cross-unit step. Its nodes alias `tree`, which must outlive
/// it. Without a slot the built graph dies with the graph stage, so it is
/// not resident through the solver stages.
[[nodiscard]] Findings run_battery(
    const dts::Tree& tree, const schema::SchemaSet& schemas,
    const BatteryOptions& options,
    std::shared_ptr<const graph::DeviceGraph>* graph = nullptr);

/// The cross-unit step over the VM units' device graphs (platform excluded):
/// graph-exclusive-provider, under the `stage.graph-cross` span, sorted by
/// location.
[[nodiscard]] Findings run_cross_unit(
    const std::vector<graph::UnitGraph>& units);

}  // namespace llhsc::checkers
