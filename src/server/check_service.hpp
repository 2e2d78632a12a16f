// The one-shot `llhsc check` flow as a library call over in-memory sources,
// shared by the CLI and the llhscd daemon. Both callers funnel through
// run_check(), so for identical inputs the daemon's response carries the
// exact stdout/stderr bytes and exit code the one-shot CLI would produce —
// byte-identity by construction, not by parallel maintenance.
//
// With an ArtifactStore the parse and the checker verdict are reused
// content-addressed across requests; the *formatting* always runs fresh from
// the cached findings, so cached and uncached answers are indistinguishable
// on the wire. (One documented exception: the --stats stderr line replays
// the counters of the run that produced the cached verdict.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checkers/battery.hpp"
#include "schema/schema.hpp"
#include "server/artifact_store.hpp"

namespace llhsc::server {

/// Mirrors the `llhsc check` option surface. The caller reads the file (the
/// daemon never touches the client's filesystem for the main source);
/// `path` only labels the report.
struct CheckRequest {
  std::string path;            // report label (the CLI's positional arg)
  std::string source;          // DTS text
  std::string base_directory;  // /include/ resolution root ("" = none)
  /// In-memory includes, shadowing base_directory (name -> content).
  std::vector<std::pair<std::string, std::string>> includes;

  std::string format = "text";  // text|json|sarif
  bool lint = true;
  bool crossref = true;
  bool graph = true;  // device-graph dataflow rules (checkers/graph/)
  bool syntax = true;
  bool semantics = true;
  bool quiet = false;
  bool stats = false;

  std::string backend = "builtin";  // builtin|z3
  std::string schemas_text;         // "" = builtin schema set
  std::string schemas_path;         // label for schema diagnostics
  std::string disable_rule;         // raw CLI comma list
  std::string rule_severity;        // raw CLI comma list
  uint64_t solver_timeout_ms = 0;
  bool plan = true;
  std::string cache_dir;
  /// Content of a --baseline file ("" = none). Applied after the verdict —
  /// and therefore after any cache hit — so baselines never key verdicts.
  std::string baseline_text;
};

/// What the request actually cost, for the daemon's per-request trace.
struct CheckTraceInfo {
  bool tree_cache_hit = false;
  bool check_cache_hit = false;
  uint64_t solver_checks = 0;
  uint64_t queries_issued = 0;
  uint64_t queries_pruned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_errors = 0;
  /// Findings removed by inline disable comments or the baseline.
  uint64_t suppressed = 0;
};

struct CheckOutcome {
  int exit_code = 0;       // 0 clean, 1 findings/rejected input, 2 usage/I-O
  std::string output;      // exact stdout bytes of the one-shot CLI
  std::string error_text;  // exact stderr bytes of the one-shot CLI
  size_t errors = 0;
  size_t warnings = 0;
  CheckTraceInfo trace;
};

/// Runs the full check flow. `store` may be null (the one-shot CLI path);
/// with a store, parse/verdict artifacts are reused content-addressed.
[[nodiscard]] CheckOutcome run_check(const CheckRequest& request,
                                     ArtifactStore* store);

/// The battery options `request` selects, its rule lists parsed once.
/// Rule-list errors are appended to `error_text` and yield nullopt (exit 2);
/// an unknown backend name appends its warning to `backend_warning`.
[[nodiscard]] std::optional<checkers::BatteryOptions> battery_options(
    const CheckRequest& request, std::string& error_text,
    std::string& backend_warning);

/// The schema set a request names: empty text selects the builtin set.
/// Parse errors are rendered into `error_text` and yield nullopt (exit 2).
[[nodiscard]] std::optional<schema::SchemaSet> load_schemas(
    const std::string& schemas_text, std::string& error_text);

/// Runs the checker battery over an already-parsed tree and packages the
/// verdict: the findings plus the semantic stage's solver/planner counters,
/// reduced from the battery's own event stream (which then splices into the
/// caller's sink). `graph` is an optional prebuilt device graph of `tree`.
/// The key is left 0; the caller owns keying.
[[nodiscard]] CheckArtifact check_tree(
    const dts::Tree& tree, const schema::SchemaSet& schemas,
    const checkers::BatteryOptions& options,
    std::shared_ptr<const checkers::graph::DeviceGraph> graph = nullptr);

/// Canonical fingerprint of every request field that can change the
/// *verdict* (format/quiet/stats excluded — they only change rendering).
[[nodiscard]] uint64_t check_options_fingerprint(const CheckRequest& request);

}  // namespace llhsc::server
