// Pipeline observability: the obs::Summary reduced once from a pipeline
// run's event stream (src/obs/summary.hpp) — one row per (work unit, stage)
// span, merged in unit declaration order, so the trace is as deterministic
// as the findings (timings excepted — wall_ms is measured, everything else
// is exact). Rendered two ways: a JSON document with a top-level
// "schema_version": 2 (--trace-json, schema in docs/pipeline.md and
// docs/observability.md) and an aligned summary table (--verbose).
#pragma once

#include <string>

#include "obs/summary.hpp"

namespace llhsc::core {

struct PipelineTrace {
  /// Worker threads the run used (1 = serial).
  unsigned jobs = 1;
  /// End-to-end wall time of Pipeline::run.
  double total_ms = 0.0;
  obs::Summary summary;

  /// The --trace-json document (stable key order, 3-decimal timings).
  [[nodiscard]] std::string to_json() const;
  /// The --verbose summary table.
  [[nodiscard]] std::string render_table() const;
};

}  // namespace llhsc::core
