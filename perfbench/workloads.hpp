// The three workloads. Each untraced run fills the end-to-end metrics; each
// traced slice adds its layers' metrics to a traced run's result.
#pragma once

#include "common.hpp"

namespace perfbench {

struct TraceSlice {
  double seconds = 0;
  /// Also time the same operations untraced and report obs.trace_overhead.
  bool measure_overhead = false;
};

void run_board_cold(const Options& opts, const Json& manifest, Result& out);
void trace_board_cold(const Options& opts, const Json& manifest,
                      const TraceSlice& slice, SpanLog& spans, Result& out);

void run_product_line(const Options& opts, const Json& manifest, Result& out);
void trace_product_line(const Options& opts, const Json& manifest,
                        const TraceSlice& slice, SpanLog& spans, Result& out);

void run_daemon_mixed(const Options& opts, const Json& manifest, Result& out);
void trace_daemon_mixed(const Options& opts, const Json& manifest,
                        const TraceSlice& slice, SpanLog& spans, Result& out);

}  // namespace perfbench
