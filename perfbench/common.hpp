// Shared pieces of the benchmark binary: options, the generated manifest,
// known-answer comparison, sample statistics, the benchmark's own span
// recorder and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using llhsc::support::Json;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string inputs;   // generated input directory (manifest.json)
  std::string workdir;  // scratch directory for sockets, logs, traces
  std::string llhscd;   // daemon binary
  std::string self;     // this binary, for set-up probes
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double ms_since(Clock::time_point t0);

[[nodiscard]] std::string read_file(const std::string& path);
[[nodiscard]] Json load_manifest(const Options& opts);
/// A generated source with its @REV@ placeholder replaced by `revision`,
/// which makes each edited input distinct.
[[nodiscard]] std::string with_revision(std::string source, uint64_t revision);

/// A finding reduced to what the generator predicts: rule id plus subject,
/// and for pairwise rules the other party, ordered so orientation does not
/// matter. Sorted, so two vectors compare as multisets.
using FindingKeys = std::vector<std::string>;
[[nodiscard]] FindingKeys expected_keys(const Json& expected);
/// Keys of a `--format json` report (the `findings` array).
[[nodiscard]] bool report_keys(std::string_view report_json, FindingKeys& out);
/// Keys of a rendered text report (session units).
[[nodiscard]] FindingKeys text_report_keys(const std::string& report);
/// Rule ids the semantic checker reports (docs/rules.md).
[[nodiscard]] bool has_semantic_rule(const FindingKeys& keys);

/// Sample set with the percentile conventions of the benchmark:
/// nearest-rank percentiles, and `tail` = the highest of p50, p75, p90,
/// p95, p99, p99.9 that leaves at least ten samples above it.
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  [[nodiscard]] size_t size() const { return values.size(); }
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50); }
  [[nodiscard]] double tail_percentile() const;
  [[nodiscard]] double tail() const { return percentile(tail_percentile()); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
};

/// Flat spans recorded by the benchmark around each layer's entry point,
/// kept in memory and written out once at the end (Chrome trace format).
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    uint64_t start_us = 0;
    uint64_t dur_us = 0;
  };
  /// Opens a span; returns its index for close().
  int open(std::string name, int parent = -1);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Result line assembly: metrics in declaration order, printed with every
/// digit as measured.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable notes (tail percentiles, sample counts) printed on a
  /// separate stdout line before the result.
  Json detail = Json::object();

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed self-check; the run reports correct = false.
  void self_check(bool ok, const std::string& what);
  void print() const;
};

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double self_peak_rss_mb();
/// VmHWM of another process, in MB (0 when unreadable).
[[nodiscard]] double peak_rss_mb(int pid);
/// utime + stime of a process, in seconds.
[[nodiscard]] double cpu_seconds(int pid);
[[nodiscard]] unsigned cpu_count();

/// Median over `runs` fresh processes of the time from spawn until the
/// child reports it can serve its first request. The child is this binary
/// in --setup-probe mode.
[[nodiscard]] double probe_setup_s(const Options& opts, int runs);

/// Build and host context printed with every result.
[[nodiscard]] Json host_context();

}  // namespace perfbench
