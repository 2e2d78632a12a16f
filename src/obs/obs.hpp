// Structured tracing/metrics substrate (docs/observability.md). One event
// stream feeds every observability surface: the Chrome-trace profile
// (--profile), the pipeline trace (--trace-json / --verbose), the CLI
// `check --stats` line and the daemon `stats` reply are all reductions of
// the same spans and counters, so the numbers cannot drift by construction.
//
// Two event kinds:
//   * Span    — a named timed interval (RAII `Span`, or `record_span` for
//               externally-timed intervals like daemon admission wait).
//   * Counter — a named integer delta (`count`), stamped with the ambient
//               unit/scope so reductions can attribute it to a stage.
//
// Events land in the thread-ambient `TraceSink` (installed with
// `ScopedSink`); with no sink installed, recording is a cheap no-op, so
// library code can instrument unconditionally.
//
// `set_enabled(false)` is a kill switch for *span* capture (the timing
// layer, benchmarked by tools/bench_pr5.sh). Counter events are always
// recorded: they are the accounting substrate behind check verdict counters
// and must not change with profiling preferences.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace llhsc::obs {

/// Span-capture kill switch (process global; counters are unaffected).
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Microseconds since the process-wide steady-clock epoch. All sinks share
/// the epoch, so event streams from different sinks merge by concatenation.
[[nodiscard]] uint64_t now_us();

/// Small dense id for the calling thread (stable for the thread's life).
[[nodiscard]] uint64_t thread_id();

struct Event {
  enum class Kind : uint8_t { kSpan, kCounter };
  Kind kind = Kind::kSpan;
  std::string name;      // "stage.<name>", "solver.check", "qcache.hit" …
  std::string category;  // "stage" | "solver" | "planner" | "qcache" |
                         // "store" | "request" | "client"
  std::string unit;      // VM name, "platform", "*", or "" (ambient)
  std::string scope;     // enclosing stage name, or "" (ambient)
  uint64_t tid = 0;
  uint64_t ts_us = 0;    // event start, relative to the process epoch
  uint64_t dur_us = 0;   // spans only
  int64_t delta = 0;     // counters only
  std::vector<std::pair<std::string, std::string>> args;
  /// Global monotone sequence number; ties on ts_us sort by seq.
  uint64_t seq = 0;
};

/// An append-only event buffer. Sharded by thread id so concurrent workers
/// rarely contend on the same mutex ("lock-free enough" for per-query
/// recording); snapshots merge the shards sorted by (ts_us, seq).
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record(Event e);
  /// Appends a batch (e.g. a nested sink's events) in one lock.
  void extend(std::vector<Event> events);

  /// All events so far, sorted by (ts_us, seq).
  [[nodiscard]] std::vector<Event> snapshot() const;
  /// Like snapshot(), but moves the events out and clears the sink.
  std::vector<Event> take();

 private:
  static constexpr size_t kShardCount = 8;
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Event> events;
  };
  std::array<Shard, kShardCount> shards_;
};

/// The sink events are currently recorded into (nullptr = recording off).
[[nodiscard]] TraceSink* current_sink();
[[nodiscard]] const std::string& current_unit();
[[nodiscard]] const std::string& current_scope();

/// Installs `sink` as the calling thread's recording target (RAII; restores
/// the previous sink on destruction, so sinks nest).
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* sink);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  TraceSink* prev_;
};

/// Sets the ambient unit (VM name / "platform" / "*") for the thread.
class ScopedUnit {
 public:
  explicit ScopedUnit(std::string unit);
  ~ScopedUnit();
  ScopedUnit(const ScopedUnit&) = delete;
  ScopedUnit& operator=(const ScopedUnit&) = delete;

 private:
  std::string prev_;
};

/// Sets the ambient scope (stage name) for the thread.
class ScopedScope {
 public:
  explicit ScopedScope(std::string scope);
  ~ScopedScope();
  ScopedScope(const ScopedScope&) = delete;
  ScopedScope& operator=(const ScopedScope&) = delete;

 private:
  std::string prev_;
};

/// RAII span: starts timing at construction, records one kSpan event at
/// destruction. Inactive (and allocation-free) when span capture is
/// disabled or no sink is installed — check active() before building
/// expensive arg strings.
class Span {
 public:
  Span(const char* name, const char* category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const { return sink_ != nullptr; }
  void arg(const char* key, std::string value);

 private:
  TraceSink* sink_ = nullptr;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_us_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Records a counter delta into the current sink, stamped with the ambient
/// unit/scope. Zero deltas are dropped (they carry no information and would
/// make event streams input-dependent in trivial ways). Counters ignore the
/// span kill switch — see the header comment.
void count(const char* name, const char* category, int64_t delta);

/// Records an externally-timed span directly into `sink` (used for
/// intervals measured across threads, e.g. daemon admission wait). Subject
/// to the span kill switch like `Span`.
void record_span(TraceSink& sink, const char* name, const char* category,
                 uint64_t start_us, uint64_t dur_us,
                 std::vector<std::pair<std::string, std::string>> args = {});

}  // namespace llhsc::obs
