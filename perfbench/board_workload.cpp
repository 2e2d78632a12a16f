// board-cold: one thread, a closed loop of cold api::run_check calls over a
// seeded set of boards (no store, no cache directory, builtin backend).
// The front end and the per-unit checker battery do all the work.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <tuple>

#include "api/llhsc.hpp"
#include "checkers/crossref/rules.hpp"
#include "checkers/graph/rules.hpp"
#include "checkers/lint.hpp"
#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "checkers/syntactic.hpp"
#include "dts/parser.hpp"
#include "obs/obs.hpp"
#include "schema/builtin_schemas.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace api = llhsc::api;
namespace checkers = llhsc::checkers;
namespace obs = llhsc::obs;

struct Board {
  std::string file;
  std::string source;
  uint64_t nodes = 0;
  uint64_t size_class = 0;
  bool defect = false;
  FindingKeys expected;
};

std::vector<Board> load_boards(const Options& opts, const Json& manifest) {
  std::vector<Board> boards;
  for (const Json& b : manifest.at("boards").items()) {
    Board board;
    board.file = b.at("file").as_string();
    board.source = read_file(opts.inputs + "/" + board.file);
    board.nodes = b.at("nodes").as_uint();
    board.size_class = b.at("size_class").as_uint();
    board.defect = !b.at("defect").as_string().empty();
    board.expected = expected_keys(b.at("expected"));
    boards.push_back(std::move(board));
  }
  return boards;
}

api::CheckRequest request_for(const Board& b) {
  api::CheckRequest req;
  req.path = b.file;
  req.source = b.source;
  req.format = "json";
  return req;
}

/// True when the answer matches the generator's known answer.
bool verdict_ok(const Board& b, const api::CheckResult& r) {
  if (r.exit_code == 2) return false;
  FindingKeys got;
  if (!report_keys(r.output, got)) return false;
  if (got != b.expected) {
    std::cerr << "perfbench: " << b.file << ": findings differ from the "
              << "known answer\n";
    return false;
  }
  return (r.exit_code == 1) == (r.errors > 0);
}

/// Counts and solver time a layer's calls left in the sink.
struct LayerEvents {
  uint64_t solver_checks = 0;
  uint64_t solver_us = 0;
  uint64_t conflicts = 0;
  uint64_t issued = 0;
  uint64_t pruned = 0;
  uint64_t cache_hits = 0;
};

LayerEvents drain(obs::TraceSink& sink) {
  LayerEvents le;
  for (const obs::Event& e : sink.take()) {
    if (e.kind == obs::Event::Kind::kSpan) {
      if (e.name == "solver.check") le.solver_us += e.dur_us;
      continue;
    }
    const uint64_t d = e.delta < 0 ? 0 : static_cast<uint64_t>(e.delta);
    if (e.name == "solver.checks") le.solver_checks += d;
    if (e.name == "solver.conflicts") le.conflicts += d;
    if (e.name == "planner.queries_issued") le.issued += d;
    if (e.name == "planner.queries_pruned") le.pruned += d;
    if (e.name == "planner.cache_hits") le.cache_hits += d;
  }
  return le;
}

constexpr const char* kLayers[] = {"dts.parse",          "checkers.lint",
                                   "checkers.crossref",  "checkers.graph",
                                   "checkers.syntactic", "checkers.semantic"};
constexpr size_t kLayerCount = std::size(kLayers);
constexpr size_t kParse = 0, kSyntactic = 4, kSemantic = 5;

struct TracedCheck {
  std::string report;  // report_json of the findings, as run_check renders
  double self_ms[kLayerCount] = {};
  double stage_ms[kLayerCount] = {};  // span duration, solver time included
  LayerEvents events[kLayerCount];
};

/// The check battery called layer by layer, in server::run_checkers' stage
/// order. With `spans` it is the traced route: each call is wrapped in a
/// benchmark span, with a TraceSink installed to collect the counters.
/// Without, the same calls run bare, the untraced side of
/// obs.trace_overhead. The schemas are built once by the caller, as
/// run_check builds them outside the battery.
TracedCheck layered_check(const Board& b,
                          const llhsc::schema::SchemaSet& schemas,
                          SpanLog* spans) {
  TracedCheck tc;
  obs::TraceSink sink;
  std::optional<obs::ScopedSink> sink_guard;
  if (spans != nullptr) sink_guard.emplace(&sink);
  checkers::Findings findings;
  const int root = spans != nullptr ? spans->open("check " + b.file) : -1;
  size_t layer = 0;
  auto run = [&](const std::function<void()>& fn) {
    if (spans == nullptr) {
      fn();
      return;
    }
    const int s = spans->open(kLayers[layer], root);
    {
      // Scope the counters like run_checkers does.
      obs::ScopedScope scope_guard(kLayers[layer]);
      fn();
    }
    spans->close(s);
    tc.events[layer] = drain(sink);
    const double dur_ms = static_cast<double>(spans->spans()[s].dur_us) / 1e3;
    tc.stage_ms[layer] = dur_ms;
    const double solver_ms =
        static_cast<double>(tc.events[layer].solver_us) / 1e3;
    tc.self_ms[layer] = std::max(0.0, dur_ms - solver_ms);
    ++layer;
  };
  auto append = [&](checkers::Findings f) {
    findings.insert(findings.end(), f.begin(), f.end());
  };

  std::unique_ptr<llhsc::dts::Tree> tree;
  run([&] {
    llhsc::support::DiagnosticEngine diags;
    tree = llhsc::dts::parse_dts(b.source, b.file, diags);
    if (diags.has_errors()) tree.reset();
  });
  if (tree != nullptr) {
    run([&] { append(checkers::LintChecker().check(*tree)); });
    run([&] { append(checkers::crossref::CrossRefChecker().check(*tree)); });
    run([&] {
      const auto graph = checkers::graph::DeviceGraph::build(*tree);
      append(checkers::graph::GraphChecker().check(graph));
    });
    run([&] {
      checkers::SyntacticChecker checker(schemas);
      append(checker.check(*tree));
    });
    run([&] {
      checkers::SemanticChecker checker;
      append(checker.check(*tree));
    });
    tc.report = checkers::report_json(findings) + "\n";
  }
  if (spans != nullptr) spans->close(root);
  return tc;
}

}  // namespace

void run_board_cold(const Options& opts, const Json& manifest, Result& out) {
  std::vector<Board> boards = load_boards(opts, manifest);
  std::mt19937_64 rng(opts.seed);
  std::shuffle(boards.begin(), boards.end(), rng);

  out.metric("setup_s", probe_setup_s(opts, 25), "s");

  // Self-check (untimed): the syntactic stage reaches the solver.
  {
    const auto smallest = std::min_element(
        boards.begin(), boards.end(),
        [](const Board& a, const Board& b) { return a.nodes < b.nodes; });
    obs::TraceSink sink;
    {
      obs::ScopedSink guard(&sink);
      (void)api::run_check(request_for(*smallest));
    }
    uint64_t syntactic_checks = 0;
    for (const obs::Event& e : sink.snapshot()) {
      if (e.kind == obs::Event::Kind::kCounter && e.name == "solver.checks" &&
          e.scope == "syntactic") {
        syntactic_checks += static_cast<uint64_t>(e.delta);
      }
    }
    out.self_check(syntactic_checks > 0,
                   "board-cold: the syntactic stage issued no solver checks");
  }

  Samples latency;
  uint64_t nodes = 0;
  bool semantic_queries_ok = true;
  const Clock::time_point t0 = Clock::now();
  // Whole passes over the set, so every run sees the same mix of sizes.
  do {
    for (const Board& b : boards) {
      const Clock::time_point s = Clock::now();
      const api::CheckResult r = api::run_check(request_for(b));
      latency.add(ms_since(s));
      ++out.attempted;
      if (!verdict_ok(b, r)) ++out.failed;
      nodes += b.nodes;
      if (has_semantic_rule(b.expected) && r.trace.queries_issued == 0) {
        semantic_queries_ok = false;
      }
    }
  } while (seconds_since(t0) < opts.seconds);
  const double elapsed = seconds_since(t0);
  out.self_check(semantic_queries_ok,
                 "board-cold: a semantic-defect board issued no semantic "
                 "queries");

  out.metric("latency_ms.p50", latency.median(), "ms");
  out.metric("latency_ms.tail", latency.tail(), "ms");
  out.metric("throughput_per_s", static_cast<double>(latency.size()) / elapsed,
             "1/s");
  out.metric("nodes_per_s", static_cast<double>(nodes) / elapsed, "1/s");
  out.metric("cold_ms", latency.median(), "ms");
  out.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  Json d = Json::object();
  d.set("samples", Json::unsigned_integer(latency.size()));
  d.set("tail_percentile", Json::number(latency.tail_percentile()));
  d.set("boards", Json::unsigned_integer(boards.size()));
  out.detail.set("board-cold", std::move(d));
}

void trace_board_cold(const Options& opts, const Json& manifest,
                      const TraceSlice& slice, SpanLog& spans, Result& out) {
  std::vector<Board> boards = load_boards(opts, manifest);
  // Round-robin over the size classes, defect boards first, so a short
  // slice still covers each class and the semantic findings.
  std::stable_sort(boards.begin(), boards.end(),
                   [](const Board& a, const Board& b) {
                     return std::tie(a.size_class, b.defect) <
                            std::tie(b.size_class, a.defect);
                   });
  std::map<uint64_t, std::vector<const Board*>> by_class;
  for (const Board& b : boards) by_class[b.size_class].push_back(&b);
  std::vector<const Board*> order;
  for (size_t r = 0; order.size() < boards.size(); ++r) {
    for (auto& [cls, list] : by_class) {
      if (r < list.size()) order.push_back(list[r]);
    }
  }

  Samples self[kLayerCount];
  Samples semantic_defect_ms;
  std::map<uint64_t, Samples> syntactic_by_class;
  Samples solver_checks_syn, solver_checks_sem, solver_ms, conflicts;
  uint64_t issued = 0, pruned = 0, cache_hits = 0;
  double parse_s = 0;
  uint64_t parsed_nodes = 0;
  double traced_ms = 0, untraced_ms = 0;
  const llhsc::schema::SchemaSet schemas = llhsc::schema::builtin_schemas();
  size_t next = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    const Board& b = *order[next++ % order.size()];
    const api::CheckResult r = api::run_check(request_for(b));
    // The same battery untraced and traced, in alternating order so
    // neither side always runs on the warmer caches.
    TracedCheck tc;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass + next) % 2 == 0;
      const Clock::time_point s = Clock::now();
      TracedCheck c = layered_check(b, schemas, traced ? &spans : nullptr);
      (traced ? traced_ms : untraced_ms) += ms_since(s);
      if (traced) tc = std::move(c);
    }
    ++out.attempted;
    if (!verdict_ok(b, r) || tc.report != r.output) {
      if (tc.report != r.output) {
        std::cerr << "perfbench: " << b.file << ": traced route findings "
                  << "differ from api::run_check\n";
      }
      ++out.failed;
      continue;
    }
    for (size_t l = 0; l < kLayerCount; ++l) self[l].add(tc.self_ms[l]);
    if (b.defect) semantic_defect_ms.add(tc.self_ms[kSemantic]);
    syntactic_by_class[b.size_class].add(tc.stage_ms[kSyntactic]);
    parse_s += tc.stage_ms[kParse] / 1e3;
    parsed_nodes += b.nodes;
    double smt_ms = 0;
    uint64_t conflict_count = 0;
    for (const LayerEvents& le : tc.events) {
      smt_ms += static_cast<double>(le.solver_us) / 1e3;
      conflict_count += le.conflicts;
      issued += le.issued;
      pruned += le.pruned;
      cache_hits += le.cache_hits;
    }
    solver_ms.add(smt_ms);
    conflicts.add(static_cast<double>(conflict_count));
    solver_checks_syn.add(
        static_cast<double>(tc.events[kSyntactic].solver_checks));
    solver_checks_sem.add(
        static_cast<double>(tc.events[kSemantic].solver_checks));
  } while (next < order.size() / 2 || seconds_since(t0) < slice.seconds);

  out.metric("dts.parse_ms", self[kParse].mean(), "ms");
  out.metric("dts.nodes_per_s",
             parse_s > 0 ? static_cast<double>(parsed_nodes) / parse_s : 0,
             "1/s");
  out.metric("checkers.lint_ms", self[1].mean(), "ms");
  out.metric("checkers.crossref_ms", self[2].mean(), "ms");
  out.metric("checkers.graph_ms", self[3].mean(), "ms");
  out.metric("checkers.syntactic_ms", self[kSyntactic].mean(), "ms");
  double growth = 0;
  const Samples* prev = nullptr;
  for (const auto& [cls, s] : syntactic_by_class) {
    if (prev != nullptr && prev->mean() > 0) {
      growth = std::max(growth, s.mean() / prev->mean());
    }
    prev = &s;
  }
  out.metric("checkers.syntactic_growth", growth, "ratio");
  out.metric("checkers.semantic_ms", semantic_defect_ms.mean(), "ms");
  out.metric("smt.solver_checks.syntactic", solver_checks_syn.mean(), "count");
  out.metric("smt.solver_checks.semantic", solver_checks_sem.mean(), "count");
  out.metric("smt.solver_check_ms", solver_ms.mean(), "ms");
  const uint64_t base = issued + pruned + cache_hits;
  out.metric("smt.planner.pruned_ratio",
             base > 0 ? static_cast<double>(pruned) / static_cast<double>(base)
                      : 0,
             "ratio");
  out.metric("sat.conflicts", conflicts.mean(), "count");
  if (slice.measure_overhead) {
    out.metric("obs.trace_overhead",
               untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0, "ratio");
  }
  Json d = Json::object();
  d.set("traced_checks", Json::unsigned_integer(self[kParse].size()));
  d.set("semantic_ms_boards",
        Json::unsigned_integer(semantic_defect_ms.size()));
  d.set("planner_base", Json::unsigned_integer(base));
  out.detail.set("trace.board-cold", std::move(d));
}

}  // namespace perfbench
