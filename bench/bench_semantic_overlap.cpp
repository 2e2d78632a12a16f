// E4 + E12 — the §IV-C semantic checker. Fixed point: the running-example
// UART clash is detected. Sweeps: pairwise disjointness checking vs region
// count and address width, with a three-way ablation — builtin bit-blasting,
// native Z3, and a plain interval-arithmetic baseline (what a non-SMT tool
// would do; it cannot produce witnesses or mix symbolic constraints, which
// is the capability the SMT path buys).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "checkers/semantic.hpp"
#include "core/running_example.hpp"
#include "dts/parser.hpp"

using namespace llhsc;

namespace {

smt::Backend backend_of(int64_t i) {
  return i == 0 ? smt::Backend::kBuiltin : smt::Backend::kZ3;
}

// Paper fixed point: detect the §I-A clash in the faulty CustomSBC.
void BM_RunningExampleClash(benchmark::State& state) {
  support::DiagnosticEngine diags;
  dts::SourceManager sm = core::running_example_sources();
  auto tree = dts::parse_dts(core::running_example_core_dts_with_uart_clash(),
                             "clash.dts", sm, diags);
  size_t overlaps = 0;
  for (auto _ : state) {
    checkers::SemanticChecker checker(backend_of(state.range(0)));
    checkers::Findings f = checker.check(*tree);
    overlaps = 0;
    for (const auto& finding : f) {
      if (finding.kind == checkers::FindingKind::kAddressOverlap) ++overlaps;
    }
  }
  state.counters["overlaps"] = static_cast<double>(overlaps);
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(0)))));
}
BENCHMARK(BM_RunningExampleClash)->Arg(0)->Arg(1);

// Sweep: disjoint regions (all-UNSAT workload), region count on x-axis.
// plan=false pins the exhaustive one-query-per-pair path this sweep has
// always measured.
void BM_OverlapCheckDisjoint(benchmark::State& state) {
  auto regions =
      benchgen::synthetic_regions(static_cast<int>(state.range(0)), false);
  checkers::SemanticOptions opts;
  opts.plan = false;
  for (auto _ : state) {
    checkers::SemanticChecker checker(backend_of(state.range(1)), opts);
    benchmark::DoNotOptimize(checker.check_regions(regions));
  }
  state.counters["regions"] = static_cast<double>(regions.size());
  state.counters["pairs"] =
      static_cast<double>(regions.size() * (regions.size() - 1) / 2);
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(1)))));
}
BENCHMARK(BM_OverlapCheckDisjoint)
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({32, 0})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({32, 1});

// Ablation baseline: interval arithmetic (no SMT, no witnesses).
void BM_OverlapCheckIntervalBaseline(benchmark::State& state) {
  auto regions =
      benchgen::synthetic_regions(static_cast<int>(state.range(0)), false);
  size_t overlaps = 0;
  for (auto _ : state) {
    overlaps = 0;
    for (size_t i = 0; i < regions.size(); ++i) {
      for (size_t j = i + 1; j < regions.size(); ++j) {
        if (regions[i].base < regions[j].base + regions[j].size &&
            regions[j].base < regions[i].base + regions[i].size) {
          ++overlaps;
        }
      }
    }
    benchmark::DoNotOptimize(overlaps);
  }
  state.counters["regions"] = static_cast<double>(regions.size());
  state.SetLabel("interval-baseline");
}
BENCHMARK(BM_OverlapCheckIntervalBaseline)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Address-width sweep (bit-blasting cost grows with width; Z3 less so).
void BM_OverlapCheckWidth(benchmark::State& state) {
  auto regions = benchgen::synthetic_regions(8, true);
  checkers::SemanticOptions opts;
  opts.plan = false;  // keep measuring the per-pair encoding cost
  opts.address_bits = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    checkers::SemanticChecker checker(backend_of(state.range(1)), opts);
    benchmark::DoNotOptimize(checker.check_regions(regions));
  }
  state.counters["bits"] = static_cast<double>(state.range(0));
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(1)))));
}
BENCHMARK(BM_OverlapCheckWidth)
    ->Args({32, 0})
    ->Args({48, 0})
    ->Args({64, 0})
    ->Args({32, 1})
    ->Args({48, 1})
    ->Args({64, 1});

// Whole-tree check (extraction + interrupts + overlaps) on synthetic SBCs.
void BM_SemanticWholeTree(benchmark::State& state) {
  auto tree = benchgen::synthetic_tree(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)));
  for (auto _ : state) {
    checkers::SemanticChecker checker(backend_of(state.range(2)));
    benchmark::DoNotOptimize(checker.check(*tree));
  }
  state.counters["banks"] = static_cast<double>(state.range(0));
  state.counters["devices"] = static_cast<double>(state.range(1));
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(2)))));
}
BENCHMARK(BM_SemanticWholeTree)
    ->Args({2, 8, 0})
    ->Args({4, 16, 0})
    ->Args({2, 8, 1})
    ->Args({4, 16, 1});

}  // namespace

BENCHMARK_MAIN();
