// E10 — the full Fig. 2 workflow on the paper's two-VM configuration: all
// three checkers plus artifact generation, per backend, and a stage
// breakdown (allocation / generation / syntax / semantics toggled off
// individually).
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "core/running_example.hpp"
#include "feature/analysis.hpp"
#include "schema/builtin_schemas.hpp"

using namespace llhsc;

namespace {

smt::Backend backend_of(int64_t i) {
  return i == 0 ? smt::Backend::kBuiltin : smt::Backend::kZ3;
}

struct Fixture {
  feature::FeatureModel model = feature::running_example_model();
  schema::SchemaSet schemas = schema::builtin_schemas();
  support::DiagnosticEngine diags;
  std::unique_ptr<delta::ProductLine> pl =
      core::running_example_product_line(diags);
  std::vector<core::VmSpec> vms{{"vm1", core::fig1b_features()},
                                {"vm2", core::fig1c_features()}};
};

void BM_FullPipeline(benchmark::State& state) {
  Fixture fx;
  core::PipelineOptions opts;
  opts.checks.backend = backend_of(state.range(0));
  bool ok = false;
  for (auto _ : state) {
    core::Pipeline pipeline(fx.model, core::exclusive_cpus(fx.model), *fx.pl,
                            fx.schemas, opts);
    core::PipelineResult result = pipeline.run(fx.vms);
    ok = result.ok;
    benchmark::DoNotOptimize(result);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(0)))));
}
BENCHMARK(BM_FullPipeline)->Arg(0)->Arg(1);

// Stage ablation: each stage disabled in turn (builtin backend).
void BM_PipelineStageAblation(benchmark::State& state) {
  Fixture fx;
  core::PipelineOptions opts;
  const char* label = "all-stages";
  switch (state.range(0)) {
    case 1: opts.check_allocation = false; label = "no-allocation"; break;
    case 2: opts.checks.syntax = false; label = "no-syntax"; break;
    case 3: opts.checks.semantics = false; label = "no-semantics"; break;
    case 4: opts.emit_dtb = false; label = "no-dtb"; break;
    default: break;
  }
  for (auto _ : state) {
    core::Pipeline pipeline(fx.model, core::exclusive_cpus(fx.model), *fx.pl,
                            fx.schemas, opts);
    benchmark::DoNotOptimize(pipeline.run(fx.vms));
  }
  state.SetLabel(label);
}
BENCHMARK(BM_PipelineStageAblation)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Serial vs parallel scaling: the two-VM example widened to eight VMs
// (alternating Fig. 1b / Fig. 1c configurations) so there is enough per-VM
// work to amortise across the pool. Allocation is disabled because eight
// VMs deliberately reuse the two-VM example's exclusive CPUs. Real time is
// what matters here, not aggregate CPU time.
void BM_PipelineParallel(benchmark::State& state) {
  Fixture fx;
  std::vector<core::VmSpec> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back({"vm" + std::to_string(i + 1),
                   i % 2 == 0 ? core::fig1b_features()
                              : core::fig1c_features()});
  }
  core::PipelineOptions opts;
  opts.check_allocation = false;
  opts.jobs = static_cast<unsigned>(state.range(0));
  bool ok = false;
  for (auto _ : state) {
    core::Pipeline pipeline(fx.model, core::exclusive_cpus(fx.model), *fx.pl,
                            fx.schemas, opts);
    core::PipelineResult result = pipeline.run(vms);
    ok = result.ok;
    benchmark::DoNotOptimize(result);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel("jobs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PipelineParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Failure path: the omitted-d4 configuration (checkers find the collisions).
void BM_PipelineFaultDetection(benchmark::State& state) {
  feature::FeatureModel model = feature::running_example_model();
  schema::SchemaSet schemas = schema::builtin_schemas();
  support::DiagnosticEngine diags;
  auto pl = core::running_example_product_line_without_d4(diags);
  std::vector<core::VmSpec> vms{{"vm1", core::fig1b_features()},
                                {"vm2", core::fig1c_features()}};
  core::PipelineOptions opts;
  opts.checks.backend = backend_of(state.range(0));
  size_t findings = 0;
  for (auto _ : state) {
    core::Pipeline pipeline(model, core::exclusive_cpus(model), *pl, schemas,
                            opts);
    core::PipelineResult result = pipeline.run(vms);
    findings = result.findings.size();
  }
  state.counters["findings"] = static_cast<double>(findings);
  state.SetLabel(std::string(smt::to_string(backend_of(state.range(0)))));
}
BENCHMARK(BM_PipelineFaultDetection)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
