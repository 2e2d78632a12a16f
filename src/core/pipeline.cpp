#include "core/pipeline.hpp"

#include <chrono>

#include "dts/printer.hpp"
#include "fdt/fdt.hpp"
#include "obs/summary.hpp"
#include "support/thread_pool.hpp"

namespace llhsc::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Everything one worker produces for one tree (a VM, or the platform as the
/// last unit). The battery's findings are deterministic per tree, so the
/// merged report is independent of how the units were scheduled across
/// threads. The unit's obs events (stage spans + solver/planner counters)
/// travel the same way and are reduced into the trace after the merge.
struct UnitResult {
  std::unique_ptr<dts::Tree> tree;
  checkers::Findings findings;
  support::DiagnosticEngine diagnostics;
  std::vector<obs::Event> events;
  /// The unit's device graph, kept past the per-unit stages so the merge
  /// can run the cross-unit exclusive-provider analysis over VM graphs.
  std::shared_ptr<const checkers::graph::DeviceGraph> graph;

  std::string dts_text;
  std::vector<uint8_t> dtb;
  baogen::VmConfig config;
  std::string qemu_command;
  baogen::PlatformConfig platform_config;
  std::string platform_config_c;
};

}  // namespace

Pipeline::Pipeline(const feature::FeatureModel& model,
                   std::vector<feature::FeatureId> exclusive,
                   const delta::ProductLine& product_line,
                   const schema::SchemaSet& schemas, PipelineOptions options)
    : model_(&model),
      exclusive_(std::move(exclusive)),
      product_line_(&product_line),
      schemas_(&schemas),
      options_(options) {}

PipelineResult Pipeline::run(const std::vector<VmSpec>& vms) {
  const Clock::time_point run_start = Clock::now();
  PipelineResult result;
  const unsigned jobs = support::ThreadPool::resolve_jobs(options_.jobs);
  result.trace.jobs = jobs;

  // -- Stage 1: resource allocation (§IV-A) --
  // Inherently global (exclusivity reasons across every VM at once), so it
  // runs serially before the per-VM units fan out. Its events lead the
  // merged stream.
  if (options_.check_allocation) {
    obs::TraceSink alloc_sink;
    {
      obs::ScopedSink sink_guard(&alloc_sink);
      obs::ScopedUnit unit_guard("*");
      obs::ScopedScope scope_guard("allocation");
      obs::Span span("stage.allocation", "stage");
      checkers::ResourceAllocationChecker rac(*model_, exclusive_,
                                              options_.checks.backend);
      std::vector<std::set<std::string>> features;
      features.reserve(vms.size());
      for (const VmSpec& vm : vms) features.push_back(vm.features);
      checkers::Findings alloc = rac.check(features);
      checkers::sort_by_location(alloc);
      obs::count("stage.findings", "stage",
                 static_cast<int64_t>(alloc.size()));
      result.findings.insert(result.findings.end(), alloc.begin(),
                             alloc.end());
    }
    result.events = alloc_sink.take();
  }

  // -- Stages 2-5 as independent work units: one per VM, platform last --
  std::set<std::string> platform_features;
  for (const VmSpec& vm : vms) {
    platform_features.insert(vm.features.begin(), vm.features.end());
  }

  const size_t unit_count = vms.size() + 1;
  std::vector<UnitResult> units(unit_count);

  // The stage logic for one unit. Stage identities and counters are
  // recorded as obs events into the ambient (per-unit) sink.
  auto unit_body = [&](size_t idx, UnitResult& u, bool is_platform) {
    // Stage 2: delta application (§III-B).
    {
      obs::ScopedScope scope_guard("derive");
      obs::Span span("stage.derive", "stage");
      u.tree = product_line_->derive(
          is_platform ? platform_features : vms[idx].features, u.diagnostics);
    }
    if (u.tree == nullptr) return;

    // Stages 3-4: the checker battery.
    u.findings =
        checkers::run_battery(*u.tree, *schemas_, options_.checks, &u.graph);

    // Stage 5: artifact emission.
    {
      obs::ScopedScope scope_guard("emit");
      obs::Span span("stage.emit", "stage");
      u.dts_text = dts::print_dts(*u.tree);
      if (options_.emit_dtb) {
        if (auto blob = fdt::emit(*u.tree, u.diagnostics)) {
          u.dtb = std::move(*blob);
        }
      }
      if (is_platform) {
        u.platform_config = baogen::extract_platform(*u.tree, u.diagnostics);
        u.platform_config_c = baogen::render_platform_c(u.platform_config);
      } else {
        u.config = baogen::extract_vm(*u.tree, vms[idx].name, u.diagnostics);
        baogen::QemuOptions qemu;
        qemu.kernel_image = vms[idx].name + "image.bin";
        qemu.dtb_path = vms[idx].name + ".dtb";
        u.qemu_command = baogen::render_qemu_command(u.config, qemu);
      }
    }
  };

  auto run_unit = [&](size_t idx) {
    UnitResult& u = units[idx];
    const bool is_platform = idx == vms.size();
    const std::string unit_name = is_platform ? "platform" : vms[idx].name;
    // One sink per unit: events from concurrent units never interleave, and
    // the merge below orders them by declaration index, so the trace is as
    // deterministic as the findings.
    obs::TraceSink unit_sink;
    {
      obs::ScopedSink sink_guard(&unit_sink);
      obs::ScopedUnit unit_guard(unit_name);
      unit_body(idx, u, is_platform);
    }
    u.events = unit_sink.take();
  };

  if (jobs <= 1) {
    for (size_t idx = 0; idx < unit_count; ++idx) run_unit(idx);
  } else {
    support::ThreadPool pool(jobs);
    support::parallel_for(pool, unit_count, run_unit);
  }

  // -- Deterministic merge in VM declaration order (platform last) --
  for (size_t idx = 0; idx < unit_count; ++idx) {
    UnitResult& u = units[idx];
    result.findings.insert(result.findings.end(), u.findings.begin(),
                           u.findings.end());
    result.diagnostics.merge(u.diagnostics);
    result.events.insert(result.events.end(),
                         std::make_move_iterator(u.events.begin()),
                         std::make_move_iterator(u.events.end()));
    if (u.tree == nullptr) continue;
    if (idx == vms.size()) {
      result.platform_tree = std::move(u.tree);
      result.platform_dts_text = std::move(u.dts_text);
      result.platform_dtb = std::move(u.dtb);
      result.platform_config = std::move(u.platform_config);
      result.platform_config_c = std::move(u.platform_config_c);
    } else {
      GeneratedVm gen;
      gen.name = vms[idx].name;
      gen.tree = std::move(u.tree);
      gen.dts_text = std::move(u.dts_text);
      gen.dtb = std::move(u.dtb);
      gen.config = std::move(u.config);
      gen.qemu_command = std::move(u.qemu_command);
      result.vms.push_back(std::move(gen));
    }
  }

  // -- Stage 6: cross-unit graph analysis over the VM graphs (platform
  // excluded). Serial by design, after the deterministic merge: its findings
  // always follow every unit's, regardless of --jobs.
  std::vector<checkers::graph::UnitGraph> vm_graphs;
  for (size_t idx = 0; idx < vms.size(); ++idx) {
    if (units[idx].graph != nullptr) {
      vm_graphs.push_back({vms[idx].name, units[idx].graph.get()});
    }
  }
  if (vm_graphs.size() >= 2) {
    obs::TraceSink cross_sink;
    {
      obs::ScopedSink sink_guard(&cross_sink);
      obs::ScopedUnit unit_guard("*");
      checkers::Findings cross = checkers::run_cross_unit(vm_graphs);
      result.findings.insert(result.findings.end(), cross.begin(),
                             cross.end());
    }
    std::vector<obs::Event> cross_events = cross_sink.take();
    result.events.insert(result.events.end(),
                         std::make_move_iterator(cross_events.begin()),
                         std::make_move_iterator(cross_events.end()));
  }

  std::vector<baogen::VmConfig> vm_configs;
  vm_configs.reserve(result.vms.size());
  for (const GeneratedVm& vm : result.vms) vm_configs.push_back(vm.config);
  result.vm_config_c = baogen::render_config_c(
      baogen::assemble_config(std::move(vm_configs)));

  result.trace.summary = obs::reduce(result.events);
  result.trace.total_ms = ms_since(run_start);
  result.ok = result.error_count() == 0;
  return result;
}

}  // namespace llhsc::core
