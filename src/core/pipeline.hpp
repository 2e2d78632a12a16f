// The llhsc pipeline — the Fig. 2 workflow. Inputs: a feature model with
// exclusive resources, a DTS product line (core + deltas), binding schemas,
// and one feature configuration per VM. Stages:
//
//   1. resource-allocation check (§IV-A) of the VM configurations
//   2. delta activation/ordering/application -> one DTS per VM, plus the
//      platform DTS derived from the union of VM selections (§III-A)
//   3-4. the checker battery (checkers/battery.hpp) on every generated DTS:
//      lint, crossref, graph, syntactic (§IV-B), semantic (§IV-C)
//   5. artifact emission: DTS text, DTB blobs, Bao platform + VM config C
//   6. the cross-unit graph analysis over the VM device graphs
//
// Every finding carries delta provenance, so a failing product names the
// delta module that caused it.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baogen/baogen.hpp"
#include "checkers/battery.hpp"
#include "checkers/finding.hpp"
#include "checkers/resource_allocation.hpp"
#include "core/trace.hpp"
#include "delta/delta.hpp"
#include "feature/analysis.hpp"
#include "obs/obs.hpp"
#include "schema/schema.hpp"

namespace llhsc::core {

struct VmSpec {
  std::string name;
  std::set<std::string> features;
};

struct PipelineOptions {
  /// The checker battery run on every generated DTS, platform included.
  /// Its graph toggle also gates the cross-unit analysis over VM graphs.
  checkers::BatteryOptions checks;
  bool check_allocation = true;
  /// Emit DTB blobs for every generated DTS.
  bool emit_dtb = true;
  /// Worker threads for the per-VM stages 2-5 (1 = serial, 0 = one per
  /// hardware thread). Every VM is an independent work unit with its own
  /// solver and diagnostics; results merge in VM declaration order, so
  /// findings, diagnostics and artifacts are byte-identical for any value.
  unsigned jobs = 1;
};

struct GeneratedVm {
  std::string name;
  std::unique_ptr<dts::Tree> tree;
  std::string dts_text;
  std::vector<uint8_t> dtb;
  baogen::VmConfig config;
  /// §V: the QEMU invocation equivalent to this VM's configuration.
  std::string qemu_command;
};

struct PipelineResult {
  bool ok = false;
  checkers::Findings findings;
  support::DiagnosticEngine diagnostics;
  /// Per-stage wall time / solver checks / finding counts: one reduction of
  /// `events`, rendered by --trace-json and --verbose.
  PipelineTrace trace;
  /// The raw obs event stream the trace was reduced from: stage spans,
  /// per-query solver/planner spans, cache counters. Ordered allocation
  /// first, then per unit in declaration order. Feeds `--profile`
  /// (obs::chrome_trace_json); empty when span capture is disabled.
  std::vector<obs::Event> events;

  std::vector<GeneratedVm> vms;
  std::unique_ptr<dts::Tree> platform_tree;
  std::string platform_dts_text;
  std::vector<uint8_t> platform_dtb;

  baogen::PlatformConfig platform_config;
  std::string platform_config_c;   // Listing 3
  std::string vm_config_c;         // Listing 6

  [[nodiscard]] size_t error_count() const {
    return checkers::error_count(findings) + diagnostics.error_count();
  }
};

class Pipeline {
 public:
  Pipeline(const feature::FeatureModel& model,
           std::vector<feature::FeatureId> exclusive,
           const delta::ProductLine& product_line,
           const schema::SchemaSet& schemas, PipelineOptions options = {});

  /// Runs the full workflow for the given VM configurations.
  [[nodiscard]] PipelineResult run(const std::vector<VmSpec>& vms);

 private:
  const feature::FeatureModel* model_;
  std::vector<feature::FeatureId> exclusive_;
  const delta::ProductLine* product_line_;
  const schema::SchemaSet* schemas_;
  PipelineOptions options_;
};

}  // namespace llhsc::core
