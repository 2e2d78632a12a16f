// Cross-route oracle: a unit's findings are the same whichever route
// produced them — the Fig. 2 pipeline (`llhsc demo`), a one-shot check of
// the unit's printed DTS (`llhsc check`, llhscd), or a daemon session over
// the product line. All three call the one checker battery, so they must
// agree per unit on (rule id, subject, other, severity). Locations and
// delta provenance are excluded: the check route re-parses printed text.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "api/llhsc.hpp"
#include "core/pipeline.hpp"
#include "core/running_example.hpp"
#include "schema/builtin_schemas.hpp"
#include "support/json.hpp"

namespace llhsc {
namespace {

using Key = std::tuple<std::string, std::string, std::string, std::string>;
using UnitFindings = std::map<std::string, std::vector<Key>>;

/// Splits the pipeline's merged findings into units using the trace: rows
/// arrive in merge order and each carries its stage's finding count.
UnitFindings pipeline_units(const core::PipelineResult& result) {
  UnitFindings out;
  size_t next = 0;
  for (const obs::StageSummary& row : result.trace.summary.stages) {
    for (size_t i = 0; i < row.findings; ++i) {
      const checkers::Finding& f = result.findings.at(next++);
      out[row.unit].emplace_back(
          std::string(f.rule_id()), f.subject, f.other_subject,
          f.severity == checkers::FindingSeverity::kError ? "error"
                                                          : "warning");
    }
  }
  EXPECT_EQ(next, result.findings.size()) << "trace rows must cover findings";
  return out;
}

std::vector<Key> check_route(const std::string& name,
                             const std::string& dts_text) {
  api::CheckRequest request;
  request.path = name + ".dts";
  request.source = dts_text;
  request.format = "json";
  api::CheckResult result = api::run_check(request);
  std::vector<Key> out;
  auto doc = support::Json::parse(result.output);
  if (!doc) {
    ADD_FAILURE() << name << ": " << result.output << result.error_text;
    return out;
  }
  for (const support::Json& f : doc->at("findings").items()) {
    out.emplace_back(f.at("rule").as_string(), f.at("subject").as_string(),
                     f.at("other").as_string(), f.at("severity").as_string());
  }
  return out;
}

/// Parses a session unit report (checkers::render lines):
///   [file:line: ]severity: [rule] subject[ (property 'p')]: message
///   [ [other: o]][ [introduced by delta 'd']]
/// followed by indented "via" lines for flow steps.
std::vector<Key> parse_report(const std::string& report) {
  std::vector<Key> out;
  size_t pos = 0;
  while (pos < report.size()) {
    size_t eol = report.find('\n', pos);
    if (eol == std::string::npos) eol = report.size();
    const std::string line = report.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("    via ", 0) == 0) continue;
    std::string severity = "error";
    size_t tag = line.find("error: [");
    if (tag == std::string::npos) {
      severity = "warning";
      tag = line.find("warning: [");
    }
    if (tag == std::string::npos) {
      ADD_FAILURE() << "unparsed report line: " << line;
      continue;
    }
    const size_t rule_start = line.find('[', tag) + 1;
    const size_t rule_end = line.find("] ", rule_start);
    const size_t subject_start = rule_end + 2;
    const size_t subject_end =
        std::min(line.find(" (property '", subject_start),
                 line.find(": ", subject_start));
    std::string other;
    const size_t other_tag = line.rfind(" [other: ");
    if (other_tag != std::string::npos) {
      // Subjects may carry "[index]", so the tag ends at the delta tag or
      // the end of the line, not at the first ']'.
      const size_t other_start = other_tag + 9;
      size_t other_end = line.find(" [introduced by delta '", other_start);
      if (other_end == std::string::npos) other_end = line.size();
      other = line.substr(other_start, other_end - 1 - other_start);
    }
    out.emplace_back(line.substr(rule_start, rule_end - rule_start),
                     line.substr(subject_start, subject_end - subject_start),
                     other, severity);
  }
  return out;
}

/// Runs the three routes over the paper's two VMs plus the platform and
/// compares them unit by unit. Returns the number of per-unit findings
/// compared, so callers can assert the comparison is not vacuous.
size_t expect_routes_agree(const char* deltas_text,
                           const delta::ProductLine& line) {
  const feature::FeatureModel model = feature::running_example_model();
  const schema::SchemaSet schemas = schema::builtin_schemas();
  const std::vector<core::VmSpec> vms{{"vm1", core::fig1b_features()},
                                      {"vm2", core::fig1c_features()}};
  core::Pipeline pipeline(model, core::exclusive_cpus(model), line, schemas);
  const core::PipelineResult result = pipeline.run(vms);
  UnitFindings by_pipeline = pipeline_units(result);

  api::SessionRequest session;
  session.core_source = core::running_example_core_dts();
  session.core_name = "custom-sbc.dts";
  session.includes = {{"cpus.dtsi", core::running_example_cpus_dtsi()}};
  session.deltas_source = deltas_text;
  session.deltas_name = "custom-sbc.deltas";
  for (const core::VmSpec& vm : vms) {
    session.products.push_back({vm.name, vm.features});
  }
  session.check_platform = true;
  api::CheckStore store;
  const api::SessionResult by_session = api::run_session(session, store);
  EXPECT_EQ(by_session.units.size(), 3u) << by_session.error_text;

  std::map<std::string, std::string> printed;
  for (const core::GeneratedVm& vm : result.vms) printed[vm.name] = vm.dts_text;
  printed["platform"] = result.platform_dts_text;

  size_t compared = 0;
  for (const api::SessionUnitResult& unit : by_session.units) {
    SCOPED_TRACE(unit.name);
    const std::vector<Key>& expected = by_pipeline[unit.name];
    EXPECT_EQ(check_route(unit.name, printed.at(unit.name)), expected);
    EXPECT_EQ(parse_report(unit.report), expected) << unit.report;
    compared += expected.size();
  }
  return compared;
}

TEST(PipelineCrossRoute, RunningExampleUnitsAgree) {
  support::DiagnosticEngine diags;
  auto line = core::running_example_product_line(diags);
  ASSERT_NE(line, nullptr) << diags.render();
  (void)expect_routes_agree(core::running_example_deltas(), *line);
}

// The finding-rich variant: d3 truncates the address width and nothing
// rewrites the memory banks, so the lint and semantic stages report.
TEST(PipelineCrossRoute, WithoutD4UnitsAgree) {
  support::DiagnosticEngine diags;
  auto line = core::running_example_product_line_without_d4(diags);
  ASSERT_NE(line, nullptr) << diags.render();
  std::string deltas = core::running_example_deltas();
  const size_t d4 = deltas.find("delta d4 ");
  ASSERT_NE(d4, std::string::npos);
  deltas.erase(d4, deltas.find("\ndelta ", d4) + 1 - d4);
  EXPECT_GT(expect_routes_agree(deltas.c_str(), *line), 0u);
}

}  // namespace
}  // namespace llhsc
