#include "core/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "support/json.hpp"

namespace llhsc::core {

namespace {

std::string format_ms(double ms) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << ms;
  return os.str();
}

/// The document's run-wide totals: (JSON key, counter name).
constexpr std::pair<const char*, const char*> kTotals[] = {
    {"solver_checks", "solver.checks"},
    {"queries_issued", "planner.queries_issued"},
    {"queries_pruned", "planner.queries_pruned"},
    {"cache_hits", "planner.cache_hits"},
    {"cache_errors", "planner.cache_errors"},
    {"findings", "stage.findings"},
};

/// Run-wide total of one counter. Every counter of a pipeline run is
/// recorded under some stage's scope, so this equals the sum of the rows.
uint64_t total(const obs::Summary& summary, std::string_view name) {
  const int64_t v = summary.counter(name);
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

}  // namespace

std::string PipelineTrace::to_json() const {
  using support::Json;
  Json doc = Json::object();
  doc.set("schema_version", Json::integer(2));
  doc.set("jobs", Json::unsigned_integer(jobs));
  doc.set("total_ms", Json::number(total_ms));
  for (const auto& [key, counter] : kTotals) {
    doc.set(key, Json::unsigned_integer(total(summary, counter)));
  }
  Json stage_rows = Json::array();
  for (const obs::StageSummary& s : summary.stages) {
    Json row = Json::object();
    row.set("unit", Json::string(s.unit));
    row.set("stage", Json::string(s.stage));
    row.set("wall_ms", Json::number(s.wall_ms));
    row.set("solver_checks", Json::unsigned_integer(s.solver_checks));
    row.set("queries_issued", Json::unsigned_integer(s.queries_issued));
    row.set("queries_pruned", Json::unsigned_integer(s.queries_pruned));
    row.set("cache_hits", Json::unsigned_integer(s.cache_hits));
    row.set("cache_errors", Json::unsigned_integer(s.cache_errors));
    row.set("findings", Json::unsigned_integer(s.findings));
    stage_rows.push(std::move(row));
  }
  doc.set("stages", std::move(stage_rows));
  return doc.dump(Json::Style::kPretty) + "\n";
}

std::string PipelineTrace::render_table() const {
  size_t unit_w = 4, stage_w = 5;
  for (const obs::StageSummary& s : summary.stages) {
    unit_w = std::max(unit_w, s.unit.size());
    stage_w = std::max(stage_w, s.stage.size());
  }
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(unit_w)) << "unit" << "  "
     << std::setw(static_cast<int>(stage_w)) << "stage" << "  "
     << std::right << std::setw(10) << "wall_ms" << "  " << std::setw(7)
     << "checks" << "  " << std::setw(7) << "issued" << "  " << std::setw(7)
     << "pruned" << "  " << std::setw(7) << "cached" << "  " << std::setw(8)
     << "findings" << '\n';
  for (const obs::StageSummary& s : summary.stages) {
    os << std::left << std::setw(static_cast<int>(unit_w)) << s.unit << "  "
       << std::setw(static_cast<int>(stage_w)) << s.stage << "  "
       << std::right << std::setw(10) << format_ms(s.wall_ms) << "  "
       << std::setw(7) << s.solver_checks << "  " << std::setw(7)
       << s.queries_issued << "  " << std::setw(7) << s.queries_pruned
       << "  " << std::setw(7) << s.cache_hits << "  " << std::setw(8)
       << s.findings << '\n';
  }
  os << "total " << format_ms(total_ms) << " ms, "
     << total(summary, "solver.checks") << " solver checks, "
     << total(summary, "planner.queries_issued") << " issued, "
     << total(summary, "planner.queries_pruned") << " pruned, "
     << total(summary, "planner.cache_hits") << " cache hits, ";
  if (const uint64_t errors = total(summary, "planner.cache_errors")) {
    os << errors << " cache errors, ";
  }
  os << total(summary, "stage.findings") << " findings, jobs=" << jobs
     << '\n';
  return os.str();
}

}  // namespace llhsc::core
