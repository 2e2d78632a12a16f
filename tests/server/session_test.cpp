#include "server/session.hpp"

#include <gtest/gtest.h>

namespace llhsc::server {
namespace {

constexpr const char* kCore = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";

constexpr const char* kDeltas =
    "delta da when fa {\n"
    "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
    "}\n"
    "delta db when fb {\n"
    "    modifies memory@40000000 { status = \"okay\"; }\n"
    "}\n";

SessionRequest base_request() {
  SessionRequest r;
  r.core_source = kCore;
  r.core_name = "core.dts";
  r.deltas_source = kDeltas;
  r.deltas_name = "t.deltas";
  r.products.push_back({"pa", {"fa"}});
  r.products.push_back({"pb", {"fb"}});
  return r;
}

TEST(Session, ColdRunChecksEveryProduct) {
  ArtifactStore store;
  SessionOutcome out = run_session_check(base_request(), store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_EQ(out.units[0].name, "pa");
  EXPECT_EQ(out.units[1].name, "pb");
  EXPECT_FALSE(out.units[0].composed_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 1u);
  EXPECT_EQ(out.cost.delta_parses, 1u);
  EXPECT_EQ(out.cost.product_line_builds, 1u);
  EXPECT_EQ(out.cost.derives, 2u);
  EXPECT_EQ(out.cost.unit_checks, 2u);
}

TEST(Session, WarmRunIsAllHits) {
  ArtifactStore store;
  (void)run_session_check(base_request(), store);
  SessionOutcome out = run_session_check(base_request(), store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_TRUE(out.units[0].composed_cache_hit);
  EXPECT_TRUE(out.units[0].check_cache_hit);
  EXPECT_TRUE(out.units[1].composed_cache_hit);
  EXPECT_TRUE(out.units[1].check_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 0u);
  EXPECT_EQ(out.cost.delta_parses, 0u);
  EXPECT_EQ(out.cost.derives, 0u);
  EXPECT_EQ(out.cost.unit_checks, 0u);
}

TEST(Session, EditingOneModuleRechecksOnlyItsProduct) {
  ArtifactStore store;
  (void)run_session_check(base_request(), store);

  // Edit db's body: pb must re-derive and re-check, pa must stay cached.
  SessionRequest edited = base_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"disabled\"; }\n"
      "}\n";
  SessionOutcome out = run_session_check(edited, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_TRUE(out.units[0].composed_cache_hit) << "pa does not activate db";
  EXPECT_TRUE(out.units[0].check_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_FALSE(out.units[1].check_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 0u) << "core text unchanged";
  EXPECT_EQ(out.cost.delta_parses, 1u);
  EXPECT_EQ(out.cost.derives, 1u) << "only pb's composed tree rebuilds";
  EXPECT_EQ(out.cost.unit_checks, 1u);
}

TEST(Session, IncludeEditRebuildsEveryUnit) {
  // The same nodes as kCore, but loaded through a .dtsi — the core's main
  // text never changes in this test, only the include's content.
  constexpr const char* kSocV1 = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";
  ArtifactStore store;
  SessionRequest request = base_request();
  request.core_source = "/dts-v1/;\n/include/ \"soc.dtsi\"\n";
  request.includes.emplace_back("soc.dtsi", kSocV1);
  SessionOutcome cold = run_session_check(request, store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  EXPECT_EQ(cold.cost.derives, 2u);

  SessionOutcome warm = run_session_check(request, store);
  EXPECT_EQ(warm.cost.tree_parses, 0u);
  EXPECT_EQ(warm.cost.derives, 0u) << "unchanged include must stay cached";

  // Edit only the .dtsi: the core's effective key changes, so the product
  // line, every composed tree, and every verdict must rebuild — a cached
  // unit check here would be a verdict over the old include content.
  SessionRequest edited = request;
  edited.includes[0].second = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x2000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";
  SessionOutcome out = run_session_check(edited, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_FALSE(out.units[0].composed_cache_hit);
  EXPECT_FALSE(out.units[0].check_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_FALSE(out.units[1].check_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 1u);
  EXPECT_EQ(out.cost.delta_parses, 0u) << "delta text unchanged";
  EXPECT_EQ(out.cost.product_line_builds, 1u) << "wraps the new core tree";
  EXPECT_EQ(out.cost.derives, 2u);
  EXPECT_EQ(out.cost.unit_checks, 2u);
}

TEST(Session, GraphArtifactsRederiveOnlyForEditedUnits) {
  ArtifactStore store;
  SessionOutcome cold = run_session_check(base_request(), store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  EXPECT_EQ(cold.cost.graph_builds, 2u) << "one device graph per product";
  EXPECT_EQ(cold.cost.cross_checks, 1u);

  SessionOutcome warm = run_session_check(base_request(), store);
  EXPECT_EQ(warm.cost.graph_builds, 0u) << "unchanged trees, cached graphs";
  EXPECT_EQ(warm.cost.cross_checks, 0u);

  // One-delta edit: only pb's composed tree changes, so only pb's graph
  // artifact re-derives; the cross-unit verdict keys on both graphs and
  // must re-run exactly once.
  SessionRequest edited = base_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"disabled\"; }\n"
      "}\n";
  SessionOutcome out = run_session_check(edited, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.cost.derives, 1u);
  EXPECT_EQ(out.cost.graph_builds, 1u) << "only pb's graph rebuilds";
  EXPECT_EQ(out.cost.cross_checks, 1u);
}

TEST(Session, GraphDisabledBuildsNoGraphArtifacts) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.graph = false;
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.cost.graph_builds, 0u);
  EXPECT_EQ(out.cost.cross_checks, 0u);
}

TEST(Session, CrossUnitConflictSurfacesAsGraphUnit) {
  // Both products keep the same enabled uart claiming the same clock
  // provider — the cross-unit exclusive-provider rule must report, as a
  // synthetic "*graph*" unit after the per-product units.
  constexpr const char* kClockedCore = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    clk: clock-controller@10000000 {
        reg = <0x10000000 0x1000>;
        #clock-cells = <0>;
    };
    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x20000000 0x1000>;
        clocks = <&clk>;
    };
};
)";
  ArtifactStore store;
  SessionRequest request = base_request();
  request.core_source = kClockedCore;
  request.lint = false;
  request.syntax = false;
  request.semantics = false;
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 1);
  ASSERT_GE(out.units.size(), 3u);
  const SessionUnitResult& cross = out.units.back();
  EXPECT_EQ(cross.name, "*graph*");
  EXPECT_EQ(cross.errors, 1u);
  EXPECT_NE(cross.report.find("graph-exclusive-provider"), std::string::npos)
      << cross.report;
  EXPECT_NE(cross.report.find("'pa' and unit 'pb'"), std::string::npos)
      << cross.report;

  // The conflict verdict itself is cached: a warm rerun reports it again
  // without re-running the analysis.
  SessionOutcome warm = run_session_check(request, store);
  EXPECT_EQ(warm.exit_code, 1);
  EXPECT_EQ(warm.cost.cross_checks, 0u);
  EXPECT_EQ(warm.units.back().name, "*graph*");
  EXPECT_TRUE(warm.units.back().check_cache_hit);
}

TEST(Session, PlatformUnitIsUnionOfSelections) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.check_platform = true;
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 3u);
  EXPECT_EQ(out.units.back().name, "platform");
  // The platform activates both modules, so its composed tree is distinct
  // from both products': three derives.
  EXPECT_EQ(out.cost.derives, 3u);
}

TEST(Session, CoreParseErrorRejectsRequest) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.core_source = "/dts-v1/;\n/ { broken";
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 1);
  EXPECT_FALSE(out.error_text.empty());
  EXPECT_TRUE(out.units.empty());
}

TEST(Session, AllocationRequiresModel) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.check_allocation = true;
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.error_text.find("feature model"), std::string::npos);
}

// An unknown backend falls back to builtin with the exact warning text the
// one-shot check prints, instead of switching silently.
TEST(Session, UnknownBackendWarnsLikeCheck) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.backend = "bogus";
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.error_text,
            "warning: unknown backend 'bogus', using builtin\n");
  EXPECT_EQ(out.units.size(), 2u);

  CheckRequest check;
  check.path = "core.dts";
  check.source = kCore;
  check.backend = "bogus";
  EXPECT_EQ(run_check(check, nullptr).error_text, out.error_text);
}

constexpr const char* kLiftedModel =
    "model T {\n"
    "  fa;\n"
    "  fb;\n"
    "}\n";

SessionRequest lifted_request() {
  SessionRequest r = base_request();
  r.products.clear();
  r.model_source = kLiftedModel;
  r.model_name = "t.fm";
  r.check_lifted = true;
  return r;
}

TEST(SessionLifted, RequiresModel) {
  ArtifactStore store;
  SessionRequest request = base_request();
  request.check_lifted = true;
  SessionOutcome out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.error_text.find("feature model"), std::string::npos);
}

TEST(SessionLifted, FamilyVerdictIsOneCachedUnit) {
  ArtifactStore store;
  SessionOutcome cold = run_session_check(lifted_request(), store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  ASSERT_EQ(cold.units.size(), 1u);
  EXPECT_EQ(cold.units[0].name, "*lifted*");
  EXPECT_FALSE(cold.units[0].check_cache_hit);
  EXPECT_EQ(cold.cost.lifted_checks, 1u);
  // No product is ever derived or individually checked.
  EXPECT_EQ(cold.cost.derives, 0u);
  EXPECT_EQ(cold.cost.unit_checks, 0u);

  SessionOutcome warm = run_session_check(lifted_request(), store);
  ASSERT_EQ(warm.units.size(), 1u);
  EXPECT_TRUE(warm.units[0].check_cache_hit);
  EXPECT_EQ(warm.cost.lifted_checks, 0u);
}

TEST(SessionLifted, EditingAnyDeltaInvalidatesTheFamilyVerdict) {
  ArtifactStore store;
  (void)run_session_check(lifted_request(), store);
  SessionRequest edited = lifted_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <2000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"okay\"; }\n"
      "}\n";
  SessionOutcome out = run_session_check(edited, store);
  ASSERT_EQ(out.units.size(), 1u);
  EXPECT_FALSE(out.units[0].check_cache_hit);
  EXPECT_EQ(out.cost.lifted_checks, 1u);
}

}  // namespace
}  // namespace llhsc::server
