// Feature-model analyses, parameterized over both solver backends. E1: the
// running example (paper Fig. 1a) has exactly 12 valid products.
#include "feature/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <type_traits>

namespace llhsc::feature {
namespace {

class AnalysisTest : public ::testing::TestWithParam<smt::Backend> {
 protected:
  smt::Solver make_solver() { return smt::Solver(GetParam()); }
};

TEST_P(AnalysisTest, TrivialModelHasOneProduct) {
  FeatureModel m;
  m.add_root("r");
  smt::Solver solver(GetParam());
  EXPECT_FALSE(is_void(m, solver));
  EXPECT_EQ(count_products(m, solver), 1u);
}

TEST_P(AnalysisTest, OptionalFeaturesDoubleProducts) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  m.add_feature(root, "a");
  m.add_feature(root, "b");
  m.add_feature(root, "c");
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 8u);
}

TEST_P(AnalysisTest, MandatoryFeatureDoesNotMultiply) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  m.add_feature(root, "must", true);
  m.add_feature(root, "may");
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 2u);
}

TEST_P(AnalysisTest, LargeXorGroupCounts) {
  // Exceeds the pairwise at-most-one limit, exercising the sequential
  // encoding inside a feature model.
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g", true);
  m.set_group(g, GroupKind::kXor);
  constexpr int kChildren = 12;
  for (int i = 0; i < kChildren; ++i) {
    m.add_feature(g, "x" + std::to_string(i));
  }
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), static_cast<uint64_t>(kChildren));
}

TEST_P(AnalysisTest, CardinalityGroupCounts) {
  // [2..3] over 4 children: C(4,2) + C(4,3) = 6 + 4 = 10 products.
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g", true);
  m.set_group_cardinality(g, 2, 3);
  for (int i = 0; i < 4; ++i) m.add_feature(g, "x" + std::to_string(i));
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 10u);
}

TEST_P(AnalysisTest, CardinalityGroupBruteForce) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g");  // optional parent
  m.set_group_cardinality(g, 1, 2);
  for (int i = 0; i < 5; ++i) m.add_feature(g, "x" + std::to_string(i));
  uint64_t brute = 0;
  for (uint32_t mask = 0; mask < (1u << m.size()); ++mask) {
    Selection sel(m.size());
    for (uint32_t i = 0; i < m.size(); ++i) sel[i] = (mask >> i) & 1;
    if (m.is_consistent_selection(sel)) ++brute;
  }
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), brute);
  // parent absent (1) + parent with 1..2 of 5 children (5 + 10).
  EXPECT_EQ(brute, 16u);
}

TEST_P(AnalysisTest, XorGroupCounts) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g", true);
  m.set_group(g, GroupKind::kXor);
  m.add_feature(g, "x");
  m.add_feature(g, "y");
  m.add_feature(g, "z");
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 3u);
}

TEST_P(AnalysisTest, OrGroupCounts) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g", true);
  m.set_group(g, GroupKind::kOr);
  m.add_feature(g, "x");
  m.add_feature(g, "y");
  m.add_feature(g, "z");
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 7u);  // non-empty subsets of 3
}

TEST_P(AnalysisTest, OptionalGroupParent) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId g = m.add_feature(root, "g");  // optional
  m.set_group(g, GroupKind::kXor);
  m.add_feature(g, "x");
  m.add_feature(g, "y");
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 3u);  // absent, x, y
}

TEST_P(AnalysisTest, VoidModelDetected) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId a = m.add_feature(root, "a", true);
  FeatureId b = m.add_feature(root, "b", true);
  m.add_excludes(a, b);
  smt::Solver solver(GetParam());
  EXPECT_TRUE(is_void(m, solver));
  EXPECT_EQ(count_products(m, solver), 0u);
}

TEST_P(AnalysisTest, DeadFeatures) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId a = m.add_feature(root, "a", true);
  FeatureId dead = m.add_feature(root, "dead");
  m.add_excludes(dead, a);  // dead requires ~a, but a is mandatory
  smt::Solver solver(GetParam());
  auto result = dead_features(m, solver);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], dead);
}

TEST_P(AnalysisTest, CoreFeatures) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  FeatureId a = m.add_feature(root, "a", true);
  FeatureId b = m.add_feature(root, "b");
  FeatureId c = m.add_feature(root, "c");
  m.add_requires(root, c);  // root always selected -> c core
  smt::Solver solver(GetParam());
  auto result = core_features(m, solver);
  // root, a (mandatory), c (required by root).
  EXPECT_EQ(result.size(), 3u);
  EXPECT_TRUE(std::find(result.begin(), result.end(), a) != result.end());
  EXPECT_TRUE(std::find(result.begin(), result.end(), c) != result.end());
  EXPECT_FALSE(std::find(result.begin(), result.end(), b) != result.end());
}

// E1 — paper Fig. 1a: "In this feature model there are 12 valid products".
TEST_P(AnalysisTest, RunningExampleHasTwelveProducts) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver), 12u);
}

TEST_P(AnalysisTest, RunningExampleEnumerationMatchesBruteForce) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  uint64_t solver_count = 0;
  enumerate_products(m, solver, [&](const Selection& sel) {
    EXPECT_TRUE(m.is_consistent_selection(sel))
        << "solver enumerated an inconsistent product";
    ++solver_count;
    return true;
  });
  // Brute force over all 2^11 selections.
  uint64_t brute = 0;
  for (uint32_t mask = 0; mask < (1u << m.size()); ++mask) {
    Selection sel(m.size());
    for (uint32_t i = 0; i < m.size(); ++i) sel[i] = (mask >> i) & 1;
    if (m.is_consistent_selection(sel)) ++brute;
  }
  EXPECT_EQ(solver_count, brute);
  EXPECT_EQ(brute, 12u);
}

TEST_P(AnalysisTest, CappedEnumerationReportsTruncation) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  // 12 products: a cap of 5 is hit with products left over...
  uint64_t streamed = 0;
  bool capped = false;
  uint64_t n = enumerate_products(
      m, solver, [&](const Selection&) { ++streamed; return true; }, 5,
      &capped);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(streamed, 5u);
  EXPECT_TRUE(capped);
  // ...while a cap of exactly 12 drains the family and is NOT flagged.
  capped = true;
  n = enumerate_products(
      m, solver, [&](const Selection&) { return true; }, 12, &capped);
  EXPECT_EQ(n, 12u);
  EXPECT_FALSE(capped);
}

TEST_P(AnalysisTest, RunningExampleCrossConstraintsEnforced) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  // veth0 with cpu@1 is invalid (veth0 requires cpu@0).
  Selection bad(m.size(), false);
  for (const char* name : {"CustomSBC", "memory", "cpus", "cpu@1", "uarts",
                           "uart@20000000", "vEthernet", "veth0"}) {
    bad[m.find(name)->index] = true;
  }
  EXPECT_FALSE(is_valid_product(m, solver, bad));
  // Swap to veth1: valid.
  Selection good = bad;
  good[m.find("veth0")->index] = false;
  good[m.find("veth1")->index] = true;
  EXPECT_TRUE(is_valid_product(m, solver, good));
}

TEST_P(AnalysisTest, RunningExampleHasNoDeadFeatures) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  EXPECT_TRUE(dead_features(m, solver).empty());
}

TEST_P(AnalysisTest, ExplainInvalidProduct) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  // veth0 without cpu@0 — the explanation must involve the participants of
  // the violated cross-constraint (veth0 selected, cpu@0 deselected) or the
  // XOR group that forces the conflict.
  Selection bad(m.size(), false);
  for (const char* name : {"CustomSBC", "memory", "cpus", "cpu@1", "uarts",
                           "uart@20000000", "vEthernet", "veth0"}) {
    bad[m.find(name)->index] = true;
  }
  auto conflict = explain_invalid_product(m, solver, bad);
  ASSERT_FALSE(conflict.empty());
  bool mentions_veth0 = false;
  for (FeatureId f : conflict) {
    if (m.feature(f).name == "veth0") mentions_veth0 = true;
  }
  EXPECT_TRUE(mentions_veth0) << "the core should involve veth0";
  // A valid product explains to nothing.
  Selection good = bad;
  good[m.find("veth0")->index] = false;
  good[m.find("veth1")->index] = true;
  EXPECT_TRUE(explain_invalid_product(m, solver, good).empty());
}

TEST_P(AnalysisTest, FalseOptionalDetection) {
  FeatureModel m;
  FeatureId root = m.add_root("r");
  m.add_feature(root, "a", /*mandatory=*/true);
  FeatureId b = m.add_feature(root, "b");  // optional...
  m.add_requires(root, b);                 // ...but forced by the root
  m.add_feature(root, "c");                // genuinely optional
  smt::Solver solver(GetParam());
  auto fo = false_optional_features(m, solver);
  ASSERT_EQ(fo.size(), 1u);
  EXPECT_EQ(fo[0], b);
}

TEST_P(AnalysisTest, EnumerationLimitRespected) {
  FeatureModel m = running_example_model();
  smt::Solver solver(GetParam());
  EXPECT_EQ(count_products(m, solver, 5), 5u);
}

INSTANTIATE_TEST_SUITE_P(Backends, AnalysisTest,
                         ::testing::ValuesIn(smt::all_backends()),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

// Property sweep: random feature models, solver count == brute-force count.
//
// gtest names each case by its parameter's raw bytes. The three bytes after
// `backend` used to be padding, printed as whatever memory held (a heap
// address byte among it, so names moved with ASLR from run to run). They are
// now a field, pinned to the bytes the case names were first recorded with.
struct RandomModelCase {
  uint32_t seed;
  smt::Backend backend;
  std::array<uint8_t, 3> name_tail{};
};
static_assert(std::has_unique_object_representations_v<RandomModelCase>,
              "every byte of a case must be set: gtest prints them all");

class RandomModelTest : public ::testing::TestWithParam<RandomModelCase> {};

TEST_P(RandomModelTest, CountMatchesBruteForce) {
  std::mt19937 rng(GetParam().seed);
  FeatureModel m;
  FeatureId root = m.add_root("r");
  std::vector<FeatureId> pool{root};
  std::uniform_int_distribution<int> group_dist(0, 2);
  std::uniform_int_distribution<int> flag(0, 1);
  int n = 8;
  for (int i = 0; i < n; ++i) {
    std::uniform_int_distribution<size_t> parent_dist(0, pool.size() - 1);
    FeatureId parent = pool[parent_dist(rng)];
    FeatureId f = m.add_feature(parent, "f" + std::to_string(i), flag(rng));
    pool.push_back(f);
  }
  for (FeatureId f : pool) {
    m.set_group(f, static_cast<GroupKind>(group_dist(rng)));
  }
  // A couple of random cross-constraints.
  std::uniform_int_distribution<size_t> pick(1, pool.size() - 1);
  m.add_requires(pool[pick(rng)], pool[pick(rng)]);
  m.add_excludes(pool[pick(rng)], pool[pick(rng)]);

  uint64_t brute = 0;
  for (uint32_t mask = 0; mask < (1u << m.size()); ++mask) {
    Selection sel(m.size());
    for (uint32_t i = 0; i < m.size(); ++i) sel[i] = (mask >> i) & 1;
    if (m.is_consistent_selection(sel)) ++brute;
  }
  smt::Solver solver(GetParam().backend);
  EXPECT_EQ(count_products(m, solver), brute);
}

// The recorded `name_tail` of a case; zero for all but these seeds.
std::array<uint8_t, 3> recorded_name_tail(uint32_t seed) {
  switch (seed) {
    case 1: case 2: case 3: case 102: return {0x55, 0x00, 0x00};
    case 4: return {0x69, 0x6E, 0x00};
    default: return {};
  }
}

std::vector<RandomModelCase> random_cases() {
  std::vector<RandomModelCase> cases;
  for (uint32_t seed = 1; seed <= 10; ++seed) {
    cases.push_back({seed, smt::Backend::kBuiltin, recorded_name_tail(seed)});
    cases.push_back({seed + 100, smt::Backend::kZ3,
                     recorded_name_tail(seed + 100)});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomModelTest,
                         ::testing::ValuesIn(random_cases()));

}  // namespace
}  // namespace llhsc::feature
