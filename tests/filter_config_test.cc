// Tests for the configuration plumbing: operator names, filter presets,
// and FilterStats accumulation — the instrumentation the Fig. 16 ablation
// and the NncResult reporting depend on.

#include <string>

#include <gtest/gtest.h>

#include "core/dominance_oracle.h"
#include "core/filter_config.h"
#include "test_util.h"

namespace osd {
namespace {

TEST(FilterConfigTest, OperatorNames) {
  EXPECT_STREQ(OperatorName(Operator::kSSd), "SSD");
  EXPECT_STREQ(OperatorName(Operator::kSsSd), "SSSD");
  EXPECT_STREQ(OperatorName(Operator::kPSd), "PSD");
  EXPECT_STREQ(OperatorName(Operator::kFSd), "FSD");
  EXPECT_STREQ(OperatorName(Operator::kFPlusSd), "F+SD");
}

TEST(FilterConfigTest, PresetsMatchTheAblationGrid) {
  const FilterConfig bf = FilterConfig::BruteForce();
  EXPECT_FALSE(bf.stat_pruning);
  EXPECT_FALSE(bf.geometric);
  EXPECT_FALSE(bf.cover_rules);

  const FilterConfig p = FilterConfig::P();
  EXPECT_TRUE(p.stat_pruning);
  EXPECT_FALSE(p.geometric);
  EXPECT_FALSE(p.cover_rules);

  const FilterConfig g = FilterConfig::G();
  EXPECT_FALSE(g.stat_pruning);
  EXPECT_TRUE(g.geometric);
  EXPECT_FALSE(g.cover_rules);

  const FilterConfig gp = FilterConfig::GP();
  EXPECT_TRUE(gp.stat_pruning && gp.geometric);
  EXPECT_FALSE(gp.cover_rules);

  const FilterConfig all = FilterConfig::All();
  EXPECT_TRUE(all.stat_pruning && all.geometric && all.cover_rules);
}

TEST(FilterStatsTest, AccumulationAndComparisonCurrency) {
  FilterStats a;
  a.dist_evals = 10;
  a.scan_steps = 20;
  a.pair_tests = 30;
  a.node_ops = 5;
  a.flow_runs = 1;
  FilterStats b;
  b.dist_evals = 1;
  b.scan_steps = 2;
  b.pair_tests = 3;
  b.mbr_validations = 7;
  b.stat_validations = 4;
  b.dominance_checks = 9;
  a += b;
  EXPECT_EQ(a.dist_evals, 11);
  EXPECT_EQ(a.scan_steps, 22);
  EXPECT_EQ(a.pair_tests, 33);
  EXPECT_EQ(a.node_ops, 5);
  EXPECT_EQ(a.mbr_validations, 7);
  EXPECT_EQ(a.stat_validations, 4);
  EXPECT_EQ(a.dominance_checks, 9);
  EXPECT_EQ(a.InstanceComparisons(), 11 + 22 + 33);
}

// Every JSON surface prints the counters through AppendJson, in this
// order, with stat_validations after mbr_validations.
TEST(FilterStatsTest, AppendJsonPrintsEveryCounterInOrder) {
  FilterStats s;
  s.dominance_checks = 1;
  s.dist_evals = 2;
  s.pair_tests = 3;
  s.scan_steps = 4;
  s.node_ops = 5;
  s.flow_runs = 6;
  s.stat_prunes = 7;
  s.cover_prunes = 8;
  s.mbr_validations = 9;
  s.stat_validations = 10;
  s.exact_checks = 11;
  std::string json;
  s.AppendJson(&json);
  EXPECT_EQ(json,
            "\"dominance_checks\":1,\"instance_comparisons\":9,"
            "\"dist_evals\":2,\"pair_tests\":3,\"scan_steps\":4,"
            "\"node_ops\":5,\"flow_runs\":6,\"stat_prunes\":7,"
            "\"cover_prunes\":8,\"mbr_validations\":9,"
            "\"stat_validations\":10,\"exact_checks\":11");
}

TEST(FilterStatsTest, CountersReflectTheCheckPath) {
  // A far-apart pair must be decided from MBRs alone under All (no
  // instance distances touched); the same pair under BruteForce must
  // compute the full matrices.
  Rng rng(3);
  const auto q = test::RandomObject(-1, 2, 3, 5.0, 2.0, rng);
  const auto u = test::RandomObject(0, 2, 4, 5.0, 2.0, rng);
  const auto v = test::RandomObject(1, 2, 4, 500.0, 2.0, rng);
  QueryContext ctx(q);
  {
    FilterStats stats;
    DominanceOracle oracle(ctx, FilterConfig::All(), &stats);
    ObjectProfile pu(u, ctx, &stats);
    ObjectProfile pv(v, ctx, &stats);
    ASSERT_TRUE(oracle.Dominates(Operator::kSSd, pu, pv));
    EXPECT_EQ(stats.mbr_validations, 1);
    EXPECT_EQ(stats.dist_evals, 0);
    EXPECT_EQ(stats.exact_checks, 0);
  }
  {
    FilterStats stats;
    DominanceOracle oracle(ctx, FilterConfig::BruteForce(), &stats);
    ObjectProfile pu(u, ctx, &stats);
    ObjectProfile pv(v, ctx, &stats);
    ASSERT_TRUE(oracle.Dominates(Operator::kSSd, pu, pv));
    EXPECT_EQ(stats.mbr_validations, 0);
    EXPECT_GT(stats.dist_evals, 0);
    EXPECT_EQ(stats.exact_checks, 1);
  }
}

}  // namespace
}  // namespace osd
