// Broad agreement sweep: every operator against its definition-level
// brute force across a matrix of dimensionalities, instance-count
// asymmetries, probability models (uniform vs weighted), and filter
// configurations. Complements dominance_test's focused suites with wider
// combinatorial coverage.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/dominance_oracle.h"
#include "test_util.h"

namespace osd {
namespace {

using test::BruteFSd;
using test::BrutePSd;
using test::BruteSSd;
using test::BruteSsSd;

struct SweepParam {
  int dim;
  int mu;       // instances of U
  int mv;       // instances of V
  bool weighted;
};

class AgreementSweep : public ::testing::TestWithParam<SweepParam> {};

UncertainObject Make(int id, int dim, int m, bool weighted, double span,
                     Rng& rng) {
  return weighted ? test::RandomWeightedObject(id, dim, m, span, 4.0, rng)
                  : test::RandomObject(id, dim, m, span, 4.0, rng);
}

TEST_P(AgreementSweep, AllOperatorsAllConfigs) {
  const SweepParam p = GetParam();
  Rng rng(static_cast<uint64_t>(p.dim) * 1009 + p.mu * 31 + p.mv * 7 +
          (p.weighted ? 3 : 0));
  const FilterConfig configs[] = {FilterConfig::All(),
                                  FilterConfig::BruteForce(),
                                  FilterConfig::P(), FilterConfig::G()};
  int positives = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const int mq = 1 + static_cast<int>(rng.UniformInt(0, 3));
    const UncertainObject q = Make(-1, p.dim, mq, p.weighted, 10.0, rng);
    UncertainObject v = Make(1, p.dim, p.mv, p.weighted, 10.0, rng);
    UncertainObject u = Make(0, p.dim, p.mu, p.weighted, 10.0, rng);
    if (rng.Flip(0.5)) {
      // Contract V toward the query center to create positives; keep U's
      // instance count by resampling from V cyclically.
      Point qc(p.dim);
      for (int d = 0; d < p.dim; ++d) qc[d] = q.mbr().Center(d);
      std::vector<double> coords;
      for (int k = 0; k < p.mu; ++k) {
        const Point pt = v.Instance(k % p.mv);
        for (int d = 0; d < p.dim; ++d) {
          coords.push_back(qc[d] + (pt[d] - qc[d]) * rng.Uniform(0.0, 0.9) +
                           rng.Uniform(-0.05, 0.05));
        }
      }
      u = UncertainObject::Uniform(0, p.dim, std::move(coords));
    }

    const bool es = BruteSSd(u, v, q);
    const bool ess = BruteSsSd(u, v, q);
    const bool ep = BrutePSd(u, v, q);
    const bool ef = BruteFSd(u, v, q);
    positives += es;
    for (const FilterConfig& cfg : configs) {
      QueryContext ctx(q);
      FilterStats stats;
      DominanceOracle oracle(ctx, cfg, &stats);
      ObjectProfile pu(u, ctx, &stats);
      ObjectProfile pv(v, ctx, &stats);
      EXPECT_EQ(oracle.Dominates(Operator::kSSd, pu, pv), es) << trial;
      EXPECT_EQ(oracle.Dominates(Operator::kSsSd, pu, pv), ess) << trial;
      EXPECT_EQ(oracle.Dominates(Operator::kPSd, pu, pv), ep) << trial;
      EXPECT_EQ(oracle.Dominates(Operator::kFSd, pu, pv), ef) << trial;
    }
  }
  // The contraction should generate real positives in most cells (tiny
  // instance counts in high dimensions legitimately produce fewer).
  if (p.mu >= p.mv) {
    EXPECT_GT(positives, 0);
  }
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "d" + std::to_string(info.param.dim) + "_mu" +
         std::to_string(info.param.mu) + "_mv" +
         std::to_string(info.param.mv) +
         (info.param.weighted ? "_weighted" : "_uniform");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AgreementSweep,
    ::testing::Values(SweepParam{1, 2, 2, false}, SweepParam{1, 5, 3, true},
                      SweepParam{2, 1, 4, false}, SweepParam{2, 4, 4, true},
                      SweepParam{2, 7, 2, false}, SweepParam{3, 3, 3, false},
                      SweepParam{3, 6, 5, true}, SweepParam{4, 2, 2, true},
                      SweepParam{5, 3, 4, false}, SweepParam{8, 4, 3, true}),
    SweepName);

}  // namespace
}  // namespace osd
