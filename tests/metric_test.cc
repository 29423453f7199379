// Tests for the metric abstraction: L1 distances on points, boxes, and
// the metric-aware MBR dominance decision; dominance checks and NNC under
// L1 against L1 brute force.

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/nnc_search.h"
#include "geom/metric.h"
#include "nnfun/n1_functions.h"
#include "nnfun/n3_functions.h"
#include "test_util.h"

namespace osd {
namespace {

TEST(MetricTest, PointDistances) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(PointDistance(a, b, Metric::kL2), 5.0);
  EXPECT_DOUBLE_EQ(PointDistance(a, b, Metric::kL1), 7.0);
}

TEST(MetricTest, BoxDistancesL1) {
  const Mbr box(Point{0.0, 0.0}, Point{2.0, 2.0});
  EXPECT_DOUBLE_EQ(MbrMinDist(box, Point{1.0, 1.0}, Metric::kL1), 0.0);
  EXPECT_DOUBLE_EQ(MbrMinDist(box, Point{5.0, 3.0}, Metric::kL1), 4.0);
  EXPECT_DOUBLE_EQ(MbrMaxDist(box, Point{1.0, 1.0}, Metric::kL1), 2.0);
  EXPECT_DOUBLE_EQ(MbrMaxDist(box, Point{-1.0, 0.0}, Metric::kL1), 5.0);
  const Mbr other(Point{5.0, 4.0}, Point{6.0, 6.0});
  EXPECT_DOUBLE_EQ(MbrMinDist(box, other, Metric::kL1), 3.0 + 2.0);
}

// Property: the L1 MBR dominance decision agrees with dense sampling.
TEST(MetricTest, L1MbrDominanceAgreesWithSampling) {
  Rng rng(17);
  int dominated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto random_box = [&](double base, double spread) {
      Point lo{base + rng.Uniform(0.0, 4.0), base + rng.Uniform(0.0, 4.0)};
      Point hi{lo[0] + rng.Uniform(0.0, spread),
               lo[1] + rng.Uniform(0.0, spread)};
      return Mbr(lo, hi);
    };
    const Mbr q = random_box(0.0, 2.0);
    const Mbr u = random_box(0.0, 2.0);
    const Mbr v = random_box(rng.Flip(0.5) ? 6.0 : 0.0, 2.0);
    const bool closed = MbrDominatesM(u, v, q, Metric::kL1);
    if (closed) ++dominated;
    bool sampled = true;
    for (int s = 0; s < 300 && sampled; ++s) {
      Point qq{rng.Uniform(q.lo()[0], q.hi()[0]),
               rng.Uniform(q.lo()[1], q.hi()[1])};
      if (MbrMaxDist(u, qq, Metric::kL1) >
          MbrMinDist(v, qq, Metric::kL1) + 1e-9) {
        sampled = false;
      }
    }
    for (int mask = 0; mask < 4 && sampled; ++mask) {
      Point qq{mask & 1 ? q.hi()[0] : q.lo()[0],
               mask & 2 ? q.hi()[1] : q.lo()[1]};
      if (MbrMaxDist(u, qq, Metric::kL1) >
          MbrMinDist(v, qq, Metric::kL1) + 1e-9) {
        sampled = false;
      }
    }
    if (closed) {
      EXPECT_TRUE(sampled) << trial;
    }
    if (!sampled) {
      EXPECT_FALSE(closed) << trial;
    }
  }
  EXPECT_GT(dominated, 20);
}

// L1 brute-force dominance references.
bool BruteLeqStL1(const UncertainObject& u, const UncertainObject& v,
                  const UncertainObject& q) {
  return test::BruteLeqSt(DistanceDistribution(u, q, Metric::kL1),
                          DistanceDistribution(v, q, Metric::kL1));
}

bool BruteSSdL1(const UncertainObject& u, const UncertainObject& v,
                const UncertainObject& q) {
  if (DiscreteDistribution::ApproxEqual(
          DistanceDistribution(u, q, Metric::kL1),
          DistanceDistribution(v, q, Metric::kL1))) {
    return false;
  }
  return BruteLeqStL1(u, v, q);
}

bool BruteSsSdL1(const UncertainObject& u, const UncertainObject& v,
                 const UncertainObject& q) {
  if (DiscreteDistribution::ApproxEqual(
          DistanceDistribution(u, q, Metric::kL1),
          DistanceDistribution(v, q, Metric::kL1))) {
    return false;
  }
  for (int qi = 0; qi < q.num_instances(); ++qi) {
    const Point qp = q.Instance(qi);
    if (!test::BruteLeqSt(DistanceDistribution(u, qp, Metric::kL1),
                          DistanceDistribution(v, qp, Metric::kL1))) {
      return false;
    }
  }
  return true;
}

bool BruteFSdL1(const UncertainObject& u, const UncertainObject& v,
                const UncertainObject& q) {
  return test::BruteFSdUnder(u, v, q, Metric::kL1);
}

// Hall-condition P-SD under L1 admissibility.
bool BrutePSdL1(const UncertainObject& u, const UncertainObject& v,
                const UncertainObject& q) {
  if (DiscreteDistribution::ApproxEqual(
          DistanceDistribution(u, q, Metric::kL1),
          DistanceDistribution(v, q, Metric::kL1))) {
    return false;
  }
  const int nu = u.num_instances();
  const int nv = v.num_instances();
  std::vector<uint32_t> neighbors(nv, 0);
  for (int j = 0; j < nv; ++j) {
    for (int i = 0; i < nu; ++i) {
      bool leq = true;
      for (int qi = 0; qi < q.num_instances() && leq; ++qi) {
        const Point qp = q.Instance(qi);
        if (PointDistance(qp, u.Instance(i), Metric::kL1) >
            PointDistance(qp, v.Instance(j), Metric::kL1) + 1e-12) {
          leq = false;
        }
      }
      if (leq) neighbors[j] |= (1u << i);
    }
    if (neighbors[j] == 0) return false;
  }
  for (uint32_t mask = 1; mask < (1u << nv); ++mask) {
    double demand = 0.0;
    uint32_t nbr = 0;
    for (int j = 0; j < nv; ++j) {
      if (mask & (1u << j)) {
        demand += v.Prob(j);
        nbr |= neighbors[j];
      }
    }
    double supply = 0.0;
    for (int i = 0; i < nu; ++i) {
      if (nbr & (1u << i)) supply += u.Prob(i);
    }
    if (demand > supply + 1e-9) return false;
  }
  return true;
}

bool OracleCheck(Operator op, const UncertainObject& u,
                 const UncertainObject& v, const UncertainObject& q,
                 FilterConfig cfg) {
  QueryContext ctx(q, Metric::kL1);
  FilterStats stats;
  DominanceOracle oracle(ctx, cfg, &stats);
  ObjectProfile pu(u, ctx, &stats);
  ObjectProfile pv(v, ctx, &stats);
  return oracle.Dominates(op, pu, pv);
}

TEST(MetricTest, L1DominanceMatchesBruteForce) {
  Rng rng(23);
  int positives = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int dim = 1 + static_cast<int>(rng.UniformInt(0, 2));
    const auto q = test::RandomObject(-1, dim, 3, 10.0, 3.0, rng);
    auto v = test::RandomObject(1, dim, 3, 10.0, 4.0, rng);
    auto u = test::RandomObject(0, dim, 3, 10.0, 4.0, rng);
    if (rng.Flip(0.5)) {
      Point qc(dim);
      for (int d = 0; d < dim; ++d) qc[d] = q.mbr().Center(d);
      std::vector<double> coords;
      for (int kx = 0; kx < v.num_instances(); ++kx) {
        const Point p = v.Instance(kx);
        for (int d = 0; d < dim; ++d) {
          coords.push_back(qc[d] + (p[d] - qc[d]) * rng.Uniform(0.0, 0.9));
        }
      }
      u = UncertainObject::Uniform(0, dim, std::move(coords));
    }
    for (const FilterConfig& cfg :
         {FilterConfig::All(), FilterConfig::BruteForce()}) {
      EXPECT_EQ(OracleCheck(Operator::kSSd, u, v, q, cfg),
                BruteSSdL1(u, v, q))
          << trial;
      EXPECT_EQ(OracleCheck(Operator::kSsSd, u, v, q, cfg),
                BruteSsSdL1(u, v, q))
          << trial;
      EXPECT_EQ(OracleCheck(Operator::kFSd, u, v, q, cfg),
                BruteFSdL1(u, v, q))
          << trial;
      EXPECT_EQ(OracleCheck(Operator::kPSd, u, v, q, cfg),
                BrutePSdL1(u, v, q))
          << trial;
    }
    if (BruteSSdL1(u, v, q)) ++positives;
  }
  EXPECT_GT(positives, 15);
}

TEST(MetricTest, L1NncMatchesBruteForceAllOperators) {
  Rng rng(29);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < 40; ++i) {
    objects.push_back(test::RandomObject(i, 2, 3, 20.0, 3.0, rng));
  }
  const Dataset dataset(objects);
  const auto query = test::RandomObject(-1, 2, 3, 20.0, 3.0, rng);
  struct OpCase {
    Operator op;
    bool (*brute)(const UncertainObject&, const UncertainObject&,
                  const UncertainObject&);
  };
  const OpCase cases[] = {
      {Operator::kSSd, BruteSSdL1},
      {Operator::kSsSd, BruteSsSdL1},
      {Operator::kPSd, BrutePSdL1},
      {Operator::kFSd, BruteFSdL1},
  };
  for (const auto& c : cases) {
    NncOptions options;
    options.op = c.op;
    options.metric = Metric::kL1;
    const auto result = NncSearch(dataset, options).Run(query);
    const auto expected = test::BruteNnc(objects, query, c.brute);
    EXPECT_EQ(
        std::set<int>(result.candidates.begin(), result.candidates.end()),
        std::set<int>(expected.begin(), expected.end()))
        << OperatorName(c.op);
  }
  // k > 1 under L1.
  NncOptions options;
  options.op = Operator::kSSd;
  options.metric = Metric::kL1;
  options.k = 3;
  const auto result = NncSearch(dataset, options).Run(query);
  std::vector<int> expected;
  for (size_t v = 0; v < objects.size(); ++v) {
    int dominators = 0;
    for (size_t u = 0; u < objects.size() && dominators < 3; ++u) {
      if (u != v && BruteSSdL1(objects[u], objects[v], query)) ++dominators;
    }
    if (dominators < 3) expected.push_back(static_cast<int>(v));
  }
  EXPECT_EQ(std::set<int>(result.candidates.begin(), result.candidates.end()),
            std::set<int>(expected.begin(), expected.end()));
}

TEST(MetricTest, L1NnFunctionsRespectDominance) {
  // Optimality carries over: S-SD under L1 orders the L1 N1 functions.
  Rng rng(31);
  int pairs = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const auto q = test::RandomObject(-1, 2, 2, 10.0, 3.0, rng);
    const auto v = test::RandomObject(1, 2, 3, 10.0, 4.0, rng);
    Point qc(2);
    for (int d = 0; d < 2; ++d) qc[d] = q.mbr().Center(d);
    std::vector<double> coords;
    for (int kx = 0; kx < v.num_instances(); ++kx) {
      const Point p = v.Instance(kx);
      for (int d = 0; d < 2; ++d) {
        coords.push_back(qc[d] + (p[d] - qc[d]) * rng.Uniform(0.2, 0.95));
      }
    }
    const auto u = UncertainObject::Uniform(0, 2, std::move(coords));
    if (!BruteSSdL1(u, v, q)) continue;
    ++pairs;
    EXPECT_LE(ExpectedDistance(u, q, Metric::kL1),
              ExpectedDistance(v, q, Metric::kL1) + 1e-9);
    EXPECT_LE(MaxDistance(u, q, Metric::kL1),
              MaxDistance(v, q, Metric::kL1) + 1e-9);
    if (BruteFSdL1(u, v, q)) {
      EXPECT_LE(EmdDistance(u, q, Metric::kL1),
                EmdDistance(v, q, Metric::kL1) + 1e-6);
      EXPECT_LE(HausdorffDistance(u, q, Metric::kL1),
                HausdorffDistance(v, q, Metric::kL1) + 1e-9);
    }
  }
  EXPECT_GT(pairs, 20);
}

}  // namespace
}  // namespace osd
