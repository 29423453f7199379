// Tests for discrete distributions, the stochastic-order scan, and the
// match-order construction (Theorem 1).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prob/discrete_distribution.h"
#include "prob/stochastic_order.h"

namespace osd {
namespace {

DiscreteDistribution Uniform(std::vector<double> values) {
  const double p = 1.0 / values.size();
  std::vector<DiscreteDistribution::Atom> atoms;
  for (double v : values) atoms.push_back({v, p});
  return DiscreteDistribution::FromAtoms(std::move(atoms));
}

TEST(DiscreteDistributionTest, SortsAndMergesAtoms) {
  const auto d = DiscreteDistribution::FromAtoms(
      {{3.0, 0.25}, {1.0, 0.25}, {3.0, 0.25}, {2.0, 0.25}});
  ASSERT_EQ(d.size(), 3);
  EXPECT_DOUBLE_EQ(d.atoms()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(d.atoms()[2].value, 3.0);
  EXPECT_DOUBLE_EQ(d.atoms()[2].prob, 0.5);
}

TEST(DiscreteDistributionTest, Statistics) {
  const auto d = Uniform({2.0, 4.0, 6.0, 8.0});
  EXPECT_DOUBLE_EQ(d.Min(), 2.0);
  EXPECT_DOUBLE_EQ(d.Max(), 8.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(4.0), 0.5);
  EXPECT_DOUBLE_EQ(d.CdfAt(3.9), 0.25);
  EXPECT_DOUBLE_EQ(d.CdfAt(100.0), 1.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(0.0), 0.0);
}

TEST(DiscreteDistributionTest, QuantileDefinition10) {
  const auto d = Uniform({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0001), 1.0);
}

TEST(DiscreteDistributionTest, ApproxEqual) {
  const auto a = Uniform({1.0, 2.0});
  const auto b = Uniform({1.0, 2.0});
  const auto c = Uniform({1.0, 2.5});
  EXPECT_TRUE(DiscreteDistribution::ApproxEqual(a, b));
  EXPECT_FALSE(DiscreteDistribution::ApproxEqual(a, c));
}

// Distances that tie in the reals can differ by an ulp in doubles. An
// object with two instances at such a distance has two atoms where an
// object with one has one atom, and the two distributions must still
// compare equal: the order tests accept either object as the other's
// dominator, so only the side condition keeps them from dominating each
// other. Clusters never hide extremes that differ beyond the tolerance.
TEST(DiscreteDistributionTest, ApproxEqualGroupsAtomsWithinTolerance) {
  const double lo = 0.3 - 0.1;  // 0.19999999999999998
  const double hi = 0.5 - 0.3;  // 0.2
  ASSERT_LT(lo, hi);
  const auto split = Uniform({lo, hi, 0.4, 0.4});
  const auto whole = Uniform({hi, hi, 0.4, 0.4});
  ASSERT_EQ(split.size(), 3);
  ASSERT_EQ(whole.size(), 2);
  EXPECT_TRUE(DiscreteDistribution::ApproxEqual(split, whole));
  EXPECT_TRUE(DiscreteDistribution::ApproxEqual(whole, split));
  // The same masses, but one cluster's last value 2e-9 further out.
  EXPECT_FALSE(DiscreteDistribution::ApproxEqual(
      Uniform({0.2, 0.2 + 0.6e-9, 0.4, 0.4}),
      Uniform({0.2, 0.2 + 2e-9, 0.4, 0.4})));
  // Masses that differ within one cluster.
  EXPECT_FALSE(DiscreteDistribution::ApproxEqual(
      Uniform({lo, hi, hi, 0.4}), Uniform({hi, 0.4, 0.4, 0.4})));
}

TEST(StochasticOrderTest, PaperFigure3Example) {
  // Distance distributions of Fig. 3(b): A_Q = {1,2,4,5}, B_Q = {3,4,6,7},
  // C_Q = {1,2,10,11} (values chosen to match the relative layout).
  const auto a = Uniform({1.0, 2.0, 4.0, 5.0});
  const auto b = Uniform({3.0, 4.0, 6.0, 7.0});
  const auto c = Uniform({1.0, 2.0, 10.0, 11.0});
  EXPECT_TRUE(StochasticallyLeq(a, b));   // S-SD(A,B,Q)
  EXPECT_TRUE(StochasticallyLeq(a, c));   // S-SD(A,C,Q)
  EXPECT_FALSE(StochasticallyLeq(b, c));  // neither direction for B,C
  EXPECT_FALSE(StochasticallyLeq(c, b));
  EXPECT_FALSE(StochasticallyLeq(b, a));
}

TEST(StochasticOrderTest, ReflexiveAndTies) {
  const auto a = Uniform({1.0, 2.0, 3.0});
  EXPECT_TRUE(StochasticallyLeq(a, a));  // non-strict order is reflexive
  const auto b = DiscreteDistribution::FromAtoms({{1.0, 0.5}, {3.0, 0.5}});
  const auto c = DiscreteDistribution::FromAtoms({{1.0, 0.4}, {3.0, 0.6}});
  EXPECT_TRUE(StochasticallyLeq(b, c));
  EXPECT_FALSE(StochasticallyLeq(c, b));
}

// Definition-level reference: check the CDF inequality at every support
// value of either distribution.
bool BruteStochasticLeq(const DiscreteDistribution& x,
                        const DiscreteDistribution& y) {
  std::vector<double> support;
  for (const auto& a : x.atoms()) support.push_back(a.value);
  for (const auto& a : y.atoms()) support.push_back(a.value);
  for (double v : support) {
    if (x.CdfAt(v) + 1e-12 < y.CdfAt(v)) return false;
  }
  return true;
}

class StochasticOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(StochasticOrderProperty, ScanMatchesDefinition) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    const int nx = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const int ny = 1 + static_cast<int>(rng.UniformInt(0, 7));
    std::vector<double> xs, ys;
    // Small integer-valued supports generate plenty of ties.
    for (int i = 0; i < nx; ++i) xs.push_back(rng.UniformInt(0, 6));
    for (int i = 0; i < ny; ++i) ys.push_back(rng.UniformInt(0, 6));
    const auto x = Uniform(xs);
    const auto y = Uniform(ys);
    EXPECT_EQ(StochasticallyLeq(x, y), BruteStochasticLeq(x, y))
        << "trial " << trial;
    EXPECT_EQ(StochasticallyLeq(y, x), BruteStochasticLeq(y, x))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StochasticOrderProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(StochasticOrderTest, StepCounterAccumulates) {
  const auto x = Uniform({1.0, 2.0, 3.0});
  const auto y = Uniform({2.0, 3.0, 4.0});
  std::vector<double> xv{1.0, 2.0, 3.0}, yv{2.0, 3.0, 4.0};
  std::vector<double> p{1.0 / 3, 1.0 / 3, 1.0 / 3};
  long steps = 0;
  EXPECT_TRUE(StochasticallyLeqSorted(xv, p, yv, p, &steps));
  EXPECT_GT(steps, 0);
}

TEST(MatchOrderTest, BuildsValidDominatingMatch) {
  // Theorem 1: X <=_st Y implies a match exists with t.x <= t.y, mass
  // preserved on both sides.
  const auto x = DiscreteDistribution::FromAtoms(
      {{1.0, 0.6}, {4.0, 0.2}, {6.0, 0.2}});
  const auto y = DiscreteDistribution::FromAtoms({{2.0, 0.6}, {7.0, 0.4}});
  ASSERT_TRUE(StochasticallyLeq(x, y));
  const auto match = BuildDominatingMatch(x, y);
  double total = 0.0;
  for (const auto& t : match) {
    EXPECT_LE(t.x, t.y + 1e-12);
    total += t.prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Per-atom mass conservation (Definition 4).
  for (const auto& atom : x.atoms()) {
    double mass = 0.0;
    for (const auto& t : match) {
      if (t.x == atom.value) mass += t.prob;
    }
    EXPECT_NEAR(mass, atom.prob, 1e-9);
  }
  for (const auto& atom : y.atoms()) {
    double mass = 0.0;
    for (const auto& t : match) {
      if (t.y == atom.value) mass += t.prob;
    }
    EXPECT_NEAR(mass, atom.prob, 1e-9);
  }
}

class MatchOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatchOrderProperty, RandomizedRoundTrip) {
  Rng rng(GetParam());
  int built = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int ny = 1 + static_cast<int>(rng.UniformInt(0, 5));
    std::vector<double> ys;
    for (int i = 0; i < ny; ++i) ys.push_back(rng.Uniform(0.0, 10.0));
    const auto y = Uniform(ys);
    // Build X by shifting Y's mass left (guarantees X <=_st Y).
    std::vector<DiscreteDistribution::Atom> xa;
    for (const auto& atom : y.atoms()) {
      xa.push_back({atom.value - rng.Uniform(0.0, 3.0), atom.prob});
    }
    const auto x = DiscreteDistribution::FromAtoms(std::move(xa));
    ASSERT_TRUE(StochasticallyLeq(x, y));
    const auto match = BuildDominatingMatch(x, y);
    ++built;
    double total = 0.0;
    for (const auto& t : match) {
      EXPECT_LE(t.x, t.y + 1e-9);
      total += t.prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_EQ(built, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchOrderProperty,
                         ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace osd
