// Tests for the flow substrate: Dinic max-flow against hand-checked
// networks and against a brute-force Hall-condition feasibility check on
// bipartite transportation instances; min-cost flow against permutation
// brute force on small assignment problems.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"

namespace osd {
namespace {

TEST(MaxFlowTest, TextbookNetwork) {
  // Classic CLRS-style example.
  MaxFlow flow(6);
  flow.AddEdge(0, 1, 16);
  flow.AddEdge(0, 2, 13);
  flow.AddEdge(1, 2, 10);
  flow.AddEdge(2, 1, 4);
  flow.AddEdge(1, 3, 12);
  flow.AddEdge(3, 2, 9);
  flow.AddEdge(2, 4, 14);
  flow.AddEdge(4, 3, 7);
  flow.AddEdge(3, 5, 20);
  flow.AddEdge(4, 5, 4);
  EXPECT_EQ(flow.Compute(0, 5), 23);
}

TEST(MaxFlowTest, DisconnectedSinkYieldsZero) {
  MaxFlow flow(4);
  flow.AddEdge(0, 1, 5);
  flow.AddEdge(2, 3, 5);
  EXPECT_EQ(flow.Compute(0, 3), 0);
}

TEST(MaxFlowTest, FlowOnEdges) {
  MaxFlow flow(4);
  const int a = flow.AddEdge(0, 1, 3);
  const int b = flow.AddEdge(0, 2, 2);
  flow.AddEdge(1, 3, 2);
  flow.AddEdge(2, 3, 2);
  EXPECT_EQ(flow.Compute(0, 3), 4);
  EXPECT_EQ(flow.FlowOn(a), 2);
  EXPECT_EQ(flow.FlowOn(b), 2);
}

// Brute-force feasibility of a bipartite transportation instance via the
// Hall-type condition: a full match exists iff for every subset T of the
// demand side, demand(T) <= supply(N(T)).
bool HallFeasible(const std::vector<int64_t>& supply,
                  const std::vector<int64_t>& demand,
                  const std::vector<std::pair<int, int>>& edges) {
  const int nu = static_cast<int>(supply.size());
  const int nv = static_cast<int>(demand.size());
  std::vector<uint32_t> neighbors(nv, 0);
  for (const auto& [i, j] : edges) neighbors[j] |= (1u << i);
  for (uint32_t mask = 1; mask < (1u << nv); ++mask) {
    int64_t dem = 0;
    uint32_t nbr = 0;
    for (int j = 0; j < nv; ++j) {
      if (mask & (1u << j)) {
        dem += demand[j];
        nbr |= neighbors[j];
      }
    }
    int64_t sup = 0;
    for (int i = 0; i < nu; ++i) {
      if (nbr & (1u << i)) sup += supply[i];
    }
    if (dem > sup) return false;
  }
  return true;
}

// BipartiteFeasible accepts a flow within nu + nv units of the total.
// Masses are multiples of kUnit, so any Hall violation is at least kUnit,
// far above that slack, and its verdict must equal the exact condition.
constexpr int64_t kUnit = 1000;

std::vector<int64_t> Scaled(std::vector<int64_t> masses) {
  for (int64_t& m : masses) m *= kUnit;
  return masses;
}

FeasibilityVerdict Feasible(const std::vector<int64_t>& supply,
                            const std::vector<int64_t>& demand,
                            const std::vector<std::pair<int, int>>& edges) {
  return BipartiteFeasible(static_cast<int>(supply.size()),
                           static_cast<int>(demand.size()), edges, supply,
                           demand);
}

class BipartiteFeasibilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(BipartiteFeasibilityProperty, DinicMatchesHallCondition) {
  Rng rng(GetParam());
  int exits[5] = {0, 0, 0, 0, 0};
  for (int trial = 0; trial < 200; ++trial) {
    const int nu = 1 + static_cast<int>(rng.UniformInt(0, 5));
    const int nv = 1 + static_cast<int>(rng.UniformInt(0, 5));
    // Integer masses with equal totals on both sides.
    std::vector<int64_t> supply(nu), demand(nv);
    const int64_t total = 60;
    auto split = [&](std::vector<int64_t>& out) {
      int64_t left = total;
      for (size_t k = 0; k + 1 < out.size(); ++k) {
        out[k] = rng.UniformInt(1, left - static_cast<int64_t>(out.size()) +
                                       static_cast<int64_t>(k) + 1);
        left -= out[k];
      }
      out.back() = left;
    };
    split(supply);
    split(demand);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < nu; ++i) {
      for (int j = 0; j < nv; ++j) {
        if (rng.Flip(0.45)) edges.emplace_back(i, j);
      }
    }
    const bool hall = HallFeasible(supply, demand, edges);
    // Max-flow verdict.
    MaxFlow flow(nu + nv + 2);
    const int s = nu + nv;
    const int t = nu + nv + 1;
    for (int i = 0; i < nu; ++i) flow.AddEdge(s, i, supply[i]);
    for (int j = 0; j < nv; ++j) flow.AddEdge(nu + j, t, demand[j]);
    for (const auto& [i, j] : edges) flow.AddEdge(i, nu + j, total);
    const bool dinic_feasible = flow.Compute(s, t) == total;
    EXPECT_EQ(dinic_feasible, hall) << "trial " << trial;
    // Certificate-first verdict, whichever exit decides it.
    const FeasibilityVerdict verdict =
        Feasible(Scaled(supply), Scaled(demand), edges);
    EXPECT_EQ(verdict.feasible, hall)
        << "trial " << trial << " exit " << static_cast<int>(verdict.exit);
    ++exits[static_cast<int>(verdict.exit)];
  }
  // Random instances of this size reach every exit.
  for (int e = 0; e < 5; ++e) EXPECT_GT(exits[e], 0) << "exit " << e;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteFeasibilityProperty,
                         ::testing::Values(1, 2, 3, 4));

// One hand-built network per exit, each checked against the brute force.
TEST(BipartiteFeasibleTest, EveryExitAgreesWithHallCondition) {
  struct Case {
    const char* name;
    std::vector<int64_t> supply, demand;
    std::vector<std::pair<int, int>> edges;
    FeasibilityExit exit;
  };
  const std::vector<Case> cases = {
      {"v1 has no edge", {1, 1}, {1, 1}, {{0, 0}, {1, 0}},
       FeasibilityExit::kUncoveredDemand},
      {"complete", {2, 1}, {1, 2}, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
       FeasibilityExit::kComplete},
      {"greedy routes a perfect matching", {1, 1}, {1, 1}, {{0, 0}, {1, 1}},
       FeasibilityExit::kGreedy},
      {"u1 reaches nothing", {1, 1}, {1, 1}, {{0, 0}, {0, 1}},
       FeasibilityExit::kHallDeficit},
      {"v0 outweighs its only neighbour", {1, 2}, {2, 1}, {{0, 0}, {1, 1},
       {0, 1}}, FeasibilityExit::kHallDeficit},
      // Greedy saturates u0 on v0 and strands u1; only the augmenting
      // path u0 -> v1, u1 -> v0 routes everything.
      {"feasible only by augmenting", {1, 1}, {1, 1}, {{0, 0}, {0, 1},
       {1, 0}}, FeasibilityExit::kMaxFlow},
      // v0 and v1 share their one neighbour u0: a two-vertex Hall
      // violation that no single vertex shows.
      {"infeasible by a pair", {1, 1, 1}, {1, 1, 1},
       {{0, 0}, {0, 1}, {1, 2}, {2, 2}}, FeasibilityExit::kMaxFlow},
  };
  for (const Case& c : cases) {
    const FeasibilityVerdict verdict =
        Feasible(Scaled(c.supply), Scaled(c.demand), c.edges);
    EXPECT_EQ(verdict.exit, c.exit) << c.name;
    EXPECT_EQ(verdict.feasible, HallFeasible(c.supply, c.demand, c.edges))
        << c.name;
  }
}

// The slack tolerates rounding-sized shortfalls on every path: a flow
// short by less than nu + nv units is still feasible.
TEST(BipartiteFeasibleTest, SlackAcceptsRoundingShortfall) {
  // u1 can reach nothing, but its one unit is inside the slack of 4.
  const FeasibilityVerdict hall = Feasible({kUnit, 1}, {kUnit, 1}, {{0, 0},
                                                             {0, 1}});
  EXPECT_TRUE(hall.feasible);
  EXPECT_EQ(hall.exit, FeasibilityExit::kGreedy);
  // Same shortfall, but greedy strands it too: Dinic decides.
  const FeasibilityVerdict dinic = Feasible(
      {kUnit, kUnit, 1}, {kUnit, kUnit, 1},
      {{0, 0}, {0, 1}, {1, 0}, {0, 2}});
  EXPECT_TRUE(dinic.feasible);
  EXPECT_EQ(dinic.exit, FeasibilityExit::kMaxFlow);
}

TEST(ScaleProbabilitiesTest, ExactTotalAndProportionality) {
  const std::vector<double> probs = {0.5, 0.3, 0.2};
  const auto scaled = ScaleProbabilities(probs, 1000);
  EXPECT_EQ(std::accumulate(scaled.begin(), scaled.end(), int64_t{0}), 1000);
  EXPECT_EQ(scaled[0], 500);
  EXPECT_EQ(scaled[1], 300);
  EXPECT_EQ(scaled[2], 200);
}

TEST(ScaleProbabilitiesTest, UniformThirdsSumExactly) {
  const std::vector<double> probs = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  const auto scaled = ScaleProbabilities(probs, kProbScale);
  EXPECT_EQ(std::accumulate(scaled.begin(), scaled.end(), int64_t{0}),
            kProbScale);
  // Largest-remainder keeps the parts within one unit of each other.
  const auto [mn, mx] = std::minmax_element(scaled.begin(), scaled.end());
  EXPECT_LE(*mx - *mn, 1);
}

TEST(ScaleProbabilitiesTest, UnnormalizedWeightsAreNormalized) {
  const std::vector<double> weights = {2.0, 6.0};  // 0.25 / 0.75
  const auto scaled = ScaleProbabilities(weights, 100);
  EXPECT_EQ(scaled[0], 25);
  EXPECT_EQ(scaled[1], 75);
}

TEST(MinCostFlowTest, SimpleAssignment) {
  // Two workers, two tasks; optimal assignment cost 1 + 2 = 3.
  MinCostFlow flow(6);
  const int s = 4, t = 5;
  flow.AddEdge(s, 0, 1, 0.0);
  flow.AddEdge(s, 1, 1, 0.0);
  flow.AddEdge(2, t, 1, 0.0);
  flow.AddEdge(3, t, 1, 0.0);
  flow.AddEdge(0, 2, 1, 1.0);
  flow.AddEdge(0, 3, 1, 5.0);
  flow.AddEdge(1, 2, 1, 4.0);
  flow.AddEdge(1, 3, 1, 2.0);
  const auto r = flow.Compute(s, t);
  EXPECT_EQ(r.flow, 2);
  EXPECT_NEAR(r.cost, 3.0, 1e-9);
}

// Property: on square assignment instances with unit supplies, min-cost
// flow must equal the best permutation (brute force).
class AssignmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentProperty, MatchesPermutationBruteForce) {
  const int n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
      for (double& c : row) c = rng.Uniform(0.0, 10.0);
    }
    MinCostFlow flow(2 * n + 2);
    const int s = 2 * n, t = 2 * n + 1;
    for (int i = 0; i < n; ++i) flow.AddEdge(s, i, 1, 0.0);
    for (int j = 0; j < n; ++j) flow.AddEdge(n + j, t, 1, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) flow.AddEdge(i, n + j, 1, cost[i][j]);
    }
    const auto r = flow.Compute(s, t);
    EXPECT_EQ(r.flow, n);

    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    double best = 1e30;
    do {
      double c = 0.0;
      for (int i = 0; i < n; ++i) c += cost[i][perm[i]];
      best = std::min(best, c);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(r.cost, best, 1e-9) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AssignmentProperty,
                         ::testing::Values(2, 3, 4, 5, 6));

}  // namespace
}  // namespace osd
