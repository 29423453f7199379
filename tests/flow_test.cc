// Tests for the flow substrate: Dinic max-flow against hand-checked
// networks and against a brute-force Hall-condition feasibility check on
// bipartite transportation instances; min-cost flow against permutation
// brute force on small assignment problems.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_exec.h"
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

// Compute polls the running query at every Dinic phase: a set cancel flag
// or a passed deadline throws Interrupted with the matching kind before
// the first augmenting path, and with no control installed the network
// needs (and gets) its augmenting phases.
TEST(MaxFlowTest, ComputePollsTheRunningQuery) {
  auto compute = [] {
    MaxFlow flow(4);
    flow.AddEdge(0, 1, 3);
    flow.AddEdge(0, 2, 2);
    flow.AddEdge(1, 3, 2);
    flow.AddEdge(2, 3, 2);
    return flow.Compute(0, 3);
  };
  auto interrupted_as = [&](const QueryControl& control) {
    ScopedQueryExec exec(&control, nullptr);
    try {
      compute();
    } catch (const interrupt::Interrupted& e) {
      return std::optional<interrupt::Kind>(e.kind());
    }
    return std::optional<interrupt::Kind>();
  };

  QueryControl cancelled;
  cancelled.cancel.store(true);
  EXPECT_EQ(interrupted_as(cancelled), interrupt::Kind::kCancelled);

  QueryControl expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(interrupted_as(expired), interrupt::Kind::kDeadlineExceeded);

  QueryControl running;
  running.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(interrupted_as(running), std::nullopt);

  ASSERT_EQ(CurrentExec().control, nullptr);
  EXPECT_EQ(compute(), 4);
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

TEST(MaxFlowTest, VertexEdgesSplitAcrossAddEdgeCalls) {
  // Vertex 0's out-edges arrive interleaved with other vertices' edges, so
  // the CSR layout has to gather them into one run and FlowOn has to map
  // every edge index back to its own arc.
  MaxFlow flow(5);
  const int a = flow.AddEdge(0, 1, 4);
  const int c = flow.AddEdge(1, 4, 3);
  const int b = flow.AddEdge(0, 2, 5);
  const int d = flow.AddEdge(2, 4, 2);
  const int e = flow.AddEdge(0, 3, 1);
  const int f = flow.AddEdge(2, 3, 6);
  const int g = flow.AddEdge(3, 4, 2);
  EXPECT_EQ(flow.Compute(0, 4), 7);
  EXPECT_EQ(flow.FlowOn(a), 3);
  EXPECT_EQ(flow.FlowOn(c), 3);
  EXPECT_EQ(flow.FlowOn(d), 2);
  EXPECT_EQ(flow.FlowOn(g), 2);
  // How 0's other 4 units split over b, e and f is Dinic's choice, but
  // flow is conserved at 0, 2 and 3.
  EXPECT_EQ(flow.FlowOn(b) + flow.FlowOn(e), 4);
  EXPECT_EQ(flow.FlowOn(b), 2 + flow.FlowOn(f));
  EXPECT_EQ(flow.FlowOn(e) + flow.FlowOn(f), 2);
}

// Bit rows for an nu x nv bipartite edge list (flow/max_flow.h layout).
std::vector<uint64_t> Rows(int nu, int nv,
                           const std::vector<std::pair<int, int>>& edges) {
  const int words = RowWords(nu);
  std::vector<uint64_t> rows(static_cast<size_t>(nv) * words, 0);
  for (const auto& [i, j] : edges) {
    rows[static_cast<size_t>(j) * words + i / 64] |= uint64_t{1} << (i % 64);
  }
  return rows;
}

// Brute-force feasibility of a bipartite transportation instance via the
// Hall-type condition: a full match exists iff for every subset T of the
// demand side, demand(T) <= supply(N(T)).
bool HallFeasible(const std::vector<int64_t>& supply,
                  const std::vector<int64_t>& demand,
                  const std::vector<uint64_t>& rows) {
  const int nu = static_cast<int>(supply.size());
  const int nv = static_cast<int>(demand.size());
  const int words = RowWords(nu);
  for (uint32_t mask = 1; mask < (1u << nv); ++mask) {
    int64_t dem = 0;
    std::vector<uint64_t> nbr(words, 0);
    for (int j = 0; j < nv; ++j) {
      if (mask & (1u << j)) {
        dem += demand[j];
        for (int w = 0; w < words; ++w) {
          nbr[w] |= rows[static_cast<size_t>(j) * words + w];
        }
      }
    }
    int64_t sup = 0;
    for (int i = 0; i < nu; ++i) {
      if ((nbr[i / 64] >> (i % 64)) & 1) sup += supply[i];
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
                            const std::vector<uint64_t>& rows) {
  return BipartiteFeasible(static_cast<int>(supply.size()),
                           static_cast<int>(demand.size()), rows, supply,
                           demand);
}

// Splits `total` into out.size() positive integer parts.
void Split(int64_t total, std::vector<int64_t>& out, Rng& rng) {
  int64_t left = total;
  for (size_t k = 0; k + 1 < out.size(); ++k) {
    out[k] = rng.UniformInt(1, left - static_cast<int64_t>(out.size()) +
                                   static_cast<int64_t>(k) + 1);
    left -= out[k];
  }
  out.back() = left;
}

struct Instance {
  std::vector<int64_t> supply, demand;
  std::vector<std::pair<int, int>> edges;
};

// Random masses, random edges (density 0.45); nu, nv in [1, 6].
Instance SmallInstance(Rng& rng) {
  const int nu = 1 + static_cast<int>(rng.UniformInt(0, 5));
  const int nv = 1 + static_cast<int>(rng.UniformInt(0, 5));
  Instance in{std::vector<int64_t>(nu), std::vector<int64_t>(nv), {}};
  // Integer masses with equal totals on both sides.
  Split(60, in.supply, rng);
  Split(60, in.demand, rng);
  for (int i = 0; i < nu; ++i) {
    for (int j = 0; j < nv; ++j) {
      if (rng.Flip(0.45)) in.edges.emplace_back(i, j);
    }
  }
  return in;
}

// The degree-ordered greedy's trap, relabelled at random and grown by up
// to three extra (u, v) pairs that ship to each other, with extra edges
// from them with probability 0.15. At its core, v2 reaches only u1, v0
// reaches u0 and u1, and v1 needs all of u0 and u2. The greedy serves v2
// first (degree 1) from half of u1, then v0 from whichever of its two
// degree-2 neighbours has the lower index. If that is u0, v1 is left a
// unit short and u1 a unit over, and only Dinic reroutes v0 through u1.
Instance TrapInstance(Rng& rng) {
  const int n = 3 + static_cast<int>(rng.UniformInt(0, 3));
  std::vector<int> pu(n);
  std::vector<int> pv(n);
  std::iota(pu.begin(), pu.end(), 0);
  std::iota(pv.begin(), pv.end(), 0);
  std::shuffle(pu.begin(), pu.end(), rng.engine());
  std::shuffle(pv.begin(), pv.end(), rng.engine());
  Instance in{std::vector<int64_t>(n), std::vector<int64_t>(n), {}};
  const int64_t scale = rng.UniformInt(1, 10);
  const int64_t core_mass[3] = {1, 2, 1};
  for (int k = 0; k < n; ++k) {
    const int64_t mass = k < 3 ? scale * core_mass[k] : rng.UniformInt(1, 20);
    in.supply[pu[k]] = mass;
    in.demand[pv[k]] = mass;
    if (k >= 3) in.edges.emplace_back(pu[k], pv[k]);
  }
  for (const auto& [i, j] :
       std::vector<std::pair<int, int>>{{0, 0}, {0, 1}, {1, 0}, {1, 2},
                                        {2, 1}}) {
    in.edges.emplace_back(pu[i], pv[j]);
  }
  for (int k = 3; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      if (j != k && rng.Flip(0.15)) in.edges.emplace_back(pu[k], pv[j]);
    }
  }
  return in;
}

// A wide U side: every u ships its mass to one primary v, plus extra
// edges with probability `extra`, then `mode` breaks it in one of four ways (0: intact,
// 1: one v loses every edge, 2: one u loses its primary edge, 3: mass
// moves between two v's).
Instance WideInstance(int nu, int mode, double extra, Rng& rng) {
  const int nv = 2 + static_cast<int>(rng.UniformInt(0, 4));
  Instance in{std::vector<int64_t>(nu), std::vector<int64_t>(nv, 0), {}};
  std::vector<int> primary(nu);
  for (int i = 0; i < nu; ++i) {
    in.supply[i] = rng.UniformInt(1, 10);
    primary[i] = i < nv ? i : static_cast<int>(rng.UniformInt(0, nv - 1));
    in.demand[primary[i]] += in.supply[i];
  }
  const int lost_v = static_cast<int>(rng.UniformInt(0, nv - 1));
  const int lost_u = static_cast<int>(rng.UniformInt(0, nu - 1));
  for (int i = 0; i < nu; ++i) {
    for (int j = 0; j < nv; ++j) {
      if (mode == 1 && j == lost_v) continue;
      if (mode == 2 && i == lost_u && j == primary[i]) continue;
      if (j == primary[i] || rng.Flip(extra)) in.edges.emplace_back(i, j);
    }
  }
  if (mode == 3) {
    const int64_t moved = std::min(in.demand[0], in.demand[1]) / 2;
    in.demand[0] -= moved;
    in.demand[1] += moved;
  }
  return in;
}

// Parameter: (seed, supply-side size). Size 0 draws small instances, one
// trial in four a trap variant; sizes 63, 64 and 65 put the last U vertex
// on either side of a 64-bit word edge.
class BipartiteFeasibilityProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The parameter's instance for one trial. Wide instances alternate four
// trials without extra edges (greedy routes the intact ones) and four with
// them.
Instance DrawInstance(int wide_nu, int trial, Rng& rng) {
  if (wide_nu != 0) {
    return WideInstance(wide_nu, trial % 4, trial % 8 < 4 ? 0.0 : 0.1, rng);
  }
  return trial % 4 == 3 ? TrapInstance(rng) : SmallInstance(rng);
}

TEST_P(BipartiteFeasibilityProperty, DinicMatchesHallCondition) {
  const auto [seed, wide_nu] = GetParam();
  Rng rng(seed);
  int exits[5] = {0, 0, 0, 0, 0};
  for (int trial = 0; trial < 200; ++trial) {
    const Instance in = DrawInstance(wide_nu, trial, rng);
    const int nu = static_cast<int>(in.supply.size());
    const int nv = static_cast<int>(in.demand.size());
    const int64_t total =
        std::accumulate(in.supply.begin(), in.supply.end(), int64_t{0});
    const std::vector<uint64_t> rows = Rows(nu, nv, in.edges);
    const bool hall = HallFeasible(in.supply, in.demand, rows);
    // Dinic on an AddEdge network and on the bulk row load.
    const int s = nu + nv;
    const int t = nu + nv + 1;
    MaxFlow added(nu + nv + 2);
    for (int i = 0; i < nu; ++i) added.AddEdge(s, i, in.supply[i]);
    for (int j = 0; j < nv; ++j) added.AddEdge(nu + j, t, in.demand[j]);
    for (const auto& [i, j] : in.edges) added.AddEdge(i, nu + j, total);
    EXPECT_EQ(added.Compute(s, t) == total, hall) << "trial " << trial;
    MaxFlow loaded(nu + nv + 2);
    loaded.LoadBipartite(nu, nv, rows, in.supply, in.demand, total);
    EXPECT_EQ(loaded.Compute(s, t) == total, hall) << "trial " << trial;
    // Certificate-first verdict, whichever exit decides it.
    const FeasibilityVerdict verdict =
        Feasible(Scaled(in.supply), Scaled(in.demand), rows);
    EXPECT_EQ(verdict.feasible, hall)
        << "trial " << trial << " exit " << static_cast<int>(verdict.exit);
    ++exits[static_cast<int>(verdict.exit)];
  }
  // Random instances of these shapes reach every exit but kComplete,
  // which the small ones reach too.
  for (int e = 0; e < 5; ++e) {
    if (wide_nu != 0 && e == static_cast<int>(FeasibilityExit::kComplete)) {
      continue;
    }
    EXPECT_GT(exits[e], 0) << "exit " << e;
  }
}

// BipartiteFeasible as it was written with std::stable_sort ordering the
// greedy's vertices by degree (ties by index).
FeasibilityVerdict StableSortFeasible(const std::vector<int64_t>& u_mass,
                                      const std::vector<int64_t>& v_mass,
                                      const std::vector<uint64_t>& rows) {
  const int nu = static_cast<int>(u_mass.size());
  const int nv = static_cast<int>(v_mass.size());
  const int words = RowWords(nu);
  auto edge = [&](int i, int j) {
    return ((rows[static_cast<size_t>(j) * words + i / 64] >> (i % 64)) & 1) !=
           0;
  };
  std::vector<int> u_degree(nu, 0);
  std::vector<int> v_degree(nv, 0);
  std::vector<int64_t> u_reach(nu, 0);
  std::vector<int64_t> v_reach(nv, 0);
  long num_edges = 0;
  for (int j = 0; j < nv; ++j) {
    for (int i = 0; i < nu; ++i) {
      if (!edge(i, j)) continue;
      ++u_degree[i];
      ++v_degree[j];
      u_reach[i] += v_mass[j];
      v_reach[j] += u_mass[i];
    }
    if (v_degree[j] == 0) return {false, FeasibilityExit::kUncoveredDemand};
    num_edges += v_degree[j];
  }
  if (num_edges == static_cast<long>(nu) * nv) {
    return {true, FeasibilityExit::kComplete};
  }
  const int64_t total =
      std::accumulate(u_mass.begin(), u_mass.end(), int64_t{0});
  const int64_t slack = nu + nv;
  auto by_degree = [](const std::vector<int>& degree) {
    std::vector<int> order(degree.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return degree[a] < degree[b]; });
    return order;
  };
  const std::vector<int> u_order = by_degree(u_degree);
  std::vector<int64_t> u_left = u_mass;
  int64_t routed = 0;
  for (const int j : by_degree(v_degree)) {
    int64_t v_left = v_mass[j];
    for (int k = 0; k < nu && v_left > 0; ++k) {
      const int i = u_order[k];
      if (!edge(i, j)) continue;
      const int64_t pushed = std::min(u_left[i], v_left);
      u_left[i] -= pushed;
      v_left -= pushed;
      routed += pushed;
    }
  }
  if (routed >= total - slack) return {true, FeasibilityExit::kGreedy};
  for (int i = 0; i < nu; ++i) {
    if (u_mass[i] - u_reach[i] > slack) {
      return {false, FeasibilityExit::kHallDeficit};
    }
  }
  for (int j = 0; j < nv; ++j) {
    if (v_mass[j] - v_reach[j] > slack) {
      return {false, FeasibilityExit::kHallDeficit};
    }
  }
  MaxFlow flow(nu + nv + 2);
  flow.LoadBipartite(nu, nv, rows, u_mass, v_mass, total);
  return {flow.Compute(nu + nv, nu + nv + 1) >= total - slack,
          FeasibilityExit::kMaxFlow};
}

// The counting-pass degree order visits the greedy's vertices as the
// stable sort did, so every exit and verdict is the reference's. The
// greedy decides only within the slack, so the instances run unscaled as
// well as scaled, which puts greedy shortfalls near the slack too.
TEST_P(BipartiteFeasibilityProperty, DegreeOrderMatchesStableSort) {
  const auto [seed, wide_nu] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance in = DrawInstance(wide_nu, trial, rng);
    const std::vector<uint64_t> rows =
        Rows(static_cast<int>(in.supply.size()),
             static_cast<int>(in.demand.size()), in.edges);
    for (const bool scaled : {false, true}) {
      const std::vector<int64_t> supply =
          scaled ? Scaled(in.supply) : in.supply;
      const std::vector<int64_t> demand =
          scaled ? Scaled(in.demand) : in.demand;
      const FeasibilityVerdict got = Feasible(supply, demand, rows);
      const FeasibilityVerdict want = StableSortFeasible(supply, demand, rows);
      EXPECT_EQ(got.exit, want.exit) << "trial " << trial << " " << scaled;
      EXPECT_EQ(got.feasible, want.feasible)
          << "trial " << trial << " " << scaled;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BipartiteFeasibilityProperty,
    ::testing::Values(std::make_tuple(1, 0), std::make_tuple(2, 0),
                      std::make_tuple(3, 0), std::make_tuple(4, 0),
                      std::make_tuple(5, 63), std::make_tuple(6, 64),
                      std::make_tuple(7, 65)));

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
      // Index order would saturate u0 on v0 and strand u1; serving v1
      // (degree 1) first routes everything.
      {"greedy serves the scarce vertex first", {1, 1}, {1, 1},
       {{0, 0}, {0, 1}, {1, 0}}, FeasibilityExit::kGreedy},
      // v2 (degree 1) takes half of u1. v0's neighbours u0 and u1 tie at
      // degree 2, so v0 takes u0, and v1 is left a unit short of u0 + u2
      // while u1 keeps a unit: only the augmenting path u1 -> v0 -> u0 ->
      // v1 routes everything.
      {"feasible only by augmenting", {1, 2, 1}, {1, 2, 1},
       {{0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}}, FeasibilityExit::kMaxFlow},
      // v0 and v1 share their one neighbour u0: a two-vertex Hall
      // violation that no single vertex shows.
      {"infeasible by a pair", {1, 1, 1}, {1, 1, 1},
       {{0, 0}, {0, 1}, {1, 2}, {2, 2}}, FeasibilityExit::kMaxFlow},
  };
  for (const Case& c : cases) {
    const std::vector<uint64_t> rows = Rows(
        static_cast<int>(c.supply.size()), static_cast<int>(c.demand.size()),
        c.edges);
    const FeasibilityVerdict verdict =
        Feasible(Scaled(c.supply), Scaled(c.demand), rows);
    EXPECT_EQ(verdict.exit, c.exit) << c.name;
    EXPECT_EQ(verdict.feasible, HallFeasible(c.supply, c.demand, rows))
        << c.name;
  }
}

// The slack tolerates rounding-sized shortfalls on every path: a flow
// short by less than nu + nv units is still feasible.
TEST(BipartiteFeasibleTest, SlackAcceptsRoundingShortfall) {
  // u1 can reach nothing, but its one unit is inside the slack of 4.
  const FeasibilityVerdict hall =
      Feasible({kUnit, 1}, {kUnit, 1}, Rows(2, 2, {{0, 0}, {0, 1}}));
  EXPECT_TRUE(hall.feasible);
  EXPECT_EQ(hall.exit, FeasibilityExit::kGreedy);
  // Index order would strand v0's mass on the way; serving v1 and v2
  // (degree 1) first routes all but u2's unit.
  const FeasibilityVerdict greedy =
      Feasible({kUnit, kUnit, 1}, {kUnit, kUnit, 1},
               Rows(3, 3, {{0, 0}, {0, 1}, {1, 0}, {0, 2}}));
  EXPECT_TRUE(greedy.feasible);
  EXPECT_EQ(greedy.exit, FeasibilityExit::kGreedy);
  // The same shortfall (u3's unit) beside the trap of "feasible only by
  // augmenting": the greedy strands a kUnit there, and Dinic decides.
  const FeasibilityVerdict dinic = Feasible(
      {kUnit, 2 * kUnit, kUnit, 1}, {kUnit, 2 * kUnit, kUnit, 1},
      Rows(4, 4, {{0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {1, 3}}));
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
