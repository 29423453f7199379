// Adversarial fuzzing for the tie handling of the NNC search: objects on
// integer lattices produce massive distance ties, exact duplicates, and
// min-distance-order inversions — the regime where Algorithm 1's access-
// order argument is weakest and the final cleanup must restore exactness.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_order.h"
#include "core/nnc_search.h"
#include "core/object_profile.h"
#include "core/query_context.h"
#include "test_util.h"

namespace osd {
namespace {

using test::LatticeObject;

class TieFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TieFuzz, NncExactUnderMassiveTies) {
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 8; ++trial) {
    const int dim = 1 + static_cast<int>(rng.UniformInt(0, 1));
    const int span = 3 + static_cast<int>(rng.UniformInt(0, 3));
    std::vector<UncertainObject> objects;
    const int n = 20 + static_cast<int>(rng.UniformInt(0, 15));
    for (int i = 0; i < n; ++i) {
      const int m = 1 + static_cast<int>(rng.UniformInt(0, 2));
      objects.push_back(LatticeObject(i, dim, m, span, rng));
    }
    // Inject an exact duplicate of object 0 (the search keys objects by
    // position, so the shared id field is irrelevant).
    objects[n - 1] = objects[0];
    const UncertainObject query = LatticeObject(-1, dim, 2, span, rng);

    for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                        Operator::kFSd}) {
      auto brute = [op](const UncertainObject& u, const UncertainObject& v,
                        const UncertainObject& q) {
        return test::BruteUnder(op, u, v, q, Metric::kL2);
      };
      const auto expected = test::BruteNnc(objects, query, brute);
      const Dataset dataset(objects);
      NncOptions options;
      options.op = op;
      const auto result = NncSearch(dataset, options).Run(query);
      EXPECT_EQ(
          std::set<int>(result.candidates.begin(), result.candidates.end()),
          std::set<int>(expected.begin(), expected.end()))
          << OperatorName(op) << " trial " << trial << " span " << span;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieFuzz, ::testing::Values(1, 2, 3, 4, 5));

// Lattice object on a 0.1 grid: `m` instances at multiples of 0.1 in
// [0, span / 10]^dim. Distances that are equal in the reals often differ
// by an ulp in doubles (0.5 - 0.3 is 0.2, 0.3 - 0.1 is 0.19999999999999998).
UncertainObject TenthLattice(int id, int dim, int m, int span, Rng& rng) {
  std::vector<double> coords;
  for (int k = 0; k < m * dim; ++k) {
    coords.push_back(0.1 * static_cast<double>(rng.UniformInt(0, span)));
  }
  return UncertainObject::Uniform(id, dim, std::move(coords));
}

// Pairs 10^6 away from the query, serve_rw's write scale, whose MBR gap
// sits within a few 1e-9 of the cover margin. Per axis direction: u has 2-3
// instances on a segment along the axis, most mass on the farthest, and v
// is u moved outwards by its extent plus a shift s, most mass on the
// nearest. v's nearest instance is then s beyond u's farthest: the boxes'
// gap crosses the 1e-9 cover margin as s varies, where the L2 cover test's
// squared gaps (~1e12) round the most. S-SD and SS-SD hold iff s >= 0, so
// a cover test that accepts a pair below the margin shows against brute
// force. P-SD and F-SD get s >= 0 only: below 0 their 1e-9 order and the
// brute force's 1e-12 differ by design. Positions are random, so no other
// comparison comes within 1e-9 of a tie.
std::vector<UncertainObject> FarPairs(Operator op, int dim, Rng& rng) {
  const bool exact_order = op == Operator::kSSd || op == Operator::kSsSd;
  std::vector<UncertainObject> out;
  for (int axis = 0; axis < dim; ++axis) {
    for (double sign : {1.0, -1.0}) {
      const int m = 2 + static_cast<int>(rng.UniformInt(0, 1));
      const double base = 1e6 + rng.Uniform(0.0, 1.0);
      std::vector<double> along = {0.0};
      for (int i = 1; i < m; ++i) along.push_back(rng.Uniform(0.1, 0.4));
      std::sort(along.begin(), along.end());
      const double extent = along.back();
      const double shift =
          0.5e-9 * static_cast<double>(rng.UniformInt(exact_order ? -4 : 0, 8));
      std::vector<double> across(dim);
      for (double& c : across) c = rng.Uniform(0.0, 0.6);
      std::vector<double> ucoords, vcoords, uweights, vweights;
      for (int i = 0; i < m; ++i) {
        for (int d = 0; d < dim; ++d) {
          ucoords.push_back(d == axis ? sign * (base + along[i]) : across[d]);
          vcoords.push_back(
              d == axis ? sign * (base + extent + shift + along[i])
                        : across[d]);
        }
        uweights.push_back(i + 1 == m ? 8.0 : 1.0);
        vweights.push_back(i == 0 ? 8.0 : 1.0);
      }
      const int id = static_cast<int>(out.size());
      out.push_back(UncertainObject::FromWeighted(id, dim, std::move(ucoords),
                                                  std::move(uweights)));
      out.push_back(UncertainObject::FromWeighted(
          id + 1, dim, std::move(vcoords), std::move(vweights)));
    }
  }
  return out;
}

// An object's check tries the members in ascending key and stops at the
// first key above the checked object's bound. S-SD, SS-SD and P-SD: the
// key is MaxAll(), the bound MaxAll() plus the stat gate's 1e-9. F-SD: the
// key is the reach (the largest farthest distance over the hull), the
// bound the largest nearest distance plus the order's 1e-9. P-SD and F-SD
// compare instance distances with a 1e-9 tolerance, so when u's key and
// v's bound are equal in the reals, u's key can land an ulp above v's
// untolerated bound although u dominates v: the cutoff is sound only with
// the tolerance, and both operators must meet that edge, or the fuzz tests
// nothing. S-SD and SS-SD compare distances exactly (their tolerance is on
// mass), so no dominator lies above even the untolerated bound. The second
// input holds the cover rule to brute force at 10^6.
class CutoffFuzz : public ::testing::TestWithParam<Operator> {};

TEST_P(CutoffFuzz, MatchesBruteForceAtTheToleranceEdge) {
  const Operator op = GetParam();
  int edge_pairs = 0;
  int covered = 0;    // far pairs past the cover margin
  int uncovered = 0;  // ... and short of it
  for (int seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 13 + 5);
    for (int trial = 0; trial < 16; ++trial) {
      const int dim = 1 + static_cast<int>(rng.UniformInt(0, 1));
      std::vector<UncertainObject> lattice;
      const int n = 10 + static_cast<int>(rng.UniformInt(0, 30));
      for (int i = 0; i < n; ++i) {
        const int m = 1 + static_cast<int>(rng.UniformInt(0, 2));
        lattice.push_back(TenthLattice(i, dim, m, 6, rng));
      }
      const UncertainObject query = TenthLattice(
          -1, dim, 1 + static_cast<int>(rng.UniformInt(0, 2)), 6, rng);
      for (bool far : {false, true}) {
        const std::vector<UncertainObject> objects =
            far ? FarPairs(op, dim, rng) : lattice;
        const Dataset dataset(objects);
        for (Metric metric : {Metric::kL2, Metric::kL1}) {
          auto brute = [op, metric](const UncertainObject& u,
                                    const UncertainObject& v,
                                    const UncertainObject& q) {
            return test::BruteUnder(op, u, v, q, metric);
          };
          // Per query instance, an object's largest (farthest) or smallest
          // (nearest) instance distance; then the largest over the query.
          auto extreme = [&](const UncertainObject& o, bool farthest) {
            double out = 0.0;
            for (int qi = 0; qi < query.num_instances(); ++qi) {
              double best =
                  farthest ? 0.0 : std::numeric_limits<double>::max();
              for (int j = 0; j < o.num_instances(); ++j) {
                const double d =
                    PointDistance(query.Instance(qi), o.Instance(j), metric);
                best = farthest ? std::max(best, d) : std::min(best, d);
              }
              out = std::max(out, best);
            }
            return out;
          };
          const bool reach = op == Operator::kFSd;
          for (const UncertainObject& u : objects) {
            for (const UncertainObject& v : objects) {
              if (&u != &v && extreme(u, true) > extreme(v, !reach) &&
                  brute(u, v, query)) {
                ++edge_pairs;
              }
            }
          }
          for (size_t i = 0; far && i < objects.size(); i += 2) {
            ++(MbrStrictlyDominatesM(objects[i].mbr(), objects[i + 1].mbr(),
                                     query.mbr(), metric, 1e-9)
                   ? covered
                   : uncovered);
          }
          for (int k : {1, 3}) {
            const auto expected = test::BruteKNnc(objects, query, brute, k);
            for (bool geometric : {true, false}) {
              NncOptions options;
              options.op = op;
              options.metric = metric;
              options.k = k;
              options.filters.geometric = geometric;
              const auto result = NncSearch(dataset, options).Run(query);
              EXPECT_EQ(std::set<int>(result.candidates.begin(),
                                      result.candidates.end()),
                        std::set<int>(expected.begin(), expected.end()))
                  << "seed " << seed << " trial " << trial
                  << (far ? " far" : " lattice") << " L"
                  << (metric == Metric::kL2 ? 2 : 1) << " k=" << k
                  << " geometric=" << geometric;
            }
          }
        }
      }
    }
  }
  if (op == Operator::kPSd || op == Operator::kFSd) {
    EXPECT_GT(edge_pairs, 0);
  } else {
    EXPECT_EQ(edge_pairs, 0);
  }
  EXPECT_GT(covered, 0);
  EXPECT_GT(uncovered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Operators, CutoffFuzz,
    ::testing::Values(Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                      Operator::kFSd),
    [](const ::testing::TestParamInfo<Operator>& info) {
      return std::string(OperatorName(info.param));
    });

TEST(TieFuzzDirected, CoLocatedObjectsWithDifferentMixtures) {
  // Objects sharing support points but with different probability splits:
  // stochastic dominance reduces to probability-vector comparisons.
  const UncertainObject q = UncertainObject::Uniform(-1, 1, {0.0});
  std::vector<UncertainObject> objects;
  objects.push_back(UncertainObject(0, 1, {1.0, 5.0}, {0.8, 0.2}));
  objects.push_back(UncertainObject(1, 1, {1.0, 5.0}, {0.5, 0.5}));
  objects.push_back(UncertainObject(2, 1, {1.0, 5.0}, {0.2, 0.8}));
  // 0 dominates 1 dominates 2 under every operator that looks at the
  // distributions (identical supports, shifted mass).
  EXPECT_TRUE(test::BruteSSd(objects[0], objects[1], q));
  EXPECT_TRUE(test::BruteSSd(objects[1], objects[2], q));
  EXPECT_TRUE(test::BrutePSd(objects[0], objects[2], q));
  const Dataset dataset(objects);
  for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd}) {
    NncOptions options;
    options.op = op;
    const auto result = NncSearch(dataset, options).Run(q);
    EXPECT_EQ(result.candidates, std::vector<int>{0}) << OperatorName(op);
  }
  // F-SD cannot separate them (cross pairs tie), so all three survive.
  NncOptions options;
  options.op = Operator::kFSd;
  const auto result = NncSearch(dataset, options).Run(q);
  EXPECT_EQ(result.candidates.size(), 3u);
}

// Regression: ObjectProfile's sorted views used a plain std::sort on
// (distance, pair-index) data with no tie-break, so the probability pairing
// of equal distances depended on the standard library's (unstable) sort —
// different orders on libstdc++ vs libc++, breaking the bit-identical
// determinism contract. Ties must order by flattened pair index.
TEST(TieFuzzDirected, SortedAllTieOrderIsDeterministic) {
  // Query (0,0) w.p. 0.25, (3,0) w.p. 0.75; object (1,0) w.p. 0.9,
  // (2,0) w.p. 0.1. The 4 pairwise distances are [1, 2, 2, 1] in flattened
  // (qi, ui) order: two two-way ties whose probabilities all differ, so any
  // tie-order deviation changes SortedProbs.
  const UncertainObject query(-1, 2, {0.0, 0.0, 3.0, 0.0}, {0.25, 0.75});
  const UncertainObject object(0, 2, {1.0, 0.0, 2.0, 0.0}, {0.9, 0.1});
  QueryContext ctx(query, Metric::kL2);
  ObjectProfile profile(object, ctx, nullptr);
  const auto values = profile.SortedValues();
  const auto probs = profile.SortedProbs();
  const std::vector<double> expected_values = {1.0, 1.0, 2.0, 2.0};
  // Index order within ties: pair (q0,u0) before (q1,u1), then (q0,u1)
  // before (q1,u0).
  const std::vector<double> expected_probs = {0.25 * 0.9, 0.75 * 0.1,
                                              0.25 * 0.1, 0.75 * 0.9};
  ASSERT_EQ(values.size(), expected_values.size());
  for (size_t i = 0; i < expected_values.size(); ++i) {
    EXPECT_DOUBLE_EQ(values[i], expected_values[i]) << i;
    EXPECT_DOUBLE_EQ(probs[i], expected_probs[i]) << i;
  }
}

TEST(TieFuzzDirected, SortedPerQTieOrderIsDeterministic) {
  // Both object instances are at distance 1 from the single query
  // instance; the per-q sorted probabilities must come out in instance
  // order regardless of the standard library's sort internals.
  const UncertainObject query = UncertainObject::Uniform(-1, 2, {0.0, 0.0});
  const UncertainObject object(0, 2, {1.0, 0.0, -1.0, 0.0}, {0.9, 0.1});
  QueryContext ctx(query, Metric::kL2);
  ObjectProfile profile(object, ctx, nullptr);
  const auto values = profile.SortedQValues(0);
  const auto probs = profile.SortedQProbs(0);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 1.0);
  EXPECT_DOUBLE_EQ(probs[0], 0.9);
  EXPECT_DOUBLE_EQ(probs[1], 0.1);
}

// The comparator order every sorted view promises: ascending distance,
// ties by index.
std::vector<int> ComparatorOrder(const std::vector<double>& dist) {
  std::vector<int> order(dist.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
  });
  return order;
}

// Rows of each shape OrderByDistance has a separate path for, at sizes
// from a single entry up to a GW-sized all-pairs view.
TEST(DistanceOrder, MatchesComparatorOrder) {
  Rng rng(2718);
  DistanceOrderScratch scratch;  // reused across sizes, as profiles do
  for (const int n : {1, 2, 40, 1200, 18000}) {
    std::vector<std::vector<double>> rows;
    // Seeded random distances.
    std::vector<double> random(n);
    for (double& d : random) d = rng.Uniform(0.0, 1e4);
    rows.push_back(random);
    // Lattice ties: instances on a 7 x 7 grid, distances to a grid point.
    const UncertainObject lattice = LatticeObject(0, 2, n, 6, rng);
    const std::vector<double> q = {static_cast<double>(rng.UniformInt(0, 6)),
                                   static_cast<double>(rng.UniformInt(0, 6))};
    std::vector<double> ties(n);
    for (int i = 0; i < n; ++i) {
      const double dx = lattice.Instance(i)[0] - q[0];
      const double dy = lattice.Instance(i)[1] - q[1];
      ties[i] = std::sqrt(dx * dx + dy * dy);
    }
    rows.push_back(ties);
    // Signed zeros among small positives: -0.0 and +0.0 tie.
    std::vector<double> zeros(n);
    const double pool[] = {0.0, -0.0, 0.5, 1.0};
    for (double& d : zeros) d = pool[rng.UniformInt(0, 3)];
    rows.push_back(zeros);
    // A tight cluster a few ulps wide plus one far outlier: the cluster
    // lands in one bucket, which takes the crowded-bucket path.
    std::vector<double> cluster(n);
    for (double& d : cluster) {
      d = 1.0;
      for (int k = static_cast<int>(rng.UniformInt(0, 8)); k > 0; --k) {
        d = std::nextafter(d, 2.0);
      }
    }
    cluster[rng.UniformInt(0, n - 1)] = 1e300;
    rows.push_back(cluster);

    for (size_t r = 0; r < rows.size(); ++r) {
      const std::span<const int> got = OrderByDistance(rows[r], &scratch);
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()),
                ComparatorOrder(rows[r]))
          << "n " << n << " row kind " << r;
    }
  }
}

TEST(DistanceOrder, EmptyRow) {
  DistanceOrderScratch scratch;
  EXPECT_TRUE(OrderByDistance({}, &scratch).empty());
}

// The rank view and the per-q sorted view are built by separate code from
// the same order, so their distances agree entry for entry.
TEST(DistanceOrder, RankViewsEqualPerQSortedViews) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 70));
    const UncertainObject object =
        trial % 2 == 0 ? LatticeObject(0, 2, m, 4, rng)
                       : test::RandomWeightedObject(0, 2, m, 100.0, 20.0, rng);
    const UncertainObject query = LatticeObject(-1, 2, 5, 4, rng);
    QueryContext ctx(query, Metric::kL2);
    ObjectProfile profile(object, ctx, nullptr);
    for (int qi = 0; qi < ctx.num_instances(); ++qi) {
      const auto sorted = profile.SortedQValues(qi);
      const auto ranked = profile.Ranks(qi).sorted;
      EXPECT_EQ(std::vector<double>(ranked.begin(), ranked.end()),
                std::vector<double>(sorted.begin(), sorted.end()))
          << "trial " << trial << " qi " << qi;
    }
  }
}

// RankView::Count's cell index against std::upper_bound on one ascending
// row: thresholds below the minimum, above the maximum, at every entry
// and one ulp either side of it, both signed zeros, and random values in
// between.
void ExpectCountsMatchUpperBound(std::vector<double> row, Rng& rng,
                                 const char* kind) {
  std::sort(row.begin(), row.end());
  std::vector<int> cell_start;
  ObjectProfile::RankView view{};
  view.sorted = row;
  view.scale = ObjectProfile::RankView::BuildCells(row, &cell_start);
  view.cell_start = cell_start.data();
  view.last_cell = static_cast<int>(cell_start.size()) - 2;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> thresholds = {-1.0, -0.0, 0.0, row.front() - 1.0,
                                    row.back() + 1.0, inf};
  for (const double d : row) {
    thresholds.push_back(d);
    thresholds.push_back(std::nextafter(d, -inf));
    thresholds.push_back(std::nextafter(d, inf));
    thresholds.push_back(d + 1e-9);
  }
  for (int k = 0; k < 64; ++k) {
    thresholds.push_back(rng.Uniform(row.front(), row.back()));
  }
  for (const double d : thresholds) {
    const int want = static_cast<int>(
        std::upper_bound(row.begin(), row.end(), d) - row.begin());
    ASSERT_EQ(view.Count(d), want)
        << kind << " m " << row.size() << " threshold " << d;
  }
}

TEST(RankCellIndex, CountMatchesUpperBound) {
  Rng rng(1729);
  for (const int m : {1, 2, 3, 9, 40, 257, 1200}) {
    // Seeded random distances.
    std::vector<double> random(m);
    for (double& d : random) d = rng.Uniform(0.0, 1e4);
    ExpectCountsMatchUpperBound(random, rng, "random");
    // A tie lattice: distances from a grid point to instances on a grid.
    const UncertainObject lattice = LatticeObject(0, 2, m, 6, rng);
    std::vector<double> ties(m);
    for (int i = 0; i < m; ++i) {
      ties[i] = std::hypot(lattice.Instance(i)[0] - 3.0,
                           lattice.Instance(i)[1] - 2.0);
    }
    ExpectCountsMatchUpperBound(ties, rng, "lattice");
    // All equal: a zero-span row.
    ExpectCountsMatchUpperBound(std::vector<double>(m, 2.5), rng, "equal");
    ExpectCountsMatchUpperBound(std::vector<double>(m, 0.0), rng, "zeros");
    // Signed zeros among small positives: -0.0 and +0.0 tie.
    std::vector<double> zeros(m);
    const double pool[] = {0.0, -0.0, 0.5, 1.0};
    for (double& d : zeros) d = pool[rng.UniformInt(0, 3)];
    ExpectCountsMatchUpperBound(zeros, rng, "signed zeros");
    // A tight cluster a few ulps wide plus one far outlier: the cluster
    // crowds one cell, where Count binary-searches.
    std::vector<double> cluster(m);
    for (double& d : cluster) {
      d = 1.0;
      for (int k = static_cast<int>(rng.UniformInt(0, 8)); k > 0; --k) {
        d = std::nextafter(d, 2.0);
      }
    }
    cluster[rng.UniformInt(0, m - 1)] = 1e300;
    ExpectCountsMatchUpperBound(cluster, rng, "cluster + outlier");
    // A span so narrow that cells / span overflows.
    std::vector<double> subnormal(m);
    for (double& d : subnormal) {
      d = std::numeric_limits<double>::denorm_min() * rng.UniformInt(0, 3);
    }
    ExpectCountsMatchUpperBound(subnormal, rng, "subnormal span");
  }
}

// The same through the profile: each rank view counts like upper_bound
// over its own sorted row at P-SD's thresholds.
TEST(RankCellIndex, ProfileRankViewsCountLikeUpperBound) {
  Rng rng(97);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 90));
    const UncertainObject object =
        trial % 2 == 0 ? LatticeObject(0, 2, m, 4, rng)
                       : test::RandomWeightedObject(0, 2, m, 100.0, 20.0, rng);
    const UncertainObject query = LatticeObject(-1, 2, 5, 4, rng);
    QueryContext ctx(query, Metric::kL2);
    ObjectProfile profile(object, ctx, nullptr);
    for (int qi = 0; qi < ctx.num_instances(); ++qi) {
      const ObjectProfile::RankView view = profile.Ranks(qi);
      for (const double d : view.sorted) {
        for (const double t : {d, d + 1e-9, std::nextafter(d, 0.0)}) {
          EXPECT_EQ(view.Count(t),
                    std::upper_bound(view.sorted.begin(), view.sorted.end(),
                                     t) -
                        view.sorted.begin())
              << "trial " << trial << " qi " << qi << " threshold " << t;
        }
      }
    }
  }
}

// On lattice objects nearly every distance is tied, so the probability
// pairing of the sorted views shows any deviation from index order.
TEST(DistanceOrder, LatticeSortedViewsEqualComparatorReference) {
  Rng rng(47);
  for (int trial = 0; trial < 6; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 60));
    std::vector<double> coords;
    std::vector<double> weights;
    for (int i = 0; i < m; ++i) {
      coords.push_back(static_cast<double>(rng.UniformInt(0, 3)));
      coords.push_back(static_cast<double>(rng.UniformInt(0, 3)));
      weights.push_back(rng.Uniform(0.5, 2.0));
    }
    const UncertainObject object =
        UncertainObject::FromWeighted(0, 2, coords, weights);
    const UncertainObject query = LatticeObject(-1, 2, 4, 3, rng);
    QueryContext ctx(query, Metric::kL2);
    ObjectProfile profile(object, ctx, nullptr);
    const int nq = ctx.num_instances();
    std::vector<double> matrix;
    for (int qi = 0; qi < nq; ++qi) {
      for (int ui = 0; ui < m; ++ui) matrix.push_back(profile.Dist(qi, ui));
    }
    std::vector<double> values;
    std::vector<double> probs;
    for (const int idx : ComparatorOrder(matrix)) {
      values.push_back(matrix[idx]);
      probs.push_back(ctx.probs()[idx / m] * object.Prob(idx % m));
    }
    const auto got_values = profile.SortedValues();
    const auto got_probs = profile.SortedProbs();
    EXPECT_EQ(std::vector<double>(got_values.begin(), got_values.end()),
              values)
        << "trial " << trial;
    EXPECT_EQ(std::vector<double>(got_probs.begin(), got_probs.end()), probs)
        << "trial " << trial;
    for (int qi = 0; qi < nq; ++qi) {
      const std::vector<double> row(matrix.begin() + qi * m,
                                    matrix.begin() + (qi + 1) * m);
      std::vector<double> row_probs;
      for (const int ui : ComparatorOrder(row)) {
        row_probs.push_back(object.Prob(ui));
      }
      const auto got = profile.SortedQProbs(qi);
      EXPECT_EQ(std::vector<double>(got.begin(), got.end()), row_probs)
          << "trial " << trial << " qi " << qi;
    }
  }
}

// Lattice ties end-to-end: the candidate EMISSION ORDER (not just the set)
// must be identical across runs — it feeds the timeline and any downstream
// consumer that relies on replayable output.
TEST(TieFuzzDirected, LatticeEmissionOrderIsReproducible) {
  Rng rng(99);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < 24; ++i) {
    objects.push_back(LatticeObject(i, 2, 3, 3, rng));
  }
  const UncertainObject query = LatticeObject(-1, 2, 2, 3, rng);
  const Dataset dataset(objects);
  for (Operator op : {Operator::kSSd, Operator::kPSd}) {
    NncOptions options;
    options.op = op;
    const auto first = NncSearch(dataset, options).Run(query);
    for (int rep = 0; rep < 3; ++rep) {
      const auto again = NncSearch(dataset, options).Run(query);
      EXPECT_EQ(again.candidates, first.candidates) << OperatorName(op);
    }
  }
}

}  // namespace
}  // namespace osd
