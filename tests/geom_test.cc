// Unit and property tests for the geometry substrate: points, MBRs, the
// optimal MBR dominance decision, and convex hulls.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/convex_hull.h"
#include "geom/mbr.h"
#include "geom/metric.h"
#include "geom/point.h"

namespace osd {
namespace {

TEST(PointTest, BasicProperties) {
  const Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dim(), 3);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
  const Point q{4.0, 6.0, 3.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(p, q), 25.0);
  EXPECT_DOUBLE_EQ(Distance(p, q), 5.0);
  EXPECT_TRUE(p == p);
  EXPECT_FALSE(p == q);
}

TEST(PointTest, FlatBufferConstructor) {
  const double buf[4] = {1.0, 2.0, 3.0, 4.0};
  const Point p(buf + 1, 2);
  EXPECT_EQ(p.dim(), 2);
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 3.0);
}

TEST(PointTest, SetDistances) {
  const std::vector<Point> set = {{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  const Point x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(MinDistanceToSet(x, set), 0.0);
  EXPECT_DOUBLE_EQ(MaxDistanceToSet(x, set), 10.0);
}

TEST(MbrTest, ExpandAndContain) {
  Mbr box;
  EXPECT_FALSE(box.valid());
  box.Expand(Point{1.0, 5.0});
  box.Expand(Point{3.0, 2.0});
  EXPECT_TRUE(box.valid());
  EXPECT_DOUBLE_EQ(box.lo()[0], 1.0);
  EXPECT_DOUBLE_EQ(box.lo()[1], 2.0);
  EXPECT_DOUBLE_EQ(box.hi()[0], 3.0);
  EXPECT_DOUBLE_EQ(box.hi()[1], 5.0);
  EXPECT_TRUE(box.Contains(Point{2.0, 3.0}));
  EXPECT_FALSE(box.Contains(Point{0.0, 3.0}));
  Mbr other(Point{2.0, 3.0});
  EXPECT_TRUE(box.Contains(other));
  EXPECT_TRUE(box.Intersects(other));
}

TEST(MbrTest, PointDistances) {
  const Mbr box(Point{0.0, 0.0}, Point{2.0, 2.0});
  EXPECT_DOUBLE_EQ(MbrMinDist(box, Point{1.0, 1.0}, Metric::kL2),
                   0.0);  // inside
  EXPECT_DOUBLE_EQ(MbrMinDist(box, Point{5.0, 2.0}, Metric::kL2), 3.0);
  EXPECT_DOUBLE_EQ(MbrMaxDist(box, Point{1.0, 1.0}, Metric::kL2),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MbrMaxDist(box, Point{-1.0, 0.0}, Metric::kL2),
                   std::sqrt(13.0));
}

TEST(MbrTest, BoxDistances) {
  const Mbr a(Point{0.0, 0.0}, Point{1.0, 1.0});
  const Mbr b(Point{4.0, 5.0}, Point{6.0, 6.0});
  EXPECT_DOUBLE_EQ(a.MinSquaredDist(b), 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(a.MinSquaredDist(a), 0.0);
}

// Property test: the closed-form O(d) MBR dominance decision must agree
// with a dense sample over the three boxes.
class MbrDominanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(MbrDominanceProperty, AgreesWithSampling) {
  const int dim = GetParam();
  Rng rng(1234 + dim);
  int dominated_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto random_box = [&](double spread) {
      Point lo(dim), hi(dim);
      for (int i = 0; i < dim; ++i) {
        const double a = rng.Uniform(0.0, 10.0);
        const double b = a + rng.Uniform(0.0, spread);
        lo[i] = a;
        hi[i] = b;
      }
      return Mbr(lo, hi);
    };
    // Construct U near the query and V farther away half the time so that
    // both outcomes are exercised.
    const Mbr qbox = random_box(2.0);
    Mbr ubox = random_box(2.0);
    Mbr vbox = random_box(2.0);
    const bool closed_form = MbrDominates(ubox, vbox, qbox);
    if (closed_form) ++dominated_seen;

    // Sampled verdict: max over sampled q of maxdist(q,U) - mindist(q,V).
    bool sampled_dominates = true;
    for (int s = 0; s < 200 && sampled_dominates; ++s) {
      Point q(dim);
      for (int i = 0; i < dim; ++i) {
        q[i] = rng.Uniform(qbox.lo()[i], qbox.hi()[i]);
      }
      if (MbrMaxDist(ubox, q, Metric::kL2) >
          MbrMinDist(vbox, q, Metric::kL2) + 1e-9) {
        sampled_dominates = false;
      }
    }
    // Corners of the query box are the most adversarial positions; add
    // them (up to 2^dim) to the sample.
    for (int mask = 0; mask < (1 << dim) && sampled_dominates; ++mask) {
      Point q(dim);
      for (int i = 0; i < dim; ++i) {
        q[i] = (mask >> i) & 1 ? qbox.hi()[i] : qbox.lo()[i];
      }
      if (MbrMaxDist(ubox, q, Metric::kL2) >
          MbrMinDist(vbox, q, Metric::kL2) + 1e-9) {
        sampled_dominates = false;
      }
    }
    if (closed_form) {
      EXPECT_TRUE(sampled_dominates)
          << "closed form claims dominance refuted by a sample (dim " << dim
          << ", trial " << trial << ")";
    }
    // The converse direction: sampling can only *refute*; if sampling
    // refutes, the closed form must refute too (it is exact).
    if (!sampled_dominates) {
      EXPECT_FALSE(closed_form);
    }
  }
  SUCCEED() << "dominated cases seen: " << dominated_seen;
}

INSTANTIATE_TEST_SUITE_P(Dims, MbrDominanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MbrDominanceTest, HandConstructedCases) {
  // U tightly around (0,0); V around (10,10); Q around (1,1):
  // clear dominance.
  const Mbr u(Point{-0.5, -0.5}, Point{0.5, 0.5});
  const Mbr v(Point{9.0, 9.0}, Point{11.0, 11.0});
  const Mbr q(Point{0.5, 0.5}, Point{1.5, 1.5});
  EXPECT_TRUE(MbrDominates(u, v, q));
  EXPECT_TRUE(MbrStrictlyDominates(u, v, q));
  EXPECT_FALSE(MbrDominates(v, u, q));

  // Identical boxes: non-strict dominance may hold only for degenerate
  // (point) boxes; strict never holds.
  EXPECT_FALSE(MbrStrictlyDominates(u, u, q));
  const Mbr pt(Point{2.0, 2.0});
  EXPECT_TRUE(MbrDominates(pt, pt, q));
  EXPECT_FALSE(MbrStrictlyDominates(pt, pt, q));
}

TEST(MbrDominanceTest, QueryInsideGapBreaksDominance) {
  // U and V on opposite sides of the query box: V has points closer to
  // some query positions, so no dominance either way.
  const Mbr u(Point{-2.0, 0.0}, Point{-1.0, 1.0});
  const Mbr v(Point{1.0, 0.0}, Point{2.0, 1.0});
  const Mbr q(Point{-1.0, 0.0}, Point{1.0, 1.0});
  EXPECT_FALSE(MbrDominates(u, v, q));
  EXPECT_FALSE(MbrDominates(v, u, q));
}

TEST(ConvexHull2DTest, Square) {
  const std::vector<Point> pts = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0},
                                  {0.0, 1.0}, {0.5, 0.5}, {0.2, 0.8}};
  std::vector<int> hull = MonotoneChain2D(pts);
  std::sort(hull.begin(), hull.end());
  EXPECT_EQ(hull, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ConvexHull2DTest, CollinearPointsDropped) {
  const std::vector<Point> pts = {
      {0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {2.0, 0.0}};
  std::vector<int> hull = MonotoneChain2D(pts);
  std::sort(hull.begin(), hull.end());
  EXPECT_EQ(hull, (std::vector<int>{0, 2, 3}));
}

TEST(ConvexHull2DTest, DuplicatesHandled) {
  const std::vector<Point> pts = {
      {0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}};
  const std::vector<int> hull = MonotoneChain2D(pts);
  EXPECT_EQ(hull.size(), 3u);
}

TEST(ConvexHull2DTest, InsideHull) {
  const std::vector<Point> pts = {{0.0, 0.0}, {4.0, 0.0}, {4.0, 4.0},
                                  {0.0, 4.0}};
  const std::vector<int> hull = MonotoneChain2D(pts);
  EXPECT_TRUE(InsideHull2D(Point{2.0, 2.0}, pts, hull));
  EXPECT_FALSE(InsideHull2D(Point{5.0, 2.0}, pts, hull));
  EXPECT_FALSE(InsideHull2D(Point{0.0, 0.0}, pts, hull));  // boundary
}

// Brute-force 2-d hull membership: a point is a hull vertex iff it is not
// inside the hull of the others... instead we verify the hull property
// directly: all points must lie inside or on the hull polygon.
TEST(ConvexHull2DTest, RandomPointsAllInsideHull) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point> pts;
    const int n = 3 + static_cast<int>(rng.UniformInt(0, 47));
    for (int i = 0; i < n; ++i) {
      pts.push_back(Point{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
    }
    const std::vector<int> hull = MonotoneChain2D(pts);
    ASSERT_GE(hull.size(), 1u);
    // Every input point must not be strictly outside any hull edge.
    for (size_t e = 0; e < hull.size() && hull.size() >= 3; ++e) {
      const Point& a = pts[hull[e]];
      const Point& b = pts[hull[(e + 1) % hull.size()]];
      for (const Point& p : pts) {
        const double cross = (b[0] - a[0]) * (p[1] - a[1]) -
                             (b[1] - a[1]) * (p[0] - a[0]);
        EXPECT_GE(cross, -1e-9) << "point outside hull edge";
      }
    }
  }
}

TEST(ConvexHull3DTest, UnitCubeCorners) {
  std::vector<Point> pts;
  for (int mask = 0; mask < 8; ++mask) {
    pts.push_back(Point{static_cast<double>(mask & 1),
                        static_cast<double>((mask >> 1) & 1),
                        static_cast<double>((mask >> 2) & 1)});
  }
  pts.push_back(Point{0.5, 0.5, 0.5});  // interior
  pts.push_back(Point{0.2, 0.7, 0.4});  // interior
  const std::vector<int> hull = QuickHull3D(pts);
  std::set<int> hull_set(hull.begin(), hull.end());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(hull_set.count(i)) << i;
  EXPECT_FALSE(hull_set.count(8));
  EXPECT_FALSE(hull_set.count(9));
}

TEST(ConvexHull3DTest, DegenerateCoplanarFallsBackToAll) {
  std::vector<Point> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(
        Point{static_cast<double>(i), static_cast<double>(i % 3), 0.0});
  }
  const std::vector<int> hull = QuickHull3D(pts);
  EXPECT_EQ(hull.size(), pts.size());  // safe superset
}

// Property: every point must lie inside (or on) the returned 3-d hull; we
// verify via the support-function characterization -- for many random
// directions, the maximizing point must be a hull vertex.
TEST(ConvexHull3DTest, SupportPointsAreHullVertices) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> pts;
    const int n = 20 + static_cast<int>(rng.UniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
      pts.push_back(Point{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0),
                          rng.Uniform(-5.0, 5.0)});
    }
    const std::vector<int> hull = QuickHull3D(pts);
    std::set<int> hull_set(hull.begin(), hull.end());
    for (int s = 0; s < 100; ++s) {
      const double dir[3] = {rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0),
                             rng.Normal(0.0, 1.0)};
      int best = 0;
      double best_dot = -1e30;
      for (int i = 0; i < n; ++i) {
        const double dot =
            dir[0] * pts[i][0] + dir[1] * pts[i][1] + dir[2] * pts[i][2];
        if (dot > best_dot + 1e-12) {
          best_dot = dot;
          best = i;
        }
      }
      EXPECT_TRUE(hull_set.count(best))
          << "support point in direction " << s << " missing from hull";
    }
  }
}

TEST(HullDispatchTest, HighDimFallsBackToAllPoints) {
  std::vector<Point> pts;
  for (int i = 0; i < 6; ++i) {
    Point p(4);
    for (int d = 0; d < 4; ++d) p[d] = i * d;
    pts.push_back(p);
  }
  EXPECT_EQ(HullVertexIndices(pts).size(), pts.size());
}

TEST(HullDispatchTest, OneDimensionalExtremes) {
  std::vector<Point> pts;
  for (double x : {3.0, 1.0, 7.0, 5.0}) pts.push_back(Point{x});
  const std::vector<int> hull = HullVertexIndices(pts);
  EXPECT_EQ(hull, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace osd
