// Tests for the object model: probability normalization, MBRs, lazy local
// R-trees, dataset construction and the per-query profile views.

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/object_profile.h"
#include "core/query_context.h"
#include "object/dataset.h"
#include "object/uncertain_object.h"
#include "test_util.h"

namespace osd {
namespace {

TEST(UncertainObjectTest, UniformProbabilities) {
  const auto o = UncertainObject::Uniform(3, 2, {0.0, 0.0, 1.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(o.id(), 3);
  EXPECT_EQ(o.dim(), 2);
  EXPECT_EQ(o.num_instances(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(o.Prob(i), 1.0 / 3);
  EXPECT_DOUBLE_EQ(o.mbr().lo()[0], 0.0);
  EXPECT_DOUBLE_EQ(o.mbr().hi()[1], 2.0);
}

TEST(UncertainObjectDeathTest, RejectsInvalidInputs) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Probabilities must be positive and sum to one.
  EXPECT_DEATH(UncertainObject(0, 1, {1.0, 2.0}, {0.5, 0.4}), "OSD_CHECK");
  EXPECT_DEATH(UncertainObject(0, 1, {1.0, 2.0}, {1.2, -0.2}), "OSD_CHECK");
  // Coordinate count must match instances * dim.
  EXPECT_DEATH(UncertainObject(0, 2, {1.0, 2.0, 3.0}, {0.5, 0.5}),
               "OSD_CHECK");
  // Dimension must be within Point::kMaxDim.
  EXPECT_DEATH(UncertainObject(0, 9, std::vector<double>(9, 0.0), {1.0}),
               "OSD_CHECK");
}

TEST(UncertainObjectTest, WeightNormalization) {
  const auto o = UncertainObject::FromWeighted(0, 1, {1.0, 2.0, 3.0},
                                               {1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(o.Prob(0), 0.25);
  EXPECT_DOUBLE_EQ(o.Prob(1), 0.25);
  EXPECT_DOUBLE_EQ(o.Prob(2), 0.5);
}

TEST(UncertainObjectTest, LocalTreeIsLazyAndCached) {
  const auto o = UncertainObject::Uniform(0, 2, {0.0, 0.0, 5.0, 5.0});
  EXPECT_FALSE(o.HasLocalTree());
  const RTree& t1 = o.LocalTree();
  EXPECT_TRUE(o.HasLocalTree());
  const RTree& t2 = o.LocalTree();
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(t1.entries().size(), 2u);
  EXPECT_EQ(t1.fanout(), UncertainObject::kLocalFanout);
}

TEST(UncertainObjectTest, CopyDropsCachedTree) {
  const auto o = UncertainObject::Uniform(0, 2, {0.0, 0.0, 5.0, 5.0});
  (void)o.LocalTree();
  const UncertainObject copy = o;  // NOLINT(performance-unnecessary-copy)
  EXPECT_FALSE(copy.HasLocalTree());
  EXPECT_EQ(copy.num_instances(), o.num_instances());
  EXPECT_TRUE(copy.Instance(1) == o.Instance(1));
}

TEST(DatasetTest, GlobalTreeCoversAllObjects) {
  Rng rng(3);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < 100; ++i) {
    objects.push_back(test::RandomObject(i, 3, 3, 50.0, 2.0, rng));
  }
  const Dataset dataset(std::move(objects));
  EXPECT_EQ(dataset.size(), 100);
  EXPECT_EQ(dataset.dim(), 3);
  EXPECT_EQ(dataset.global_tree().entries().size(), 100u);
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_TRUE(dataset.global_tree().bounds().Contains(
        dataset.object(i).mbr()));
  }
}

TEST(DatasetTest, GlobalFanoutFromPageSize) {
  // 4096-byte pages, 2 * d * 8 bytes per box + 8 bytes per pointer.
  EXPECT_EQ(Dataset::GlobalFanout(2), 4096 / (2 * 2 * 8 + 8));
  EXPECT_EQ(Dataset::GlobalFanout(3), 4096 / (2 * 3 * 8 + 8));
  EXPECT_GE(Dataset::GlobalFanout(8), 8);
}

TEST(QueryContextTest, HullAndIndices) {
  // A 2-d query whose 5th instance is inside the hull of the others.
  const auto q = UncertainObject::Uniform(
      -1, 2, {0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0, 2.0, 2.0});
  const QueryContext ctx(q);
  EXPECT_EQ(ctx.num_instances(), 5);
  EXPECT_EQ(ctx.hull().size(), 4u);
  EXPECT_EQ(ctx.all_indices().size(), 5u);
  for (int idx : ctx.hull()) EXPECT_NE(idx, 4);
}

TEST(ObjectProfileTest, StatsAndSortedViews) {
  const auto q = UncertainObject::Uniform(-1, 1, {0.0, 10.0});
  const auto u = UncertainObject::Uniform(0, 1, {1.0, 3.0});
  const QueryContext ctx(q);
  FilterStats stats;
  ObjectProfile profile(u, ctx, &stats);
  // Distances: q0: {1, 3}; q1: {9, 7}.
  EXPECT_DOUBLE_EQ(profile.Dist(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(profile.Dist(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(profile.MinAll(), 1.0);
  EXPECT_DOUBLE_EQ(profile.MaxAll(), 9.0);
  EXPECT_DOUBLE_EQ(profile.MinQ(1), 7.0);
  EXPECT_DOUBLE_EQ(profile.MaxQ(0), 3.0);
  const auto sorted = profile.SortedValues();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), 4u);
  const auto q1_sorted = profile.SortedQValues(1);
  EXPECT_DOUBLE_EQ(q1_sorted[0], 7.0);
  EXPECT_DOUBLE_EQ(q1_sorted[1], 9.0);
  EXPECT_EQ(stats.dist_evals, 4);  // matrix computed exactly once
  const auto dist = profile.Distribution();
  EXPECT_DOUBLE_EQ(dist.Mean(), (1 + 3 + 9 + 7) / 4.0);
  EXPECT_EQ(dist.Min(), profile.MinAll());
  EXPECT_EQ(dist.Max(), profile.MaxAll());
}

// The statistics are one extremes pass: whichever of MinAll, MaxAll,
// MinQs and MaxQs is read first builds them all, charged as 2·|Q| doubles
// and counted as |Q|·m distances once, and every later read is free. The
// values are bit-equal to a scalar min/max fold of the matrix rows.
TEST(ObjectProfileTest, StatisticsAreOneExtremesPass) {
  Rng rng(17);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  const int nq = ctx.num_instances();
  const int m = u.num_instances();
  ObjectProfile rows(u, ctx, nullptr);
  std::vector<double> min_q(nq), max_q(nq);
  double min_all = std::numeric_limits<double>::infinity();
  double max_all = 0.0;
  for (int qi = 0; qi < nq; ++qi) {
    min_q[qi] = std::numeric_limits<double>::infinity();
    max_q[qi] = 0.0;
    for (const double d : rows.Row(qi)) {
      min_q[qi] = std::min(min_q[qi], d);
      max_q[qi] = std::max(max_q[qi], d);
    }
    min_all = std::min(min_all, min_q[qi]);
    max_all = std::max(max_all, max_q[qi]);
  }
  auto copy = [](std::span<const double> v) {
    return std::vector<double>(v.begin(), v.end());
  };
  std::vector<int> order = {0, 1, 2, 3};
  do {
    FilterStats stats;
    memory::QueryBudgetScope scope(64L << 20, nullptr);
    ObjectProfile p(u, ctx, &stats);
    EXPECT_FALSE(p.has_stats());
    for (const int reader : order) {
      switch (reader) {
        case 0: EXPECT_EQ(p.MinAll(), min_all); break;
        case 1: EXPECT_EQ(p.MaxAll(), max_all); break;
        case 2: EXPECT_EQ(copy(p.MinQs()), min_q); break;
        case 3: EXPECT_EQ(copy(p.MaxQs()), max_q); break;
      }
      EXPECT_TRUE(p.has_stats());
      EXPECT_EQ(stats.dist_evals, static_cast<long>(nq) * m)
          << "one pass, whatever is read first";
      EXPECT_EQ(scope.charged_bytes(),
                2L * nq * static_cast<long>(sizeof(double)));
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// The row-lazy matrix: rows read one at a time and then completed by
// MatrixData() give a fresh full build's matrix bit for bit, and each row
// is charged and counted once, on its first read. The statistics read in
// between fold the rows already read and evaluate only the others.
TEST(ObjectProfileTest, RowsReadFirstCompleteToAFreshMatrix) {
  Rng rng(41);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  const int nq = ctx.num_instances();
  const int m = u.num_instances();
  const long row_bytes = m * static_cast<long>(sizeof(double));
  ObjectProfile fresh(u, ctx, nullptr);
  const std::vector<double> full(fresh.MatrixData(),
                                 fresh.MatrixData() + nq * m);
  auto copy = [](std::span<const double> v) {
    return std::vector<double>(v.begin(), v.end());
  };
  const std::vector<double> min_q = copy(fresh.MinQs());
  const std::vector<double> max_q = copy(fresh.MaxQs());
  const std::vector<std::vector<int>> subsets = {
      {}, {0}, {3, 1}, {4, 2, 2, 0}, {0, 1, 2, 3, 4}};
  for (const std::vector<int>& subset : subsets) {
    FilterStats stats;
    memory::QueryBudgetScope scope(64L << 20, nullptr);
    ObjectProfile p(u, ctx, &stats);
    std::vector<bool> read(nq, false);
    long rows = 0;
    for (const int qi : subset) {
      const std::span<const double> row = p.Row(qi);
      EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
                std::vector<double>(full.begin() + qi * m,
                                    full.begin() + (qi + 1) * m));
      if (!read[qi]) ++rows;
      read[qi] = true;
      EXPECT_EQ(stats.dist_evals, rows * m) << "a row counts once";
      EXPECT_EQ(scope.charged_bytes(), rows * row_bytes);
    }
    // One extremes pass evaluates only the rows not read.
    EXPECT_EQ(copy(p.MinQs()), min_q);
    EXPECT_EQ(copy(p.MaxQs()), max_q);
    const long unread = (nq - rows) * m;
    long evals = rows * m + unread;
    EXPECT_EQ(stats.dist_evals, evals);
    const long stat_bytes = 2L * nq * static_cast<long>(sizeof(double));
    EXPECT_EQ(std::vector<double>(p.MatrixData(), p.MatrixData() + nq * m),
              full);
    evals += unread;
    EXPECT_EQ(stats.dist_evals, evals);
    EXPECT_EQ(scope.charged_bytes(), nq * row_bytes + stat_bytes);
    (void)p.Row(0);
    EXPECT_EQ(stats.dist_evals, evals);
  }
}

// mem.profile.matrix fires on the first row's read, before its charge:
// a throw there leaves nothing charged or counted, and the next read
// builds the row.
TEST(ObjectProfileTest, MatrixFailpointFiresBeforeTheFirstRowCharge) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  Rng rng(53);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  ASSERT_TRUE(failpoint::Configure("mem.profile.matrix=1xthrow"));
  {
    FilterStats stats;
    memory::QueryBudgetScope scope(64L << 20, nullptr);
    ObjectProfile p(u, ctx, &stats);
    EXPECT_THROW((void)p.Row(2), failpoint::InjectedFault);
    EXPECT_EQ(scope.charged_bytes(), 0);
    EXPECT_EQ(stats.dist_evals, 0);
    (void)p.Row(2);
    (void)p.Row(3);
    EXPECT_EQ(scope.charged_bytes(),
              2L * u.num_instances() * static_cast<long>(sizeof(double)));
    EXPECT_EQ(stats.dist_evals, 2L * u.num_instances());
  }
  EXPECT_EQ(failpoint::HitCount("mem.profile.matrix"), 2)
      << "the site is passed on the first read only";
  failpoint::Clear();
}

}  // namespace
}  // namespace osd
