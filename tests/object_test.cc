// Tests for the object model: probability normalization, MBRs, lazy local
// R-trees, dataset construction and the per-query profile views.

#include <span>
#include <vector>

#include <gtest/gtest.h>

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
  EXPECT_DOUBLE_EQ(profile.MeanAll(), (1 + 3 + 9 + 7) / 4.0);
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
  EXPECT_DOUBLE_EQ(dist.Mean(), profile.MeanAll());
}

// The extremes and the mean are built by separate passes when the
// extremes come first. The mean pass must leave the extremes' storage in
// place — spans taken before it stay valid (ASan checks the re-read) —
// and every statistic must be bit-equal to a profile that read the mean
// first, locally or through the cache.
TEST(ObjectProfileTest, MeanAfterExtremesKeepsEarlierSpans) {
  Rng rng(17);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  const long pass = 5L * 37;
  FilterStats fused_stats;
  ObjectProfile fused(u, ctx, &fused_stats);
  const std::vector<double> mean_q(fused.MeanQs().begin(),
                                   fused.MeanQs().end());
  const std::vector<double> min_q(fused.MinQs().begin(), fused.MinQs().end());
  const std::vector<double> max_q(fused.MaxQs().begin(), fused.MaxQs().end());
  EXPECT_EQ(fused_stats.dist_evals, pass) << "mean first: one pass";

  ProfileCache cache(1 << 20, nullptr);
  const ProfileCacheBinding binding{
      &cache, ComputeQuerySignature(q, ctx.metric()), 0};
  {
    // Publishes the extremes alone.
    ObjectProfile extremes_only(u, ctx, nullptr, &binding);
    (void)extremes_only.MinQs();
  }
  auto extremes_then_mean = [&](const ProfileCacheBinding* b) {
    FilterStats stats;
    ObjectProfile profile(u, ctx, &stats, b);
    const std::span<const double> first = profile.MinQs();
    const std::span<const double> first_max = profile.MaxQs();
    EXPECT_EQ(stats.dist_evals, pass);
    EXPECT_EQ(std::vector<double>(profile.MeanQs().begin(),
                                  profile.MeanQs().end()),
              mean_q);
    EXPECT_EQ(stats.dist_evals, 2 * pass) << "the mean pass counts";
    EXPECT_EQ(std::vector<double>(first.begin(), first.end()), min_q);
    EXPECT_EQ(std::vector<double>(first_max.begin(), first_max.end()), max_q);
    EXPECT_EQ(profile.MeanAll(), fused.MeanAll());
    EXPECT_EQ(profile.MinAll(), fused.MinAll());
    EXPECT_EQ(profile.MaxAll(), fused.MaxAll());
  };
  {
    SCOPED_TRACE("local");
    extremes_then_mean(nullptr);
  }
  {
    SCOPED_TRACE("extremes adopted, mean built");
    extremes_then_mean(&binding);
  }
  {
    SCOPED_TRACE("both adopted");
    extremes_then_mean(&binding);
  }
  EXPECT_EQ(cache.GetCounters().hits, 2);

  // Mean first from a warm cache: adopted, yet charged and counted as the
  // fused pass a fresh build makes.
  FilterStats warm_stats;
  ObjectProfile warm(u, ctx, &warm_stats, &binding);
  EXPECT_EQ(std::vector<double>(warm.MeanQs().begin(), warm.MeanQs().end()),
            mean_q);
  EXPECT_EQ(warm_stats.dist_evals, pass);
}

}  // namespace
}  // namespace osd
