// Tests for the object model: probability normalization, MBRs, lazy local
// R-trees, dataset construction and the per-query profile views.

#include <span>
#include <vector>

#include <gtest/gtest.h>

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

// One row per cacheable view: `read` reads it through a profile and
// returns its data(); `in` returns the data() of an entry's copy, or null
// when the entry lacks the view.
struct ViewCase {
  const char* name;
  const void* (*read)(ObjectProfile&);
  const void* (*in)(const ProfileArtifacts&);
};

const ViewCase kViews[] = {
    {"matrix", [](ObjectProfile& p) -> const void* { return p.MatrixData(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.matrix != nullptr ? a.matrix->data() : nullptr;
     }},
    {"extremes",
     [](ObjectProfile& p) -> const void* { return p.MinQs().data(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.extremes != nullptr ? a.extremes->min_q.data() : nullptr;
     }},
    {"mean", [](ObjectProfile& p) -> const void* { return p.MeanQs().data(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.mean != nullptr ? a.mean->mean_q.data() : nullptr;
     }},
    {"sorted_all",
     [](ObjectProfile& p) -> const void* { return p.SortedValues().data(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.sorted_all != nullptr ? a.sorted_all->values.data() : nullptr;
     }},
    {"sorted_per_q",
     [](ObjectProfile& p) -> const void* { return p.SortedQValues(0).data(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.sorted_per_q != nullptr ? a.sorted_per_q->values[0].data()
                                        : nullptr;
     }},
    {"distribution",
     [](ObjectProfile& p) -> const void* { return &p.Distribution(); },
     [](const ProfileArtifacts& a) -> const void* {
       return a.distribution.get();
     }},
};

// What a profile reads when it reads view `first`, then every view.
struct Reading {
  std::vector<std::vector<double>> values;
  long dist_evals = 0;
  long charged = 0;  // budget bytes the profile holds after its reads
  long peak = 0;
  const void* first = nullptr;  // view `first`'s data()
};

Reading ReadEveryView(const UncertainObject& u, const QueryContext& ctx,
                      const ProfileCacheBinding* binding, int first) {
  Reading r;
  FilterStats stats;
  memory::QueryBudgetScope scope(64L << 20, nullptr);
  ObjectProfile p(u, ctx, &stats, binding);
  r.first = kViews[first].read(p);
  for (const ViewCase& view : kViews) view.read(p);
  auto add = [&r](std::span<const double> values) {
    r.values.emplace_back(values.begin(), values.end());
  };
  add(std::span<const double>(
      p.MatrixData(),
      static_cast<size_t>(ctx.num_instances()) * p.num_instances()));
  add(p.MinQs());
  add(p.MaxQs());
  add(p.MeanQs());
  r.values.push_back({p.MinAll(), p.MaxAll(), p.MeanAll()});
  add(p.SortedValues());
  add(p.SortedProbs());
  for (int qi = 0; qi < ctx.num_instances(); ++qi) {
    add(p.SortedQValues(qi));
    add(p.SortedQProbs(qi));
  }
  r.values.emplace_back();
  for (const DiscreteDistribution::Atom& atom : p.Distribution().atoms()) {
    r.values.back().push_back(atom.value);
    r.values.back().push_back(atom.prob);
  }
  r.dist_evals = stats.dist_evals;
  r.charged = scope.charged_bytes();
  r.peak = scope.peak_bytes();
  return r;
}

// For each view: a cold profile reads only that view and publishes it; a
// warm profile then reads every view. The warm profile must see the same
// values, count the same dist_evals and charge the same bytes as a profile
// without the cache, and share the entry's views rather than rebuild them
// (their data() is the entry's); the entry it publishes holds every view.
TEST(ObjectProfileTest, WarmProfileAdoptsEachCachedView) {
  Rng rng(29);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  const uint64_t signature = ComputeQuerySignature(q, ctx.metric());
  for (int first = 0; first < static_cast<int>(std::size(kViews)); ++first) {
    SCOPED_TRACE(kViews[first].name);
    const Reading off = ReadEveryView(u, ctx, nullptr, first);

    ProfileCache cache(1 << 20, nullptr);
    const ProfileCacheBinding binding{&cache, signature, 0};
    {
      ObjectProfile cold(u, ctx, nullptr, &binding);
      kViews[first].read(cold);
    }
    const auto entry = cache.Lookup(u.id(), signature, 0);
    ASSERT_NE(entry, nullptr) << "the cold profile publishes";
    ASSERT_NE(kViews[first].in(*entry), nullptr);

    const Reading warm = ReadEveryView(u, ctx, &binding, first);
    EXPECT_EQ(warm.values, off.values);
    EXPECT_EQ(warm.dist_evals, off.dist_evals);
    EXPECT_EQ(warm.charged, off.charged);
    EXPECT_EQ(warm.peak, off.peak);
    EXPECT_EQ(warm.first, kViews[first].in(*entry)) << "adopted, not rebuilt";

    const auto published = cache.Lookup(u.id(), signature, 0);
    ASSERT_NE(published, nullptr);
    EXPECT_NE(published, entry) << "the warm profile built the other views";
    for (const ViewCase& view : kViews) {
      SCOPED_TRACE(view.name);
      ASSERT_NE(view.in(*published), nullptr);
      // A view the cold entry held is carried over, not rebuilt.
      if (view.in(*entry) != nullptr) {
        EXPECT_EQ(view.in(*published), view.in(*entry));
      }
    }
  }
}

}  // namespace
}  // namespace osd
