// Tests for the object model: probability normalization, MBRs, lazy local
// R-trees, dataset construction and the per-query profile views.

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
  const std::vector<double> mean_q = copy(fresh.MeanQs());
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
    // The extremes first and then a mean pass, or one fused pass: each
    // pass evaluates only the rows not read.
    const bool extremes_first = subset.size() % 2 == 1;
    if (extremes_first) {
      EXPECT_EQ(copy(p.MinQs()), min_q);
    }
    EXPECT_EQ(copy(p.MeanQs()), mean_q);
    EXPECT_EQ(copy(p.MinQs()), min_q);
    EXPECT_EQ(copy(p.MaxQs()), max_q);
    const long unread = (nq - rows) * m;
    long evals = rows * m + (extremes_first ? 2 : 1) * unread;
    EXPECT_EQ(stats.dist_evals, evals);
    const long stat_bytes = 3L * nq * static_cast<long>(sizeof(double));
    EXPECT_EQ(std::vector<double>(p.MatrixData(), p.MatrixData() + nq * m),
              full);
    evals += unread;
    EXPECT_EQ(stats.dist_evals, evals);
    EXPECT_EQ(scope.charged_bytes(), nq * row_bytes + stat_bytes);
    (void)p.Row(0);
    EXPECT_EQ(stats.dist_evals, evals);
  }
}

// What a profile sees when it reads rows 3 and 1, the statistics, row 0
// and then the whole matrix: the counters and budget after each step,
// and the values.
struct RowReading {
  std::vector<long> dist_evals, charged;
  long peak = 0;
  std::vector<double> values;
};

RowReading ReadRowsThenMatrix(const UncertainObject& u, const QueryContext& ctx,
                              const ProfileCacheBinding* binding) {
  RowReading r;
  FilterStats stats;
  memory::QueryBudgetScope scope(64L << 20, nullptr);
  ObjectProfile p(u, ctx, &stats, binding);
  auto step = [&](std::span<const double> values) {
    r.values.insert(r.values.end(), values.begin(), values.end());
    r.dist_evals.push_back(stats.dist_evals);
    r.charged.push_back(scope.charged_bytes());
  };
  step(p.Row(3));
  step(p.Row(1));
  step(p.MeanQs());
  step(p.MinQs());
  step(p.Row(0));
  step({p.MatrixData(), static_cast<size_t>(ctx.num_instances()) *
                            p.num_instances()});
  step(p.MaxQs());
  r.peak = scope.peak_bytes();
  return r;
}

// Charges, peak bytes and dist_evals do not depend on the cache: a cold
// profile builds its rows, a warm one adopts the complete matrix and is
// charged and counted for it row by row all the same.
TEST(ObjectProfileTest, RowChargesMatchWithCacheOffColdAndWarm) {
  Rng rng(43);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  const RowReading off = ReadRowsThenMatrix(u, ctx, nullptr);
  ProfileCache cache(1 << 20, nullptr);
  const ProfileCacheBinding binding{
      &cache, ComputeQuerySignature(q, ctx.metric()), 0};
  const RowReading cold = ReadRowsThenMatrix(u, ctx, &binding);
  const auto entry = cache.Lookup(u.id(), binding.signature, 0);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->matrix, nullptr) << "a complete matrix is published";
  const RowReading warm = ReadRowsThenMatrix(u, ctx, &binding);
  for (const RowReading* r : {&cold, &warm}) {
    EXPECT_EQ(r->values, off.values);
    EXPECT_EQ(r->dist_evals, off.dist_evals);
    EXPECT_EQ(r->charged, off.charged);
    EXPECT_EQ(r->peak, off.peak);
  }
  EXPECT_EQ(cache.GetCounters().hits, 2) << "this test's lookup and warm's";
}

// A profile that read only some rows publishes the views it built, but no
// matrix; one that adopted a complete matrix and read part of it publishes
// nothing new.
TEST(ObjectProfileTest, PartlyReadMatrixIsNeverPublished) {
  Rng rng(47);
  const UncertainObject q = test::RandomObject(-1, 2, 5, 50.0, 10.0, rng);
  const UncertainObject u = test::RandomObject(0, 2, 37, 50.0, 10.0, rng);
  const QueryContext ctx(q);
  ProfileCache cache(1 << 20, nullptr);
  const ProfileCacheBinding binding{
      &cache, ComputeQuerySignature(q, ctx.metric()), 0};
  {
    ObjectProfile p(u, ctx, nullptr, &binding);
    (void)p.Row(2);
    (void)p.Row(4);
    (void)p.MinQs();
  }
  auto entry = cache.Lookup(u.id(), binding.signature, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->extremes, nullptr);
  EXPECT_EQ(entry->matrix, nullptr);
  {
    ObjectProfile p(u, ctx, nullptr, &binding);
    (void)p.MatrixData();
  }
  entry = cache.Lookup(u.id(), binding.signature, 0);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->matrix, nullptr);
  {
    ObjectProfile p(u, ctx, nullptr, &binding);
    EXPECT_EQ(p.Row(1).data(), entry->matrix->data() + p.num_instances())
        << "adopted";
    (void)p.MinQs();
  }
  EXPECT_EQ(cache.Lookup(u.id(), binding.signature, 0), entry);
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
