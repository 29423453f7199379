// Tests for the NNC computation (Algorithm 1): equality with the
// brute-force candidate set for every operator and filter configuration,
// candidate-set nesting across operators (Fig. 5), query exclusion, and
// progressive emission behaviour.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/nnc_search.h"
#include "nnfun/n1_functions.h"
#include "test_util.h"

namespace osd {
namespace {

using test::BruteFSd;
using test::BruteKNnc;
using test::BruteNnc;
using test::BrutePSd;
using test::BruteSSd;
using test::BruteSsSd;
using test::RandomObject;

std::set<int> AsSet(const std::vector<int>& v) {
  return std::set<int>(v.begin(), v.end());
}

std::vector<UncertainObject> RandomObjects(int n, int dim, double span,
                                           Rng& rng) {
  std::vector<UncertainObject> objects;
  for (int i = 0; i < n; ++i) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 4));
    objects.push_back(RandomObject(i, dim, m, span, 3.0, rng));
  }
  return objects;
}

// Brute-force F+-SD (MBR-level) for the reference NNC.
bool BruteFPlusSd(const UncertainObject& u, const UncertainObject& v,
                  const UncertainObject& q) {
  return MbrStrictlyDominates(u.mbr(), v.mbr(), q.mbr());
}

class NncAgreement : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NncAgreement, MatchesBruteForceAcrossOperatorsAndConfigs) {
  const auto [dim, seed] = GetParam();
  Rng rng(seed * 1777 + dim);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 20 + static_cast<int>(rng.UniformInt(0, 30));
    auto objects = RandomObjects(n, dim, 20.0, rng);
    const Dataset dataset(std::move(objects));
    const UncertainObject query = RandomObject(-1, dim, 3, 20.0, 3.0, rng);

    struct OpCase {
      Operator op;
      std::vector<int> expected;
    };
    std::vector<OpCase> cases = {
        {Operator::kSSd, BruteNnc(dataset.objects(), query, BruteSSd)},
        {Operator::kSsSd, BruteNnc(dataset.objects(), query, BruteSsSd)},
        {Operator::kPSd, BruteNnc(dataset.objects(), query, BrutePSd)},
        {Operator::kFSd, BruteNnc(dataset.objects(), query, BruteFSd)},
        {Operator::kFPlusSd,
         BruteNnc(dataset.objects(), query, BruteFPlusSd)},
    };
    for (const auto& c : cases) {
      for (const FilterConfig& cfg :
           {FilterConfig::All(), FilterConfig::BruteForce(),
            FilterConfig::GP()}) {
        NncOptions options;
        options.op = c.op;
        options.filters = cfg;
        const NncResult result = NncSearch(dataset, options).Run(query);
        EXPECT_EQ(AsSet(result.candidates), AsSet(c.expected))
            << OperatorName(c.op) << " trial " << trial;
      }
    }

    // Candidate nesting (Fig. 5): NNC(S) <= NNC(SS) <= NNC(P) <= NNC(F)
    // <= NNC(F+).
    const auto s = AsSet(cases[0].expected);
    const auto ss = AsSet(cases[1].expected);
    const auto p = AsSet(cases[2].expected);
    const auto f = AsSet(cases[3].expected);
    const auto fp = AsSet(cases[4].expected);
    EXPECT_TRUE(std::includes(ss.begin(), ss.end(), s.begin(), s.end()));
    EXPECT_TRUE(std::includes(p.begin(), p.end(), ss.begin(), ss.end()));
    EXPECT_TRUE(std::includes(f.begin(), f.end(), p.begin(), p.end()));
    EXPECT_TRUE(std::includes(fp.begin(), fp.end(), f.begin(), f.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NncAgreement,
                         ::testing::Combine(::testing::Values(2, 3),
                                            ::testing::Values(1, 2, 3)));

TEST(NncSearchTest, ExcludesTheQueryObject) {
  Rng rng(10);
  auto objects = RandomObjects(25, 2, 15.0, rng);
  const UncertainObject query = objects[7];  // query drawn from the dataset
  const Dataset dataset(std::move(objects));
  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = 7;
  const NncResult result = NncSearch(dataset, options).Run(query);
  for (int id : result.candidates) EXPECT_NE(id, 7);
  const auto expected =
      BruteNnc(dataset.objects(), query, BruteSSd, /*exclude_id=*/7);
  EXPECT_EQ(AsSet(result.candidates), AsSet(expected));
}

TEST(NncSearchTest, ProgressiveTimelineIsSupersetOfResult) {
  Rng rng(20);
  auto objects = RandomObjects(40, 2, 15.0, rng);
  const Dataset dataset(std::move(objects));
  const UncertainObject query = RandomObject(-1, 2, 3, 15.0, 3.0, rng);
  NncOptions options;
  options.op = Operator::kPSd;
  std::vector<int> streamed;
  const NncResult result = NncSearch(dataset, options)
                               .Run(query, [&](int id, double elapsed) {
                                 EXPECT_GE(elapsed, 0.0);
                                 streamed.push_back(id);
                               });
  EXPECT_EQ(streamed.size(), result.timeline.size());
  const auto emitted = AsSet(streamed);
  for (int id : result.candidates) {
    EXPECT_TRUE(emitted.count(id)) << id;
  }
  // Timestamps are non-decreasing.
  for (size_t i = 1; i < result.timeline.size(); ++i) {
    EXPECT_GE(result.timeline[i].elapsed_seconds,
              result.timeline[i - 1].elapsed_seconds);
  }
}

TEST(NncSearchTest, DuplicateObjectsBothSurvive) {
  // Identical objects cannot dominate each other (U_Q != V_Q), so both
  // must be candidates if neither is dominated by a third object.
  std::vector<UncertainObject> objects;
  objects.push_back(UncertainObject::Uniform(0, 2, {1.0, 1.0, 2.0, 2.0}));
  objects.push_back(UncertainObject::Uniform(1, 2, {1.0, 1.0, 2.0, 2.0}));
  objects.push_back(UncertainObject::Uniform(2, 2, {50.0, 50.0, 60.0, 60.0}));
  const Dataset dataset(std::move(objects));
  const UncertainObject query = UncertainObject::Uniform(-1, 2, {0.0, 0.0});
  for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                      Operator::kFSd, Operator::kFPlusSd}) {
    NncOptions options;
    options.op = op;
    const NncResult result = NncSearch(dataset, options).Run(query);
    const auto got = AsSet(result.candidates);
    EXPECT_TRUE(got.count(0)) << OperatorName(op);
    EXPECT_TRUE(got.count(1)) << OperatorName(op);
    EXPECT_FALSE(got.count(2)) << OperatorName(op);
  }
}

TEST(NncSearchTest, SingleObjectDatasetReturnsIt) {
  std::vector<UncertainObject> objects;
  objects.push_back(UncertainObject::Uniform(0, 2, {5.0, 5.0}));
  const Dataset dataset(std::move(objects));
  const UncertainObject query = UncertainObject::Uniform(-1, 2, {0.0, 0.0});
  NncOptions options;
  const NncResult result = NncSearch(dataset, options).Run(query);
  EXPECT_EQ(result.candidates, std::vector<int>{0});
}

TEST(NncSearchTest, StatsAreAccumulated) {
  Rng rng(30);
  auto objects = RandomObjects(50, 2, 15.0, rng);
  const Dataset dataset(std::move(objects));
  const UncertainObject query = RandomObject(-1, 2, 3, 15.0, 3.0, rng);
  NncOptions options;
  options.op = Operator::kSSd;
  const NncResult result = NncSearch(dataset, options).Run(query);
  EXPECT_GT(result.stats.dominance_checks, 0);
  EXPECT_GT(result.objects_examined, 0);
  EXPECT_GT(result.seconds, 0.0);
}

class KNncAgreement : public ::testing::TestWithParam<int> {};

TEST_P(KNncAgreement, MatchesBruteForceForEveryOperator) {
  const int k = GetParam();
  Rng rng(k * 331);
  for (int trial = 0; trial < 5; ++trial) {
    auto objects = RandomObjects(35, 2, 18.0, rng);
    const Dataset dataset(objects);
    const UncertainObject query = RandomObject(-1, 2, 3, 18.0, 3.0, rng);
    struct OpCase {
      Operator op;
      std::vector<int> expected;
    };
    const std::vector<OpCase> cases = {
        {Operator::kSSd, BruteKNnc(objects, query, BruteSSd, k)},
        {Operator::kSsSd, BruteKNnc(objects, query, BruteSsSd, k)},
        {Operator::kPSd, BruteKNnc(objects, query, BrutePSd, k)},
        {Operator::kFSd, BruteKNnc(objects, query, BruteFSd, k)},
        {Operator::kFPlusSd, BruteKNnc(objects, query, BruteFPlusSd, k)},
    };
    for (const auto& c : cases) {
      NncOptions options;
      options.op = c.op;
      options.k = k;
      const NncResult result = NncSearch(dataset, options).Run(query);
      EXPECT_EQ(AsSet(result.candidates), AsSet(c.expected))
          << OperatorName(c.op) << " k=" << k << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KNncAgreement, ::testing::Values(1, 2, 3, 5));

TEST(KNncTest, LargerKGivesSupersets) {
  Rng rng(50);
  auto objects = RandomObjects(40, 3, 15.0, rng);
  const Dataset dataset(std::move(objects));
  const UncertainObject query = RandomObject(-1, 3, 3, 15.0, 3.0, rng);
  std::set<int> previous;
  for (int k : {1, 2, 4, 8}) {
    NncOptions options;
    options.op = Operator::kSSd;
    options.k = k;
    const auto result = NncSearch(dataset, options).Run(query);
    const auto current = AsSet(result.candidates);
    EXPECT_TRUE(std::includes(current.begin(), current.end(),
                              previous.begin(), previous.end()))
        << "k=" << k;
    previous = current;
  }
}

TEST(KNncTest, TopKOptimumAlwaysInside) {
  // Every object that ranks in the top-k under a covered function must be
  // a k-candidate: here, the k nearest by expected distance vs NNC(S-SD).
  Rng rng(51);
  auto objects = RandomObjects(30, 2, 12.0, rng);
  const Dataset dataset(objects);
  const UncertainObject query = RandomObject(-1, 2, 3, 12.0, 3.0, rng);
  const int k = 3;
  NncOptions options;
  options.op = Operator::kSSd;
  options.k = k;
  const auto result = NncSearch(dataset, options).Run(query);
  const auto candidates = AsSet(result.candidates);
  std::vector<std::pair<double, int>> ranked;
  for (int i = 0; i < dataset.size(); ++i) {
    ranked.emplace_back(DistanceDistribution(dataset.object(i), query).Mean(),
                        i);
  }
  std::sort(ranked.begin(), ranked.end());
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(candidates.count(ranked[i].second)) << "rank " << i;
  }
}

TEST(NncSearchTest, BruteForceConfigDoesMoreInstanceWork) {
  Rng rng(40);
  auto objects = RandomObjects(60, 2, 12.0, rng);
  const Dataset dataset(std::move(objects));
  const UncertainObject query = RandomObject(-1, 2, 4, 12.0, 3.0, rng);
  NncOptions all;
  all.op = Operator::kSSd;
  all.filters = FilterConfig::All();
  NncOptions bf = all;
  bf.filters = FilterConfig::BruteForce();
  const auto r_all = NncSearch(dataset, all).Run(query);
  const auto r_bf = NncSearch(dataset, bf).Run(query);
  EXPECT_EQ(AsSet(r_all.candidates), AsSet(r_bf.candidates));
  // The filters may only reduce the scan/comparison volume.
  EXPECT_LE(r_all.stats.scan_steps, r_bf.stats.scan_steps);
}

struct SeededInput {
  std::vector<UncertainObject> objects;
  UncertainObject query;
};

// The pinned input: 400 objects of 4..23 instances whose extents (`edge`)
// decide how often pairs overlap and so how deep the filter cascade goes.
SeededInput PinnedInput(double edge) {
  Rng rng(2024);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < 400; ++i) {
    const int m = 4 + static_cast<int>(rng.UniformInt(0, 20));
    objects.push_back(RandomObject(i, 2, m, 100.0, edge, rng));
  }
  UncertainObject query = RandomObject(-1, 2, 6, 100.0, 8.0, rng);
  return {std::move(objects), std::move(query)};
}

// One seeded run of the pinned input under the default filters.
NncResult PinnedRun(Operator op, double edge) {
  SeededInput input = PinnedInput(edge);
  const Dataset dataset(std::move(input.objects));
  NncOptions options;
  options.op = op;
  return NncSearch(dataset, options).Run(input.query);
}

// Exact-order traversal: whatever the MBR keys say, members are confirmed
// in non-decreasing exact min distance (an object whose MinAll() lies
// above its MBR key waits in the heap at MinAll()), and the near-tie
// cleanup still leaves exactly the brute-force answer. The lattice input
// packs objects into a few grid cells, so many objects tie.
TEST(NncSearchTest, EmitsInExactMinDistanceOrder) {
  std::vector<SeededInput> inputs;
  inputs.push_back(PinnedInput(10.0));
  Rng rng(3);
  std::vector<UncertainObject> lattice;
  for (int i = 0; i < 60; ++i) {
    const int m = 1 + static_cast<int>(rng.UniformInt(0, 2));
    lattice.push_back(test::LatticeObject(i, 2, m, 4, rng));
  }
  UncertainObject lattice_query = test::LatticeObject(-1, 2, 2, 4, rng);
  inputs.push_back({std::move(lattice), std::move(lattice_query)});

  for (size_t in = 0; in < inputs.size(); ++in) {
    const SeededInput& input = inputs[in];
    const Dataset dataset(input.objects);
    for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                        Operator::kFSd}) {
      auto brute = [op](const UncertainObject& u, const UncertainObject& v,
                        const UncertainObject& q) {
        switch (op) {
          case Operator::kSSd:
            return BruteSSd(u, v, q);
          case Operator::kSsSd:
            return BruteSsSd(u, v, q);
          case Operator::kPSd:  // up to 23 instances: too many to enumerate
            return test::BrutePSdByFlow(u, v, q);
          default:
            return BruteFSd(u, v, q);
        }
      };
      for (int k : {1, 3}) {
        SCOPED_TRACE(::testing::Message() << "input " << in << " "
                                          << OperatorName(op) << " k=" << k);
        NncOptions options;
        options.op = op;
        options.k = k;
        const NncResult result = NncSearch(dataset, options).Run(input.query);
        double previous = 0.0;
        for (const NncEmission& e : result.timeline) {
          const double min_all =
              DistanceDistribution(dataset.object(e.object_id), input.query)
                  .Min();
          EXPECT_GE(min_all + 1e-9, previous) << "object " << e.object_id;
          previous = min_all;
        }
        EXPECT_EQ(AsSet(result.candidates),
                  AsSet(BruteKNnc(input.objects, input.query, brute, k)));
      }
    }
  }
}

// Counter pin for F-SD under the default filters: the candidates (in
// emission order) and every FilterStats counter of one seeded run.
// Cascade: cover validation while the dominated side has no statistics
// yet, then the per-q order on the per-q extremes (MaxQs against MinQs),
// then U_Q != V_Q. mbr_validations counts the pairs cover settles,
// exact_checks the pairs that pass the order, and dist_evals the
// statistics built. node_ops counts the traversal's entry pruning alone.
// A moved counter means the meaning of a Fig. 12/16 statistic moved with
// it.
//
// Members are confirmed in exact MinAll() order, so every survivor of a
// first pop builds its statistics there (dist_evals 1500 -> 2292), even
// the ones dropped later at their exact pop. Those later checks then run
// the order first (mbr_validations 85 -> 78, exact_checks 3 -> 10).
//
// A check tries the members in ascending reach (largest MaxQs over the
// hull) and stops at the first one above the checked object's bound
// (largest MinQs plus the tolerance): no member past it can pass the
// order. Only the first unchecked member's check still runs while the
// object has no statistics, so the pairs refuted by the order alone are
// skipped and nothing else moves (dominance_checks 186 -> 119).
//
// One cover rule for every instance operator: cover runs only while the
// object has no statistics, and the first member checked is the first in
// reach order, not in emission order. That member covers the object more
// often, so more objects are settled before their statistics are built
// (mbr_validations 78 -> 83, dist_evals 2292 -> 1500, dominance_checks
// 119 -> 116), and the pairs that pass the order once statistics exist
// are exact checks whether or not they are covered (exact_checks
// 10 -> 5).
TEST(NncSearchTest, FSdCountersArePinned) {
  const NncResult r = PinnedRun(Operator::kFSd, 5.0);
  EXPECT_EQ(r.candidates, (std::vector<int>{283, 50, 220, 61, 133, 145, 186,
                                             73, 1, 327, 34, 368, 105,
                                             343}));
  EXPECT_EQ(r.termination, NncTermination::kComplete);
  EXPECT_EQ(r.objects_examined, 102);
  EXPECT_EQ(r.entries_pruned, 3);
  const FilterStats& s = r.stats;
  EXPECT_EQ(s.dist_evals, 1500);
  EXPECT_EQ(s.scan_steps, 0);
  EXPECT_EQ(s.pair_tests, 0);
  EXPECT_EQ(s.node_ops, 3);
  EXPECT_EQ(s.flow_runs, 0);
  EXPECT_EQ(s.stat_validations, 0);
  EXPECT_EQ(s.mbr_validations, 83);
  EXPECT_EQ(s.stat_prunes, 0);
  EXPECT_EQ(s.cover_prunes, 0);
  EXPECT_EQ(s.exact_checks, 5);
  EXPECT_EQ(s.dominance_checks, 116);
}

// The same pin for P-SD, SS-SD and S-SD, on wider objects so that every
// stage of their filter cascades decides some pairs. The candidate set
// and termination may never move; the emission order moves only with the
// traversal order, and a counter only with a deliberate change to the
// traversal or to a cascade's order or metering.
//
// With members confirmed in exact MinAll() order, the final cleanup
// re-checks only near-ties instead of every pair that passes the
// statistic gate, so fewer pairs reach each cascade than when the
// traversal followed MBR keys.
TEST(NncSearchTest, PSdCountersArePinned) {
  // Cascade: cover validation (only while the object has no statistics),
  // stat gate, projected Hall certificate, exact network. The certificate
  // refutes only pairs the exact network refutes, so every pair it
  // decides (cover_prunes, its scan_steps) would otherwise be an exact
  // check; pair_tests and exact_checks count
  // the pairs left to the exact network, flow_runs the networks its
  // certificates leave to Dinic. node_ops counts the traversal's entry
  // pruning alone. The traversal tries members with fewer instances
  // first, and the cleanup shrinks to near-ties: the pairs reaching the
  // cascade are fewer and a different mix, so mbr_validations rose
  // (38 -> 50) while the other pair counters fell (dominance_checks
  // 198 -> 169, flow_runs 22 -> 18, pair_tests 2903 -> 2203).
  //
  // The extremes certificate after the stat gate (the F-SD order on the
  // hull, which fills every row) settles 9 pairs before the Hall
  // certificate and the network (stat_validations 0 -> 9, exact_checks
  // 44 -> 35, scan_steps 4328 -> 3596, pair_tests 2203 -> 1723, and
  // dist_evals 8352 -> 7632 for the matrices they no longer build). The
  // degree-ordered greedy flow routes every network Dinic used to decide
  // (flow_runs 18 -> 0). The Hall certificate and the network read only
  // the matrix rows of the hull instances, each computed on first read,
  // instead of every object's full matrix (dist_evals 7632 -> 6357).
  //
  // The stat gate compares only the extremes, not the means: the one pair
  // the means alone refuted goes on to the Hall certificate, which refutes
  // it (stat_prunes 67 -> 66, cover_prunes 8 -> 9, scan_steps
  // 3596 -> 3627, and dist_evals 6357 -> 6372 for its hull rows).
  //
  // The traversal tries members in ascending MaxAll() and stops at the
  // first above the object's MaxAll() + 1e-9, where the stat gate would
  // refute every member (stat_prunes 66 -> 36, dominance_checks
  // 169 -> 134). Cover validation runs only while the object has no
  // statistics: a member with a small MaxAll() covers it more often
  // (mbr_validations 50 -> 59), and a covered pair checked later is
  // settled by the extremes certificate (stat_validations 9 -> 16). Fewer
  // pairs reach the Hall certificate and the network (cover_prunes
  // 9 -> 4, exact_checks 35 -> 19, scan_steps 3627 -> 2691, pair_tests
  // 1723 -> 755, dist_evals 6372 -> 4463 for the hull rows they read).
  const NncResult r = PinnedRun(Operator::kPSd, 10.0);
  EXPECT_EQ(r.candidates, (std::vector<int>{50, 145, 61, 220, 133, 186, 1,
                                             73, 283, 327, 34}));
  EXPECT_EQ(r.termination, NncTermination::kComplete);
  EXPECT_EQ(r.objects_examined, 102);
  EXPECT_EQ(r.entries_pruned, 3);
  const FilterStats& s = r.stats;
  EXPECT_EQ(s.dist_evals, 4463);
  EXPECT_EQ(s.scan_steps, 2691);
  EXPECT_EQ(s.pair_tests, 755);
  EXPECT_EQ(s.node_ops, 3);
  EXPECT_EQ(s.flow_runs, 0);
  EXPECT_EQ(s.stat_validations, 16);
  EXPECT_EQ(s.mbr_validations, 59);
  EXPECT_EQ(s.stat_prunes, 36);
  EXPECT_EQ(s.cover_prunes, 4);
  EXPECT_EQ(s.exact_checks, 19);
  EXPECT_EQ(s.dominance_checks, 134);
}

TEST(NncSearchTest, SsSdCountersArePinned) {
  // Cascade: cover validation (only while the object has no statistics),
  // stat gate, exact per-q scans. SS-SD has no Hall certificate, so
  // cover_prunes is 0, and node_ops counts the traversal's entry pruning
  // alone; every pair the gates leave is an exact check, metered in
  // scan_steps. The near-tie
  // cleanup skips pairs the old full cleanup gated or checked
  // (dominance_checks 187 -> 139, stat_prunes 82 -> 43, dist_evals
  // 10098 -> 6306). The extremes certificate after the stat gate settles
  // the 16 pairs whose per-q maxima of u are at most v's minima
  // (stat_validations 0 -> 16, exact_checks 37 -> 21, scan_steps
  // 6992 -> 3530, and dist_evals 6306 -> 4956 for the matrices they no
  // longer build). The stat gate compares only the extremes, not the
  // means: the one pair the means alone refuted is an exact check
  // (stat_prunes 43 -> 42, exact_checks 21 -> 22, scan_steps
  // 3530 -> 3554, and dist_evals 4956 -> 5046 for the matrices it reads).
  // The traversal tries members in ascending MaxAll() and stops at the
  // first above the object's MaxAll() + 1e-9 (stat_prunes 42 -> 26,
  // dominance_checks 139 -> 123); a dominator found earlier in that order
  // leaves one exact check on a different pair (scan_steps 3554 -> 3549,
  // dist_evals 5046 -> 4992). Cover validation only while the object has
  // no statistics moves nothing here.
  const NncResult r = PinnedRun(Operator::kSsSd, 10.0);
  EXPECT_EQ(r.candidates,
            (std::vector<int>{50, 145, 61, 220, 133, 186, 73, 283, 327}));
  EXPECT_EQ(r.termination, NncTermination::kComplete);
  EXPECT_EQ(r.objects_examined, 102);
  EXPECT_EQ(r.entries_pruned, 3);
  const FilterStats& s = r.stats;
  EXPECT_EQ(s.dist_evals, 4992);
  EXPECT_EQ(s.scan_steps, 3549);
  EXPECT_EQ(s.pair_tests, 0);
  EXPECT_EQ(s.node_ops, 3);
  EXPECT_EQ(s.flow_runs, 0);
  EXPECT_EQ(s.stat_validations, 16);
  EXPECT_EQ(s.mbr_validations, 59);
  EXPECT_EQ(s.stat_prunes, 26);
  EXPECT_EQ(s.cover_prunes, 0);
  EXPECT_EQ(s.exact_checks, 22);
  EXPECT_EQ(s.dominance_checks, 123);
}

TEST(NncSearchTest, SSdCountersArePinned) {
  // Cascade: cover validation (only while the object has no statistics),
  // stat gate, exact merge-scan, the same as SS-SD's. node_ops counts the
  // traversal's entry pruning alone, and the 19 pairs the deleted CDF
  // envelope decided are exact checks now
  // (exact_checks 26 -> 45, scan_steps 3937 -> 7951, node_ops 4620 -> 3;
  // dist_evals 6902 -> 6708, the envelope's leaf distances gone). The
  // extremes certificate after the stat gate settles 16 pairs
  // (stat_validations 0 -> 16, exact_checks 45 -> 29, scan_steps
  // 7951 -> 4489, and dist_evals 6708 -> 5358 for the matrices they no
  // longer build). The traversal tries members in ascending MaxAll() and
  // stops at the first above the object's MaxAll() + 1e-9, so the three
  // members the stat gate refuted on MaxAll are skipped (stat_prunes
  // 3 -> 0, dominance_checks 107 -> 104).
  const NncResult r = PinnedRun(Operator::kSSd, 10.0);
  EXPECT_EQ(r.candidates, (std::vector<int>{50, 145, 61, 220, 133}));
  EXPECT_EQ(r.termination, NncTermination::kComplete);
  EXPECT_EQ(r.objects_examined, 102);
  EXPECT_EQ(r.entries_pruned, 3);
  const FilterStats& s = r.stats;
  EXPECT_EQ(s.dist_evals, 5358);
  EXPECT_EQ(s.scan_steps, 4489);
  EXPECT_EQ(s.pair_tests, 0);
  EXPECT_EQ(s.node_ops, 3);
  EXPECT_EQ(s.flow_runs, 0);
  EXPECT_EQ(s.stat_validations, 16);
  EXPECT_EQ(s.mbr_validations, 59);
  EXPECT_EQ(s.stat_prunes, 0);
  EXPECT_EQ(s.cover_prunes, 0);
  EXPECT_EQ(s.exact_checks, 29);
  EXPECT_EQ(s.dominance_checks, 104);
}

}  // namespace
}  // namespace osd
