// Correctness of the anytime degraded mode: whenever a traversal stops
// early with NncOptions::degraded_superset set, the returned candidate set
// must be a duplicate-free superset of the exact serial answer (the
// no-false-dismissal contract of Theorems 4 and 9), for all four
// operators, under both deadline and cancellation terminations, at the
// search layer and through the engine.

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/surrogates.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "test_util.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 300, uint64_t seed = 7) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 5;
  p.seed = seed;
  return GenerateSynthetic(p);
}

QueryWorkloadEntry OneQuery(const Dataset& dataset, uint64_t seed = 13) {
  WorkloadParams wp;
  wp.num_queries = 1;
  wp.query_instances = 4;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp)[0];
}

/// The degraded contract: duplicate-free, and every exact member present.
void ExpectCertifiedSuperset(const NncResult& degraded,
                             const std::vector<int>& exact) {
  ASSERT_TRUE(degraded.degraded);
  std::vector<int> got = degraded.candidates;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "degraded candidate set contains duplicates";
  std::vector<int> want = exact;
  std::sort(want.begin(), want.end());
  EXPECT_TRUE(std::includes(got.begin(), got.end(), want.begin(), want.end()))
      << "degraded set of " << got.size() << " is not a superset of the "
      << want.size() << "-member exact answer";
}

constexpr Operator kAllOps[] = {Operator::kSSd, Operator::kSsSd,
                                Operator::kPSd, Operator::kFSd};

TEST(DegradedModeTest, ExpiredDeadlineYieldsSupersetForEveryOperator) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);
    ASSERT_EQ(exact.termination, NncTermination::kComplete);

    // A deadline that expired before the first pop: nothing is confirmed,
    // the entire tree drains into the frontier.
    QueryControl control;
    control.deadline = std::chrono::steady_clock::now();
    options.control = &control;
    options.degraded_superset = true;
    const NncResult degraded = NncSearch(dataset, options).Run(entry.query);

    EXPECT_EQ(degraded.termination, NncTermination::kDeadlineExceeded);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    EXPECT_GT(degraded.frontier_objects, 0);
    EXPECT_GT(degraded.frontier_nodes, 0);
    EXPECT_EQ(static_cast<long>(degraded.candidates.size()),
              degraded.frontier_objects)
        << "with nothing confirmed, every candidate comes from the frontier";
    // The excluded query object must not ride in via the frontier drain.
    EXPECT_EQ(std::count(degraded.candidates.begin(),
                         degraded.candidates.end(), entry.seeded_from),
              0);
  }
}

TEST(DegradedModeTest, MidTraversalCancellationYieldsSuperset) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);

    // Cancel from inside the traversal, after the first emission: part of
    // the tree is confirmed, the rest drains as frontier.
    QueryControl control;
    options.control = &control;
    options.degraded_superset = true;
    const NncResult degraded =
        NncSearch(dataset, options)
            .Run(entry.query, [&control](int, double) {
              control.cancel.store(true, std::memory_order_relaxed);
            });

    EXPECT_EQ(degraded.termination, NncTermination::kCancelled);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    // The first emission happened, so at least one candidate was confirmed
    // ahead of the frontier.
    EXPECT_GT(static_cast<long>(degraded.candidates.size()),
              degraded.frontier_objects);
  }
}

constexpr Operator kFiveOps[] = {Operator::kSSd, Operator::kSsSd,
                                 Operator::kPSd, Operator::kFSd,
                                 Operator::kFPlusSd};

/// Runs `options` in anytime mode under a deadline that starts an hour
/// away, so every poll reads the clock, and is pulled in to now() at the
/// first emission. The poll at the next heap pop must then stop the
/// traversal: the timeline holds exactly that one emission.
NncResult PullDeadlineInAtFirstEmission(const Dataset& dataset,
                                        const UncertainObject& query,
                                        NncOptions options) {
  QueryControl control;
  control.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  options.control = &control;
  options.degraded_superset = true;
  NncResult degraded =
      NncSearch(dataset, options).Run(query, [&control](int, double) {
        control.deadline = std::chrono::steady_clock::now();
      });
  EXPECT_EQ(degraded.termination, NncTermination::kDeadlineExceeded);
  EXPECT_EQ(degraded.timeline.size(), 1u)
      << "the poll after the first emission must see the passed deadline";
  return degraded;
}

TEST(DegradedModeTest, DeadlineWhileAnObjectIsParkedKeepsIt) {
  // The wide object is parked at its first pop and waits for the last
  // one. A deadline pulled in at the first emission stops the traversal at
  // the next pop, long before that: the wide object is in the heap only as
  // a parked item, and the drain must still certify it.
  Rng rng(17);
  const int wide = 120;
  const Dataset dataset(test::ParkingObjects(wide, rng));
  const UncertainObject query =
      UncertainObject::Uniform(-1, 2, {50.0, 50.0, 51.0, 51.0});

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    const NncResult exact = NncSearch(dataset, options).Run(query);
    ASSERT_EQ(std::count(exact.candidates.begin(), exact.candidates.end(),
                         wide),
              0);

    const NncResult degraded =
        PullDeadlineInAtFirstEmission(dataset, query, options);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    for (const NncEmission& e : degraded.timeline) {
      EXPECT_NE(e.object_id, wide) << "the wide object was never confirmed";
    }
    EXPECT_EQ(std::count(degraded.candidates.begin(),
                         degraded.candidates.end(), wide),
              1);
    EXPECT_GE(degraded.frontier_objects, 1);
  }
}

TEST(DegradedModeTest, DeadlinePulledInStopsAtTheNextPopOnCaLike) {
  // The parking dataset has a one-member S-SD answer and no parked object
  // under F+-SD (MBR dominance never beats the wide object), so the same
  // pull-in runs for all five operators on the CA surrogate. Every
  // operator keeps many candidates there, and the traversal would emit
  // more of them if the poll after the first emission skipped its clock
  // read.
  const Dataset dataset = CaLike(1);
  WorkloadParams wp;
  wp.num_queries = 1;
  wp.seed = 424242;
  const QueryWorkloadEntry entry = GenerateWorkload(dataset, wp)[0];

  for (Operator op : kFiveOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);
    ASSERT_GT(exact.candidates.size(), 1u);

    const NncResult degraded =
        PullDeadlineInAtFirstEmission(dataset, entry.query, options);
    ExpectCertifiedSuperset(degraded, exact.candidates);
  }
}

TEST(DegradedModeTest, WithoutTheFlagEarlyTerminationStaysPartial) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  QueryControl control;
  control.deadline = std::chrono::steady_clock::now();
  options.control = &control;
  const NncResult partial = NncSearch(dataset, options).Run(entry.query);

  EXPECT_EQ(partial.termination, NncTermination::kDeadlineExceeded);
  EXPECT_FALSE(partial.degraded);
  EXPECT_EQ(partial.frontier_objects, 0);
  EXPECT_EQ(partial.frontier_nodes, 0);
  EXPECT_TRUE(partial.candidates.empty());
}

TEST(DegradedModeTest, CompleteTraversalIgnoresTheFlag) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  const NncResult exact = NncSearch(dataset, options).Run(entry.query);

  options.degraded_superset = true;
  const NncResult flagged = NncSearch(dataset, options).Run(entry.query);
  EXPECT_EQ(flagged.termination, NncTermination::kComplete);
  EXPECT_FALSE(flagged.degraded);
  EXPECT_EQ(flagged.candidates, exact.candidates);
}

TEST(DegradedModeTest, EngineReportsOkDegradedWithStats) {
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  const NncResult exact = NncSearch(dataset, options).Run(entry.query);

  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  options.degraded_superset = true;
  QuerySpec spec;
  spec.query = entry.query;
  spec.options = options;
  spec.deadline_seconds = 1e-9;
  auto ticket = engine.Submit(std::move(spec));

  ASSERT_EQ(ticket->Wait(), QueryStatus::kOkDegraded);
  EXPECT_TRUE(ticket->result().degraded);
  EXPECT_TRUE(ticket->error().empty());
  ExpectCertifiedSuperset(ticket->result(), exact.candidates);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.ok_degraded, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.frontier_objects, ticket->result().frontier_objects);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"ok_degraded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier_objects\":"), std::string::npos) << json;
}

TEST(DegradedModeTest, StatusNamesCoverNewStates) {
  EXPECT_STREQ(QueryStatusName(QueryStatus::kOkDegraded), "OK_DEGRADED");
  EXPECT_STREQ(QueryStatusName(QueryStatus::kRejected), "REJECTED");
}

}  // namespace
}  // namespace osd
