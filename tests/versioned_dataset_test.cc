// The epoch-snapshot store and the abort-on-input sweep that shipped with
// it (ISSUE 8): empty Dataset/RTree semantics, the validating Try*
// constructors (including the dim-9..32 wire regression), moved-from
// LocalTree(), snapshot visibility and pinned-epoch determinism under
// writes, fold equivalence, all-or-nothing mutation batches, memory-budget
// charge/drain accounting, and the engine's pin-at-submit query_object_id
// resolution.

#include <cmath>
#include <limits>
#include <set>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_budget.h"
#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "object/versioned_dataset.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 200, uint64_t seed = 11) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 4;
  p.seed = seed;
  return GenerateSynthetic(p);
}

std::shared_ptr<const UncertainObject> FarObject(int id, double offset) {
  return std::make_shared<const UncertainObject>(UncertainObject::Uniform(
      id, 2, {offset, offset, offset + 1.0, offset + 1.0}));
}

Mutation Insert(int id, double offset = 5000.0) {
  Mutation m;
  m.kind = Mutation::Kind::kInsert;
  m.id = id;
  m.object = FarObject(id, offset);
  return m;
}

Mutation Delete(int id) {
  Mutation m;
  m.kind = Mutation::Kind::kDelete;
  m.id = id;
  return m;
}

Mutation Update(int id, double offset) {
  Mutation m;
  m.kind = Mutation::Kind::kUpdate;
  m.id = id;
  m.object = FarObject(id, offset);
  return m;
}

/// Candidates of a snapshot search as *external ids*, the stable name that
/// survives folds and re-indexing. `exclude_ext_id` is likewise an
/// external id; NncOptions::exclude_id wants the per-snapshot index, so it
/// is resolved here (IndexOf returns -1 for a dead id, which keeps
/// everything — the correct reading of "exclude an object that no longer
/// exists").
std::set<int> CandidateIds(const VersionedDataset::Snapshot& snap,
                           const UncertainObject& query, int exclude_ext_id) {
  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = snap.IndexOf(exclude_ext_id);
  const NncResult result = NncSearch(snap, options).Run(query);
  EXPECT_EQ(result.termination, NncTermination::kComplete);
  std::set<int> ids;
  for (int idx : result.candidates) ids.insert(snap.object(idx).id());
  return ids;
}

// ---------------------------------------------------------------------------
// Satellite (a): empty Dataset / RTree semantics.

TEST(EmptyInputTest, EmptyDatasetAndTreeAreValid) {
  const Dataset empty{std::vector<UncertainObject>{}};
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.dim(), 0);

  const RTree& tree = empty.global_tree();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), -1);
  EXPECT_EQ(tree.height(), 0);
}

TEST(EmptyInputTest, EmptyStoreAnswersQueriesWithZeroCandidates) {
  VersionedDataset store{Dataset{std::vector<UncertainObject>{}}};
  const auto snap = store.Acquire();
  EXPECT_EQ(snap.size(), 0);
  EXPECT_EQ(snap.live_size(), 0);

  const UncertainObject query = UncertainObject::Uniform(-1, 2, {0.5, 0.5});
  NncOptions options;
  options.op = Operator::kSSd;
  const NncResult result = NncSearch(snap, options).Run(query);
  EXPECT_EQ(result.termination, NncTermination::kComplete);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(EmptyInputTest, StoreConstructedEmptyTakesDimFromFirstInsert) {
  VersionedDataset store{Dataset{std::vector<UncertainObject>{}}};
  EXPECT_EQ(store.dim(), 0);
  std::string error;
  ASSERT_TRUE(store.Apply({Insert(1)}, &error)) << error;
  EXPECT_EQ(store.dim(), 2);
  // The fixed dim now rejects mismatching payloads, recoverably.
  Mutation bad;
  bad.kind = Mutation::Kind::kInsert;
  bad.id = 2;
  bad.object = std::make_shared<const UncertainObject>(
      UncertainObject::Uniform(2, 3, {1.0, 1.0, 1.0}));
  EXPECT_FALSE(store.Apply({std::move(bad)}, &error));
  EXPECT_NE(error.find("dim"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Satellite (b): the validating Try* constructors never abort on hostile
// payloads. The dim cases pin the wire regression where the protocol
// accepted dims up to 32 but Point::kMaxDim is 8 — dims 9..32 used to hit
// an OSD_CHECK abort inside the constructor.

TEST(TryValidationTest, RejectsOutOfRangeDimsIncludingTheWireGap) {
  for (int dim : {0, -1, Point::kMaxDim + 1, 32}) {
    SCOPED_TRACE(dim);
    UncertainObject out = UncertainObject::Uniform(-1, 1, {0.0});
    std::string error;
    std::vector<double> coords(std::max(dim, 1), 1.0);
    EXPECT_FALSE(UncertainObject::TryFromWeighted(7, dim, coords, {1.0},
                                                  &out, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(out.id(), -1) << "*out must be untouched on failure";
  }
}

TEST(TryValidationTest, RejectsMalformedInstancePayloads) {
  UncertainObject out = UncertainObject::Uniform(-1, 1, {0.0});
  std::string error;

  // Empty mass.
  EXPECT_FALSE(UncertainObject::TryCreate(7, 2, {}, {}, &out, &error));
  // Coordinate / mass size disagreement.
  EXPECT_FALSE(
      UncertainObject::TryCreate(7, 2, {1.0, 2.0}, {0.5, 0.5}, &out, &error));
  // Non-finite coordinate.
  EXPECT_FALSE(UncertainObject::TryCreate(
      7, 2, {1.0, std::numeric_limits<double>::quiet_NaN()}, {1.0}, &out,
      &error));
  // Non-positive weight.
  EXPECT_FALSE(
      UncertainObject::TryFromWeighted(7, 2, {1.0, 2.0}, {0.0}, &out, &error));
  // Probabilities that do not sum to 1.
  EXPECT_FALSE(UncertainObject::TryCreate(7, 2, {1.0, 2.0, 3.0, 4.0},
                                          {0.9, 0.9}, &out, &error));
  EXPECT_EQ(out.id(), -1);

  // And the happy path round-trips.
  ASSERT_TRUE(UncertainObject::TryFromWeighted(7, 2, {1.0, 2.0, 3.0, 4.0},
                                               {1.0, 3.0}, &out, &error))
      << error;
  EXPECT_EQ(out.id(), 7);
  EXPECT_EQ(out.num_instances(), 2);
  EXPECT_DOUBLE_EQ(out.Prob(0), 0.25);
}

// ---------------------------------------------------------------------------
// Satellite (c): a moved-from object reports misuse instead of a release-
// build null deref.

TEST(TryValidationTest, MovedFromLocalTreeThrowsLogicError) {
  UncertainObject a = UncertainObject::Uniform(1, 2, {1.0, 2.0});
  UncertainObject b = std::move(a);
  EXPECT_NO_THROW(b.LocalTree());
  EXPECT_THROW(a.LocalTree(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Tentpole: snapshot visibility, pinned-epoch determinism, folds, batches,
// budget accounting.

TEST(VersionedDatasetTest, WritesAreVisibleOnlyToLaterSnapshots) {
  VersionedDataset store(SmallDataset());
  const auto snap0 = store.Acquire();
  const int base = snap0.size();

  std::string error;
  uint64_t epoch = 0;
  ASSERT_TRUE(store.Apply({Insert(9001), Insert(9002)}, &error, &epoch))
      << error;
  EXPECT_EQ(epoch, 1u);

  const auto snap1 = store.Acquire();
  EXPECT_EQ(snap0.epoch(), 0u);
  EXPECT_EQ(snap1.epoch(), 1u);
  EXPECT_EQ(snap0.IndexOf(9001), -1);
  EXPECT_EQ(snap0.live_size(), base);
  EXPECT_GE(snap1.IndexOf(9001), base) << "inserts land in the delta range";
  EXPECT_EQ(snap1.live_size(), base + 2);

  // Update replaces the payload under the same external id; delete
  // tombstones without shrinking the base index space.
  ASSERT_TRUE(store.Apply({Update(9001, 7000.0), Delete(0)}, &error)) << error;
  const auto snap2 = store.Acquire();
  const int idx = snap2.IndexOf(9001);
  ASSERT_GE(idx, 0);
  EXPECT_DOUBLE_EQ(snap2.object(idx).Instance(0)[0], 7000.0);
  EXPECT_EQ(snap2.IndexOf(0), -1);
  EXPECT_EQ(snap2.base_size(), snap0.base_size());
  EXPECT_EQ(snap2.live_size(), base + 1);
  // The tombstoned slot still holds its object for older epochs' sake.
  EXPECT_TRUE(snap2.deleted(snap0.IndexOf(0)));
  EXPECT_EQ(snap0.IndexOf(0), 0);
}

TEST(VersionedDatasetTest, PinnedEpochIsBitIdenticalUnderAWriterStorm) {
  const Dataset dataset = SmallDataset();
  WorkloadParams wp;
  wp.num_queries = 2;
  wp.seed = 23;
  const auto workload = GenerateWorkload(dataset, wp);
  constexpr Operator kAllOps[] = {Operator::kSSd, Operator::kSsSd,
                                  Operator::kPSd, Operator::kFSd};

  VersionedDataset store(dataset);
  const auto pinned = store.Acquire();

  // Ordered candidates, per operator and query — "bit-identical" means the
  // whole vector, not just the set.
  auto run = [&](Operator op, const QueryWorkloadEntry& entry) {
    NncOptions options;
    options.op = op;
    options.exclude_id = pinned.IndexOf(entry.seeded_from);
    const NncResult result = NncSearch(pinned, options).Run(entry.query);
    EXPECT_EQ(result.termination, NncTermination::kComplete);
    EXPECT_EQ(result.epoch, 0u);
    return result.candidates;
  };
  std::vector<std::vector<int>> baseline;
  for (Operator op : kAllOps) {
    for (const auto& entry : workload) baseline.push_back(run(op, entry));
  }

  // A concurrent writer storm: insert/update/delete batches with periodic
  // synchronous folds, racing the pinned-epoch re-runs below.
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    std::string error;
    int next = 10000;
    while (!stop.load(std::memory_order_relaxed)) {
      const int id = next++;
      // Delete the object inserted two rounds ago (still live — round-1
      // only updated it), or a seed object for the first two rounds.
      const int victim = id >= 10002 ? id - 2 : id - 10000;
      ASSERT_TRUE(store.Apply({Insert(id), Delete(victim),
                               Update(id, 6000.0 + id)},
                              &error))
          << error;
      if (id % 16 == 0) store.Fold();
    }
  });

  for (int round = 0; round < 10; ++round) {
    size_t b = 0;
    for (Operator op : kAllOps) {
      for (const auto& entry : workload) {
        SCOPED_TRACE(OperatorName(op));
        EXPECT_EQ(run(op, entry), baseline[b++]);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(store.epoch(), 0u) << "the storm never landed a write";
}

TEST(VersionedDatasetTest, FoldPreservesAnswersAndRetiresTheDelta) {
  const Dataset dataset = SmallDataset();
  WorkloadParams wp;
  wp.num_queries = 4;
  wp.seed = 29;
  const auto workload = GenerateWorkload(dataset, wp);

  VersionedDataset store(dataset);
  std::string error;
  // Mutations *inside* the data region so the delta genuinely matters:
  // objects near the seed distribution, plus deletes of seed objects.
  for (int i = 0; i < 40; ++i) {
    Mutation ins;
    ins.kind = Mutation::Kind::kInsert;
    ins.id = 20000 + i;
    ins.object = std::make_shared<const UncertainObject>(
        UncertainObject::Uniform(20000 + i, 2,
                                 {0.1 + i * 0.02, 0.2 + i * 0.015,
                                  0.15 + i * 0.02, 0.25 + i * 0.015}));
    ASSERT_TRUE(store.Apply({std::move(ins), Delete(i * 3)}, &error)) << error;
  }

  const auto pre = store.Acquire();
  ASSERT_GT(store.GetStats().delta_size, 0);

  const uint64_t folded_epoch = store.Fold();
  const auto post = store.Acquire();
  EXPECT_EQ(post.epoch(), folded_epoch);
  EXPECT_GT(folded_epoch, pre.epoch());

  const VersionedDataset::Stats stats = store.GetStats();
  EXPECT_EQ(stats.delta_size, 0);
  EXPECT_EQ(stats.tombstones, 0);
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(post.live_size(), pre.live_size());
  EXPECT_EQ(post.size(), post.base_size()) << "folded state has no delta";

  // Same answers either side of the fold, by external id.
  for (const auto& entry : workload) {
    EXPECT_EQ(CandidateIds(pre, entry.query, entry.seeded_from),
              CandidateIds(post, entry.query, entry.seeded_from));
  }
  // Folding an already-folded store is a no-op at the same epoch.
  EXPECT_EQ(store.Fold(), folded_epoch);
}

TEST(VersionedDatasetTest, MalformedBatchesAreAllOrNothing) {
  VersionedDataset store(SmallDataset(50));
  std::string error;
  ASSERT_TRUE(store.Apply({Insert(9001)}, &error)) << error;
  const uint64_t epoch_before = store.epoch();
  const uint64_t mutations_before = store.GetStats().mutations;

  // Each batch leads with a perfectly valid op; the bad one must sink both.
  std::vector<std::pair<const char*, std::vector<Mutation>>> cases = [] {
    std::vector<std::pair<const char*, std::vector<Mutation>>> c;
    c.emplace_back("insert with duplicate live id",
                   std::vector<Mutation>{Insert(9100), Insert(9001)});
    c.emplace_back("delete of unknown id",
                   std::vector<Mutation>{Insert(9101), Delete(424242)});
    c.emplace_back("update of unknown id",
                   std::vector<Mutation>{Insert(9102), Update(424242, 1.0)});
    Mutation no_payload;
    no_payload.kind = Mutation::Kind::kInsert;
    no_payload.id = 9103;
    c.emplace_back("insert without payload",
                   std::vector<Mutation>{Insert(9104),
                                         std::move(no_payload)});
    Mutation id_mismatch = Insert(9105);
    id_mismatch.id = 9106;  // payload says 9105
    c.emplace_back("payload/op id disagreement",
                   std::vector<Mutation>{Insert(9107),
                                         std::move(id_mismatch)});
    c.emplace_back("duplicate id within one batch",
                   std::vector<Mutation>{Insert(9108), Insert(9108)});
    return c;
  }();

  for (auto& [what, ops] : cases) {
    SCOPED_TRACE(what);
    error.clear();
    EXPECT_FALSE(store.Apply(std::move(ops), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(store.epoch(), epoch_before) << "rejected batch moved the epoch";
  }
  const auto snap = store.Acquire();
  for (int id : {9100, 9101, 9102, 9104, 9107}) {
    EXPECT_EQ(snap.IndexOf(id), -1)
        << "valid op " << id << " from a rejected batch leaked in";
  }
  EXPECT_EQ(store.GetStats().mutations, mutations_before);
}

TEST(VersionedDatasetTest, BudgetChargesAndDrainsToZero) {
  memory::MemoryBudget budget(1 << 20);
  {
    VersionedDataset store(SmallDataset(50), &budget);
    EXPECT_EQ(budget.current_bytes(), 0) << "the base is uncharged";

    std::string error;
    ASSERT_TRUE(store.Apply({Insert(9001), Insert(9002)}, &error)) << error;
    const long charged = budget.current_bytes();
    EXPECT_GT(charged, 0) << "delta objects are charged";

    // An over-budget batch fails recoverably, names the budget, and
    // changes nothing — including the charge.
    Mutation huge;
    huge.kind = Mutation::Kind::kInsert;
    huge.id = 9003;
    std::vector<double> coords(2 * 40000, 4000.0);
    huge.object = std::make_shared<const UncertainObject>(
        UncertainObject::Uniform(9003, 2, std::move(coords)));
    EXPECT_FALSE(store.Apply({std::move(huge)}, &error));
    EXPECT_NE(error.find("memory budget"), std::string::npos) << error;
    EXPECT_EQ(budget.current_bytes(), charged);
    EXPECT_EQ(store.Acquire().IndexOf(9003), -1);

    // While a pre-fold snapshot is pinned its delta stays alive (and
    // charged); the drain completes once the pin releases.
    const auto pinned = store.Acquire();
    store.Fold();
    EXPECT_LT(pinned.epoch(), store.epoch());
    EXPECT_EQ(budget.current_bytes(), charged)
        << "pinned pre-fold epoch keeps its delta charged";
  }
  EXPECT_EQ(budget.current_bytes(), 0)
      << "fold + snapshot retirement must return the budget to zero";
}

// Regression (review): a kDelete carrying a stray payload must behave
// exactly like a payload-free delete. ValidateOp deliberately skips
// payload checks for deletes, so before the fix the unvalidated payload
// was still budget-charged — big enough, it turned a legitimate delete
// into a spurious "memory budget refused" failure.
TEST(VersionedDatasetTest, StrayDeletePayloadIsIgnored) {
  memory::MemoryBudget budget(1 << 20);
  {
    VersionedDataset store(SmallDataset(10), &budget);
    std::string error;
    ASSERT_TRUE(store.Apply({Insert(9001)}, &error)) << error;
    const long charged = budget.current_bytes();

    // Stray payload big enough that charging it would exhaust the budget.
    Mutation del = Delete(9001);
    std::vector<double> coords(2 * 80000, 1.0);
    del.object = std::make_shared<const UncertainObject>(
        UncertainObject::Uniform(9001, 2, std::move(coords)));
    ASSERT_TRUE(store.Apply({std::move(del)}, &error)) << error;
    EXPECT_EQ(store.Acquire().IndexOf(9001), -1);
    EXPECT_LE(budget.current_bytes(), charged)
        << "a delete must never add budget charge";
    EXPECT_EQ(store.dim(), 2) << "a delete payload must never fix the dim";
  }
  EXPECT_EQ(budget.current_bytes(), 0);
}

// Regression (review): with no fold thread and no manual Fold, accepted
// mutations used to accumulate in log_ forever — insert/update budget
// charges never drained (turning "retry later" refusals permanent) and
// delete-only storms grew the log and tombstone set without any cap. The
// synchronous backstop folds once the un-folded log crosses the threshold.
TEST(VersionedDatasetTest, FoldBackstopBoundsTheLogWithoutAFoldThread) {
  memory::MemoryBudget budget(8L << 20);
  {
    VersionedDataset store(SmallDataset(10), &budget);
    store.SetFoldBackstop(8);
    std::string error;
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(store.Apply({Insert(10000 + i)}, &error)) << error;
    }
    VersionedDataset::Stats stats = store.GetStats();
    EXPECT_GE(stats.folds, 3u) << "backstop never fired";
    EXPECT_LT(stats.delta_size, 8);

    // Delete-only storms are bounded by the same backstop: every forced
    // fold compacts the tombstones and clears the log.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(store.Apply({Delete(10000 + i)}, &error)) << error;
    }
    stats = store.GetStats();
    EXPECT_GE(stats.folds, 6u);
    EXPECT_LT(stats.tombstones, 8);
    EXPECT_EQ(budget.current_bytes(), 0)
        << "with no snapshot pinned, backstop folds drain every charge";
  }
  EXPECT_EQ(budget.current_bytes(), 0);
}

TEST(VersionedDatasetTest, SnapshotPinsAreRefcountedAcrossCopies) {
  VersionedDataset store(SmallDataset(20));
  EXPECT_EQ(store.live_snapshots(), 0);
  {
    const auto a = store.Acquire();
    EXPECT_EQ(store.live_snapshots(), 1);
    auto b = a;  // copy re-pins
    const auto c = store.Acquire();
    EXPECT_EQ(store.live_snapshots(), 3);
    const auto moved = std::move(b);  // move transfers the pin
    EXPECT_EQ(store.live_snapshots(), 3);
    VersionedDataset::Snapshot assigned;
    assigned = moved;  // copy-assign re-pins
    EXPECT_EQ(store.live_snapshots(), 4);
  }
  EXPECT_EQ(store.live_snapshots(), 0);
}

// ---------------------------------------------------------------------------
// Engine integration: the snapshot is pinned at Submit, and id-named
// queries resolve against that pinned epoch with precise errors. The wire
// name is an EXTERNAL id — stable across folds, unlike snapshot indices.

TEST(VersionedEngineTest, QueryObjectIdResolvesAgainstThePinnedEpoch) {
  const Dataset dataset = SmallDataset();
  QueryEngine engine(dataset, {.num_threads = 1});

  // Ground truth: the same object queried inline.
  const UncertainObject& target = dataset.object(5);
  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = target.id();
  QuerySpec inline_spec;
  inline_spec.query = target;
  inline_spec.options = options;
  auto inline_ticket = engine.Submit(std::move(inline_spec));
  ASSERT_EQ(inline_ticket->Wait(), QueryStatus::kOk);

  QuerySpec named;
  named.options = options;
  named.query_object_id = 5;
  auto named_ticket = engine.Submit(std::move(named));
  ASSERT_EQ(named_ticket->Wait(), QueryStatus::kOk);
  EXPECT_EQ(named_ticket->result().candidates,
            inline_ticket->result().candidates);
}

TEST(VersionedEngineTest, DeadQueryObjectIdFailsPreciselyNeverAborts) {
  QueryEngine engine(SmallDataset(30), {.num_threads = 1});

  // No object ever had this id.
  QuerySpec spec;
  spec.options.op = Operator::kSSd;
  spec.query_object_id = 1000;
  auto ticket = engine.Submit(std::move(spec));
  EXPECT_EQ(ticket->Wait(), QueryStatus::kError);
  EXPECT_NE(ticket->error().find("not live"), std::string::npos)
      << ticket->error();

  // Tombstoned between pin and resolution: delete object 3, then name it.
  std::string error;
  ASSERT_TRUE(engine.versioned().Apply({Delete(3)}, &error)) << error;
  QuerySpec dead;
  dead.options.op = Operator::kSSd;
  dead.query_object_id = 3;
  auto dead_ticket = engine.Submit(std::move(dead));
  EXPECT_EQ(dead_ticket->Wait(), QueryStatus::kError);
  EXPECT_NE(dead_ticket->error().find("not live"), std::string::npos)
      << dead_ticket->error();
  engine.Drain();
}

// Regression (review): the query name must survive a fold that compacts
// snapshot indices. Under index addressing, deleting id 0 and folding made
// "object 3" silently resolve to the object formerly known as 4 — status
// OK, results for the wrong query object. External ids cannot move.
TEST(VersionedEngineTest, QueryObjectIdIsStableAcrossFolds) {
  // Six single-instance objects on a line, 100 apart: id 3's nearest
  // neighbors (and therefore its whole SSd candidate set) are drawn from
  // {2, 4}; id 0 is far away and never a candidate.
  std::vector<UncertainObject> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(UncertainObject::Uniform(i, 2, {i * 100.0, 0.0}));
  }
  QueryEngine engine(Dataset(std::move(objs)), {.num_threads = 1});

  QuerySpec spec;
  spec.options.op = Operator::kSSd;
  spec.query_object_id = 3;
  auto before = engine.Submit(spec);
  ASSERT_EQ(before->Wait(), QueryStatus::kOk);
  // Epoch 0: snapshot indices coincide with external ids.
  const std::set<int> ids_before(before->result().candidates.begin(),
                                 before->result().candidates.end());
  ASSERT_TRUE(ids_before.count(3) == 0) << "query excluded itself";

  std::string error;
  ASSERT_TRUE(engine.versioned().Apply({Delete(0)}, &error)) << error;
  const uint64_t folded_epoch = engine.versioned().Fold();

  auto after = engine.Submit(std::move(spec));
  ASSERT_EQ(after->Wait(), QueryStatus::kOk);
  EXPECT_EQ(after->result().epoch, folded_epoch);
  const auto snap = engine.versioned().Acquire();
  std::set<int> ids_after;
  for (int idx : after->result().candidates) {
    ids_after.insert(snap.object(idx).id());
  }
  EXPECT_EQ(ids_after, ids_before);
  engine.Drain();
}

TEST(VersionedEngineTest, ResultsCarryTheEpochTheyRanAt) {
  const Dataset dataset = SmallDataset(50);
  const QueryWorkloadEntry entry = [&] {
    WorkloadParams wp;
    wp.num_queries = 1;
    return GenerateWorkload(dataset, wp)[0];
  }();
  QueryEngine engine(dataset, {.num_threads = 1});

  QuerySpec spec;
  spec.query = entry.query;
  spec.options.op = Operator::kSSd;
  spec.options.exclude_id = entry.seeded_from;
  auto t0 = engine.Submit(spec);
  ASSERT_EQ(t0->Wait(), QueryStatus::kOk);
  EXPECT_EQ(t0->result().epoch, 0u);

  std::string error;
  ASSERT_TRUE(engine.versioned().Apply({Insert(9001)}, &error)) << error;
  auto t1 = engine.Submit(std::move(spec));
  ASSERT_EQ(t1->Wait(), QueryStatus::kOk);
  EXPECT_EQ(t1->result().epoch, 1u);
  // The far-away insert cannot change this query's answer.
  EXPECT_EQ(t1->result().candidates, t0->result().candidates);
  engine.Drain();
}

}  // namespace
}  // namespace osd
