// Cross-query work sharing: the engine's result cache
// (engine/result_cache.h, engine wiring in engine/query_engine.cc), plus
// the engine's queueing behind a busy worker and its overload shedding.
//
// The load-bearing property is that a hit answers exactly as a search
// would: for every operator the candidates, the emission order and the
// termination equal the cache-off run, at one epoch and after a write
// opens the next. Only complete answers are stored: a deadline-cut,
// cancelled or degraded run leaves the next identical query to miss.

#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_budget.h"
#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "object/versioned_dataset.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 400, uint64_t seed = 17) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 6;
  p.seed = seed;
  return GenerateSynthetic(p);
}

std::vector<QueryWorkloadEntry> SmallWorkload(const Dataset& dataset, int n,
                                              uint64_t seed = 23) {
  WorkloadParams wp;
  wp.num_queries = n;
  wp.query_instances = 5;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp);
}

void ExpectSameStats(const FilterStats& a, const FilterStats& b) {
  EXPECT_EQ(a.dist_evals, b.dist_evals);
  EXPECT_EQ(a.scan_steps, b.scan_steps);
  EXPECT_EQ(a.pair_tests, b.pair_tests);
  EXPECT_EQ(a.node_ops, b.node_ops);
  EXPECT_EQ(a.flow_runs, b.flow_runs);
  EXPECT_EQ(a.mbr_validations, b.mbr_validations);
  EXPECT_EQ(a.stat_validations, b.stat_validations);
  EXPECT_EQ(a.stat_prunes, b.stat_prunes);
  EXPECT_EQ(a.cover_prunes, b.cover_prunes);
  EXPECT_EQ(a.exact_checks, b.exact_checks);
  EXPECT_EQ(a.dominance_checks, b.dominance_checks);
}

QuerySpec SpecFor(const QueryWorkloadEntry& entry, Operator op) {
  QuerySpec spec;
  spec.query = entry.query;
  spec.options.op = op;
  spec.options.exclude_id = entry.seeded_from;
  return spec;
}

/// What one query returned, as a caller sees it.
struct Answer {
  QueryStatus status = QueryStatus::kError;
  std::vector<int> candidates;
  std::vector<int> streamed;  // on_emission object ids, in call order
  std::vector<int> timeline;  // NncResult::timeline object ids
  NncTermination termination = NncTermination::kComplete;
  FilterStats stats;
  long objects_examined = 0;
};

Answer Ask(QueryEngine& engine, QuerySpec spec) {
  auto streamed = std::make_shared<std::vector<int>>();
  spec.on_emission = [streamed](const NncEmission& e) {
    streamed->push_back(e.object_id);
  };
  auto ticket = engine.Submit(std::move(spec));
  Answer a;
  a.status = ticket->Wait();
  EXPECT_EQ(a.status, QueryStatus::kOk) << ticket->error();
  const NncResult& r = ticket->result();
  a.candidates = r.candidates;
  a.streamed = *streamed;
  for (const NncEmission& e : r.timeline) a.timeline.push_back(e.object_id);
  a.termination = r.termination;
  a.stats = r.stats;
  a.objects_examined = r.objects_examined;
  return a;
}

void ExpectSameAnswer(const Answer& want, const Answer& got) {
  EXPECT_EQ(want.status, got.status);
  EXPECT_EQ(want.candidates, got.candidates);
  EXPECT_EQ(want.streamed, got.streamed);
  EXPECT_EQ(want.timeline, got.timeline);
  EXPECT_EQ(want.termination, got.termination);
}

/// Inserts a copy of `object` under a fresh id: it sits on a query's own
/// instances, so that query's answer changes at the new epoch.
void InsertCopy(QueryEngine& engine, const UncertainObject& object) {
  Mutation m;
  m.kind = Mutation::Kind::kInsert;
  m.id = 100000;
  m.object = std::make_shared<const UncertainObject>(
      UncertainObject::Uniform(100000, object.dim(), object.coords()));
  std::string error;
  ASSERT_TRUE(engine.versioned().Apply({std::move(m)}, &error)) << error;
}

// --- ResultCache unit semantics ---------------------------------------------

TEST(ResultCacheTest, QuerySignatureIsValueBased) {
  const UncertainObject a =
      UncertainObject::Uniform(1, 2, {0.0, 0.0, 1.0, 1.0});
  const UncertainObject same_shape =
      UncertainObject::Uniform(99, 2, {0.0, 0.0, 1.0, 1.0});
  const UncertainObject other =
      UncertainObject::Uniform(1, 2, {0.0, 0.0, 2.0, 1.0});
  // Same instance geometry => same signature, regardless of object id...
  EXPECT_EQ(ComputeQuerySignature(a, Metric::kL2),
            ComputeQuerySignature(same_shape, Metric::kL2));
  // ...different geometry or metric => different signature.
  EXPECT_NE(ComputeQuerySignature(a, Metric::kL2),
            ComputeQuerySignature(other, Metric::kL2));
  EXPECT_NE(ComputeQuerySignature(a, Metric::kL2),
            ComputeQuerySignature(a, Metric::kL1));
}

NncResult ResultWith(std::vector<int> candidates) {
  NncResult r;
  for (const int id : candidates) r.timeline.push_back({id, 0.0});
  r.candidates = std::move(candidates);
  return r;
}

TEST(ResultCacheTest, MissInsertHitAndEveryKeyFieldCounts) {
  ResultCache cache(1 << 20, nullptr);
  const UncertainObject q = UncertainObject::Uniform(1, 2, {0, 0, 1, 1});
  NncOptions options;
  const ResultCache::Key key = ResultCache::KeyFor(q, options, 3);
  EXPECT_EQ(cache.Lookup(key, q), nullptr);
  cache.Insert(key, q, ResultWith({4, 2, 9}));
  const auto hit = cache.Lookup(key, q);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->candidates, (std::vector<int>{4, 2, 9}));
  EXPECT_EQ(hit->emitted, (std::vector<int>{4, 2, 9}));

  // Any other operator, k, filter preset, excluded index, metric or epoch
  // is another key.
  std::vector<ResultCache::Key> others(6, key);
  others[0].op = Operator::kSSd;
  others[1].k = 2;
  others[2].filters = FilterConfig::BruteForce();
  others[3].exclude_id = 7;
  others[4].metric = Metric::kL1;
  others[5].epoch = 2;
  for (const ResultCache::Key& other : others) {
    EXPECT_EQ(cache.Lookup(other, q), nullptr);
  }
  const ResultCache::Counters c = cache.GetCounters();
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.misses, 7);
  EXPECT_GT(c.bytes, 0);
}

// A signature collision (same key, another query by value) is a miss.
TEST(ResultCacheTest, CollidingQueryByValueMisses) {
  ResultCache cache(1 << 20, nullptr);
  const UncertainObject q = UncertainObject::Uniform(1, 2, {0, 0, 1, 1});
  const UncertainObject moved = UncertainObject::Uniform(1, 2, {0, 0, 1, 2});
  const UncertainObject weighted =
      UncertainObject::FromWeighted(1, 2, {0, 0, 1, 1}, {1.0, 3.0});
  const ResultCache::Key key = ResultCache::KeyFor(q, NncOptions{}, 0);
  cache.Insert(key, q, ResultWith({1}));
  EXPECT_EQ(cache.Lookup(key, moved), nullptr);
  EXPECT_EQ(cache.Lookup(key, weighted), nullptr);
  EXPECT_NE(cache.Lookup(key, q), nullptr);
}

TEST(ResultCacheTest, NewerEpochInsertRetiresOlderEntriesAndOlderIsDropped) {
  ResultCache cache(1 << 20, nullptr);
  const UncertainObject a = UncertainObject::Uniform(1, 2, {0, 0, 1, 1});
  const UncertainObject b = UncertainObject::Uniform(2, 2, {5, 5, 6, 6});
  const ResultCache::Key a4 = ResultCache::KeyFor(a, NncOptions{}, 4);
  const ResultCache::Key b5 = ResultCache::KeyFor(b, NncOptions{}, 5);
  const ResultCache::Key a3 = ResultCache::KeyFor(a, NncOptions{}, 3);
  cache.Insert(a4, a, ResultWith({1}));
  cache.Insert(b5, b, ResultWith({2}));
  EXPECT_EQ(cache.Lookup(a4, a), nullptr) << "retired by the epoch-5 insert";
  EXPECT_NE(cache.Lookup(b5, b), nullptr);
  const long bytes = cache.GetCounters().bytes;
  cache.Insert(a3, a, ResultWith({1}));  // older than the resident epoch
  EXPECT_EQ(cache.Lookup(a3, a), nullptr);
  EXPECT_EQ(cache.GetCounters().bytes, bytes);
  EXPECT_EQ(cache.GetCounters().evictions, 0);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteCap) {
  std::vector<UncertainObject> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(UncertainObject::Uniform(i, 2, {1.0 * i, 0, 1, 1}));
  }
  std::vector<ResultCache::Key> keys;
  for (const UncertainObject& q : queries) {
    keys.push_back(ResultCache::KeyFor(q, NncOptions{}, 0));
  }
  // Room for two entries, not three.
  ResultCache probe(1 << 20, nullptr);
  probe.Insert(keys[0], queries[0], ResultWith({1}));
  const long entry_bytes = probe.GetCounters().bytes;
  ResultCache cache(2 * entry_bytes + entry_bytes / 2, nullptr);
  cache.Insert(keys[0], queries[0], ResultWith({1}));
  cache.Insert(keys[1], queries[1], ResultWith({1}));
  ASSERT_NE(cache.Lookup(keys[0], queries[0]), nullptr);  // 1 is now LRU
  cache.Insert(keys[2], queries[2], ResultWith({1}));
  EXPECT_NE(cache.Lookup(keys[0], queries[0]), nullptr);
  EXPECT_EQ(cache.Lookup(keys[1], queries[1]), nullptr);
  EXPECT_NE(cache.Lookup(keys[2], queries[2]), nullptr);
  EXPECT_EQ(cache.GetCounters().evictions, 1);
  EXPECT_EQ(cache.GetCounters().bytes, 2 * entry_bytes);
}

TEST(ResultCacheTest, ChargesAndDrainsEngineBudget) {
  memory::MemoryBudget budget(0);
  const UncertainObject q = UncertainObject::Uniform(1, 2, {0, 0, 1, 1});
  {
    ResultCache cache(1 << 20, &budget);
    cache.Insert(ResultCache::KeyFor(q, NncOptions{}, 0), q, ResultWith({1}));
    EXPECT_EQ(budget.current_bytes(), cache.GetCounters().bytes);
    EXPECT_GT(budget.current_bytes(), 0);
    cache.Clear();
    EXPECT_EQ(budget.current_bytes(), 0);
    cache.Insert(ResultCache::KeyFor(q, NncOptions{}, 0), q, ResultWith({1}));
  }
  EXPECT_EQ(budget.current_bytes(), 0) << "the destructor releases too";
}

// --- the engine with the cache on vs off -----------------------------------

class CachedVsUncachedTest : public ::testing::TestWithParam<Operator> {};

// Every operator: the first run of a query misses and equals the cache-off
// run, counters included; the repeat hits, answers the same (candidates,
// emission order, termination) and reads zero work. A write then opens a
// new epoch that changes an answer: the repeat misses, matches the
// cache-off engine at the new epoch, and its own repeat hits.
TEST_P(CachedVsUncachedTest, SameAnswerOnFirstRunRepeatAndAfterAWrite) {
  const Operator op = GetParam();
  QueryEngine plain(SmallDataset(), {.num_threads = 1});
  QueryEngine cached(SmallDataset(),
                     {.num_threads = 1, .profile_cache_bytes = 64 << 20});
  const auto workload = SmallWorkload(plain.dataset(), 4);
  const long n = static_cast<long>(workload.size());

  std::vector<std::vector<int>> epoch0;
  auto run_epoch = [&](long epoch) {
    for (const QueryWorkloadEntry& entry : workload) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + ", query " +
                   std::to_string(entry.seeded_from));
      const Answer off = Ask(plain, SpecFor(entry, op));
      const Answer first = Ask(cached, SpecFor(entry, op));
      const Answer repeat = Ask(cached, SpecFor(entry, op));
      ExpectSameAnswer(off, first);
      ExpectSameStats(off.stats, first.stats);
      EXPECT_EQ(off.objects_examined, first.objects_examined);
      ExpectSameAnswer(off, repeat);
      ExpectSameStats(FilterStats{}, repeat.stats);
      EXPECT_EQ(repeat.objects_examined, 0);
      if (epoch == 0) epoch0.push_back(off.candidates);
    }
    const EngineStats stats = cached.Snapshot();
    EXPECT_EQ(stats.profile_cache_misses, (epoch + 1) * n);
    EXPECT_EQ(stats.profile_cache_hits, (epoch + 1) * n);
  };
  run_epoch(0);
  InsertCopy(plain, workload[0].query);
  InsertCopy(cached, workload[0].query);
  run_epoch(1);
  EXPECT_NE(Ask(plain, SpecFor(workload[0], op)).candidates, epoch0[0])
      << "the write must change an answer for the epoch check to bite";
}

INSTANTIATE_TEST_SUITE_P(AllOperators, CachedVsUncachedTest,
                         ::testing::Values(Operator::kSSd, Operator::kSsSd,
                                           Operator::kPSd, Operator::kFSd,
                                           Operator::kFPlusSd),
                         [](const auto& info) {
                           std::string name = OperatorName(info.param);
                           for (char& c : name) {
                             if (c == '+') c = 'x';
                           }
                           return name;
                         });

// Only complete answers are stored. A run stopped by its deadline, by a
// cancel, or by a cancel in anytime mode (a degraded superset) leaves the
// next identical query to miss and search; that one is stored and hit.
TEST(ResultCacheEngineTest, CutAnswersAreNeverStored) {
  QueryEngine plain(SmallDataset(), {.num_threads = 1});
  QueryEngine cached(SmallDataset(),
                     {.num_threads = 1, .profile_cache_bytes = 64 << 20});
  const auto workload = SmallWorkload(plain.dataset(), 3);
  enum class Cut { kDeadline, kCancel, kDegraded };
  const std::array<Cut, 3> cuts = {Cut::kDeadline, Cut::kCancel,
                                   Cut::kDegraded};
  for (size_t i = 0; i < cuts.size(); ++i) {
    SCOPED_TRACE("cut " + std::to_string(i));
    const QueryWorkloadEntry& entry = workload[i];
    // The first emission parks the worker until the cut is in place; the
    // next heap pop then stops the traversal.
    auto emitted = std::make_shared<std::latch>(1);
    auto go = std::make_shared<std::latch>(1);
    auto first = std::make_shared<std::atomic<bool>>(true);
    QuerySpec spec = SpecFor(entry, Operator::kSSd);
    spec.on_emission = [emitted, go, first](const NncEmission&) {
      if (first->exchange(false)) {
        emitted->count_down();
        go->wait();
      }
    };
    constexpr double kDeadlineS = 0.5;
    if (cuts[i] == Cut::kDeadline) spec.deadline_seconds = kDeadlineS;
    if (cuts[i] == Cut::kDegraded) spec.options.degraded_superset = true;
    const auto submitted = std::chrono::steady_clock::now();
    auto ticket = cached.Submit(std::move(spec));
    emitted->wait();
    if (cuts[i] == Cut::kDeadline) {
      std::this_thread::sleep_until(
          submitted + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(kDeadlineS * 1.2)));
    } else {
      ticket->Cancel();
    }
    go->count_down();
    const QueryStatus status = ticket->Wait();
    switch (cuts[i]) {
      case Cut::kDeadline:
        EXPECT_EQ(status, QueryStatus::kDeadlineExceeded);
        break;
      case Cut::kCancel: EXPECT_EQ(status, QueryStatus::kCancelled); break;
      case Cut::kDegraded:
        EXPECT_EQ(status, QueryStatus::kOkDegraded);
        EXPECT_TRUE(ticket->result().degraded);
        break;
    }
    const EngineStats cut = cached.Snapshot();
    const Answer off = Ask(plain, SpecFor(entry, Operator::kSSd));
    ExpectSameAnswer(off, Ask(cached, SpecFor(entry, Operator::kSSd)));
    const EngineStats searched = cached.Snapshot();
    EXPECT_EQ(searched.profile_cache_misses, cut.profile_cache_misses + 1);
    EXPECT_EQ(searched.profile_cache_hits, cut.profile_cache_hits);
    ExpectSameAnswer(off, Ask(cached, SpecFor(entry, Operator::kSSd)));
    EXPECT_EQ(cached.Snapshot().profile_cache_hits, cut.profile_cache_hits + 1);
  }
}

// The final cleanup can drop an emitted candidate: a later object that
// ties on exact min distance dominates it. A hit replays the emissions,
// not the candidates, so its stream still shows the dropped object.
TEST(ResultCacheEngineTest, HitReplaysEmissionsTheCleanupDropped) {
  // Both near objects lie at distance 1 from the query; the second
  // dominates the first, which pops first.
  std::vector<UncertainObject> objects = {
      UncertainObject::Uniform(0, 2, {1, 0, 5, 0}),
      UncertainObject::Uniform(1, 2, {1, 0, 1.1, 0})};
  for (int i = 0; i < 4; ++i) {
    objects.push_back(
        UncertainObject::Uniform(10 + i, 2, {50.0 + i, 50, 51.0 + i, 51}));
  }
  QueryEngine cached(Dataset(std::move(objects)),
                     {.num_threads = 1, .profile_cache_bytes = 64 << 20});
  QuerySpec spec;
  spec.query = UncertainObject::Uniform(-1, 2, {0, 0});
  spec.options.op = Operator::kSSd;
  const Answer first = Ask(cached, spec);
  ASSERT_EQ(first.streamed, (std::vector<int>{0, 1}));
  ASSERT_EQ(first.candidates, (std::vector<int>{1}));
  const Answer repeat = Ask(cached, spec);
  ExpectSameAnswer(first, repeat);
  EXPECT_EQ(cached.Snapshot().profile_cache_hits, 1);
}

// Traced queries skip the lookup, count neither a hit nor a miss and still
// run the search, so their spans time real work; the untraced repeat hits.
TEST(ResultCacheEngineTest, TracedQueriesAlwaysSearch) {
  QueryEngine cached(SmallDataset(),
                     {.num_threads = 1, .profile_cache_bytes = 64 << 20});
  const QueryWorkloadEntry entry = SmallWorkload(cached.dataset(), 1)[0];
  const Answer first = Ask(cached, SpecFor(entry, Operator::kPSd));
  for (int i = 0; i < 2; ++i) {
    QuerySpec spec = SpecFor(entry, Operator::kPSd);
    spec.collect_trace = true;
    const Answer traced = Ask(cached, std::move(spec));
    ExpectSameAnswer(first, traced);
    ExpectSameStats(first.stats, traced.stats);
  }
  EngineStats stats = cached.Snapshot();
  EXPECT_EQ(stats.profile_cache_misses, 1);
  EXPECT_EQ(stats.profile_cache_hits, 0);
  ExpectSameAnswer(first, Ask(cached, SpecFor(entry, Operator::kPSd)));
  stats = cached.Snapshot();
  EXPECT_EQ(stats.profile_cache_hits, 1);
  EXPECT_EQ(stats.profile_cache_cap_bytes, 64 << 20);
}

// Four workers racing on one query at one epoch: every run equals the
// cache-off run, and every run counts one hit or one miss.
TEST(ResultCacheEngineTest, ConcurrentRunsOfOneQueryMatchCacheOff) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = SmallWorkload(dataset, 1)[0];
  constexpr int kRuns = 16;
  for (Operator op :
       {Operator::kSSd, Operator::kSsSd, Operator::kPSd, Operator::kFSd}) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions plain;
    plain.op = op;
    plain.exclude_id = entry.seeded_from;
    const NncResult expected = NncSearch(dataset, plain).Run(entry.query);

    QueryEngine engine(SmallDataset(),
                       {.num_threads = 4, .profile_cache_bytes = 64 << 20});
    std::vector<std::shared_ptr<QueryTicket>> tickets;
    for (int i = 0; i < kRuns; ++i) {
      tickets.push_back(engine.Submit(SpecFor(entry, op)));
    }
    for (const auto& ticket : tickets) {
      ASSERT_EQ(ticket->Wait(), QueryStatus::kOk) << ticket->error();
      EXPECT_EQ(ticket->result().candidates, expected.candidates);
      EXPECT_EQ(ticket->result().termination, expected.termination);
    }
    const EngineStats stats = engine.Snapshot();
    EXPECT_GE(stats.profile_cache_misses, 1);
    EXPECT_EQ(stats.profile_cache_hits + stats.profile_cache_misses, kRuns);
  }
}

// Memory governance: resident entries are charged to the engine budget and
// Drain() releases every byte.
TEST(ResultCacheEngineTest, DrainReleasesEveryCachedByte) {
  QueryEngine engine(SmallDataset(),
                     {.num_threads = 1, .profile_cache_bytes = 64 << 20});
  for (const QueryWorkloadEntry& entry : SmallWorkload(engine.dataset(), 4)) {
    engine.Submit(SpecFor(entry, Operator::kPSd))->Wait();
  }
  EXPECT_GT(engine.Snapshot().profile_cache_bytes, 0);
  EXPECT_EQ(engine.memory_budget().current_bytes(),
            engine.Snapshot().profile_cache_bytes);
  engine.Drain();
  EXPECT_EQ(engine.Snapshot().profile_cache_bytes, 0);
  EXPECT_EQ(engine.memory_budget().current_bytes(), 0);
}

// Mixed-operator submissions running concurrently on two workers each
// complete as they would alone.
TEST(SharedCacheEngineTest, MixedOperatorQueriesMatchSoloRuns) {
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(SmallDataset(), options);
  const auto workload = SmallWorkload(engine.dataset(), 8);
  static constexpr Operator kOps[] = {Operator::kSSd, Operator::kPSd,
                                      Operator::kFSd, Operator::kFPlusSd};
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  std::vector<Operator> ops;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec;
    spec.query = workload[i].query;
    spec.options.op = kOps[i % 4];
    spec.options.exclude_id = workload[i].seeded_from;
    ops.push_back(spec.options.op);
    tickets.push_back(engine.Submit(std::move(spec)));
  }
  engine.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_EQ(tickets[i]->Wait(), QueryStatus::kOk) << tickets[i]->error();
    // Cross-check against a solo engine run of the same query.
    EngineOptions solo_options;
    solo_options.num_threads = 1;
    QueryEngine solo(SmallDataset(), solo_options);
    QuerySpec spec;
    spec.query = workload[i].query;
    spec.options.op = ops[i];
    spec.options.exclude_id = workload[i].seeded_from;
    auto ticket = solo.Submit(std::move(spec));
    ASSERT_EQ(ticket->Wait(), QueryStatus::kOk);
    EXPECT_EQ(tickets[i]->result().candidates, ticket->result().candidates);
    ExpectSameStats(tickets[i]->result().stats, ticket->result().stats);
  }
}

// --- queueing behind a busy worker ---------------------------------------

/// A P-SD query over a 10-unit box near (5000 + 40 i, 5000 + 25 i).
QuerySpec SpecNear(int i) {
  const double x = 5000.0 + 40.0 * i;
  const double y = 5000.0 + 25.0 * i;
  QuerySpec spec;
  spec.query = UncertainObject::Uniform(0, 2, {x, y, x + 10.0, y + 10.0});
  spec.options.op = Operator::kPSd;
  return spec;
}

/// Holds a one-worker engine's only worker: the blocker query's first
/// emission waits until Release(), so later submissions queue behind it.
/// The constructor returns once the worker runs the blocker.
class BlockedWorker {
 public:
  explicit BlockedWorker(QueryEngine& engine) {
    QuerySpec spec = SpecNear(-1);
    spec.on_emission = [this](const NncEmission&) {
      if (!emitted_.exchange(true)) {
        running_.count_down();
        released_.wait();
      }
    };
    ticket_ = engine.Submit(std::move(spec));
    running_.wait();
  }
  ~BlockedWorker() {
    Release();
    ticket_->Wait();  // no emission may outlive this object
  }
  void Release() {
    if (!release_sent_.exchange(true)) released_.count_down();
  }

 private:
  std::atomic<bool> emitted_{false};
  std::atomic<bool> release_sent_{false};
  std::latch running_{1};
  std::latch released_{1};
  std::shared_ptr<QueryTicket> ticket_;
};

TEST(BusyWorkerTest, DrainWaitsForQueriesQueuedBehindABusyWorker) {
  QueryEngine engine(SmallDataset(), {.num_threads = 1});
  BlockedWorker blocker(engine);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 2; ++i) tickets.push_back(engine.Submit(SpecNear(i)));
  // Both queries are still queued when Drain starts; the worker frees up
  // later.
  std::thread releaser([&blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    blocker.Release();
  });
  engine.Drain();
  releaser.join();
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    EXPECT_EQ(ticket->status(), QueryStatus::kOk) << ticket->error();
  }
}

TEST(BusyWorkerTest, FullQueueShedsLaterQueriesAndLeavesNoneUnfinished) {
  QueryEngine engine(SmallDataset(), {.num_threads = 1,
                                      .queue_capacity = 1,
                                      .shed_on_overload = true});
  BlockedWorker blocker(engine);
  // The first query takes the one queue slot; every later one finds the
  // queue full and is rejected at once, without blocking the submitter.
  auto queued = engine.Submit(SpecNear(0));
  std::vector<std::shared_ptr<QueryTicket>> refused;
  for (int i = 1; i <= 3; ++i) refused.push_back(engine.Submit(SpecNear(i)));
  for (const auto& ticket : refused) {
    EXPECT_TRUE(ticket->done());
    EXPECT_EQ(ticket->status(), QueryStatus::kRejected);
    EXPECT_NE(ticket->error().find("overload shedding"), std::string::npos);
  }
  blocker.Release();
  engine.Drain();
  EXPECT_EQ(queued->status(), QueryStatus::kOk) << queued->error();
  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.rejected, 3);
  EXPECT_EQ(stats.completed, stats.submitted);
}

// --- throughput accounting regression --------------------------------------

// Rejected (shed) tickets never ran; the engine's qps must be based on
// executed = completed - rejected, not on completed. Before the fix a shed
// storm inflated qps with queries that did zero work.
TEST(EngineStatsTest, ShedTicketsDoNotInflateThroughput) {
  EngineOptions options;
  options.num_threads = 1;
  options.shed_on_overload = true;
  options.engine_mem_bytes = 1 << 20;
  options.mem_high_water_fraction = 0.5;
  QueryEngine engine(SmallDataset(100), options);
  const auto workload = SmallWorkload(engine.dataset(), 1);

  // One query that actually runs...
  {
    QuerySpec spec;
    spec.query = workload[0].query;
    spec.options.op = Operator::kPSd;
    spec.options.exclude_id = workload[0].seeded_from;
    ASSERT_EQ(engine.Submit(std::move(spec))->Wait(), QueryStatus::kOk);
  }
  engine.Drain();

  // ...then a deterministic shed storm: pre-charge the budget above the
  // high-water mark so every further Submit is rejected at admission.
  ASSERT_TRUE(engine.memory_budget().TryCharge(768 << 10));
  for (int i = 0; i < 50; ++i) {
    QuerySpec spec;
    spec.query = workload[0].query;
    spec.options.op = Operator::kPSd;
    spec.options.exclude_id = workload[0].seeded_from;
    EXPECT_EQ(engine.Submit(std::move(spec))->Wait(), QueryStatus::kRejected);
  }
  engine.memory_budget().Release(768 << 10);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.completed, 51);
  EXPECT_EQ(stats.rejected, 50);
  EXPECT_EQ(stats.executed, 1);
  ASSERT_GT(stats.wall_seconds, 0.0);
  // qps == executed / wall: the 50 rejected tickets contribute nothing.
  EXPECT_NEAR(stats.qps, stats.executed / stats.wall_seconds, 1e-9);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"executed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"profile_cache\""), std::string::npos);
}

}  // namespace
}  // namespace osd
