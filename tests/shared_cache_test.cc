// Cross-query work sharing: the engine-wide profile cache
// (core/profile_cache.h, engine wiring in engine/query_engine.cc), plus
// the engine's queueing behind a busy worker and its overload shedding.
//
// The load-bearing property is BIT-IDENTITY: with the cache on, every
// query's candidate set, every FilterStats counter, and the termination
// reason must equal the unshared run exactly — sharing may only change
// wall-clock, never the answer or the instrumentation. The
// A/B tests here assert that end-to-end for every operator; the directed
// tests pin the epoch-invalidation and memory-governance contracts the
// chaos soak then hammers concurrently.

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
#include "core/profile_cache.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
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

/// A minimal artifact set for cache-unit tests (an extremes view plus an
/// explicit byte count).
std::shared_ptr<ProfileArtifacts> MakeArtifacts(uint64_t epoch,
                                                long bytes = 1024) {
  auto artifacts = std::make_shared<ProfileArtifacts>();
  artifacts->epoch = epoch;
  auto extremes = std::make_shared<ProfileExtremesView>();
  extremes->min_q = {1.0};
  extremes->max_q = {3.0};
  artifacts->extremes = std::move(extremes);
  artifacts->bytes = bytes;
  return artifacts;
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

// --- ProfileCache unit semantics -------------------------------------------

TEST(ProfileCacheTest, MissPublishHitRoundTrip) {
  ProfileCache cache(1 << 20, nullptr);
  EXPECT_EQ(cache.Lookup(7, 42, 3), nullptr);
  cache.Publish(7, 42, MakeArtifacts(3));
  const auto hit = cache.Lookup(7, 42, 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->epoch, 3u);
  ASSERT_NE(hit->extremes, nullptr);
  EXPECT_EQ(hit->extremes->max_q, std::vector<double>{3.0});

  const ProfileCache::Counters c = cache.GetCounters();
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.inserts, 1);
  EXPECT_EQ(c.bytes, 1024);
  // Different signature and different object id are distinct keys.
  EXPECT_EQ(cache.Lookup(7, 43, 3), nullptr);
  EXPECT_EQ(cache.Lookup(8, 42, 3), nullptr);
}

// The directed epoch-invalidation contract: a lookup pinned at E+1 must
// never see an entry built at E — the stale entry is evicted on the spot.
TEST(ProfileCacheTest, NewerEpochLookupEvictsStaleEntry) {
  ProfileCache cache(1 << 20, nullptr);
  cache.Publish(7, 42, MakeArtifacts(/*epoch=*/5));
  ASSERT_NE(cache.Lookup(7, 42, 5), nullptr);

  EXPECT_EQ(cache.Lookup(7, 42, 6), nullptr);  // pinned at E+1: miss
  ProfileCache::Counters c = cache.GetCounters();
  EXPECT_EQ(c.stale_evictions, 1);
  EXPECT_EQ(c.bytes, 0);  // the stale entry is gone, not just hidden
  // ... and it stays gone: even the old epoch misses now.
  EXPECT_EQ(cache.Lookup(7, 42, 5), nullptr);
  EXPECT_EQ(cache.GetCounters().stale_serves_averted, 0);
}

// A query still pinned at an OLD epoch must not evict (or be served) an
// entry some newer-epoch query already published.
TEST(ProfileCacheTest, OlderEpochLookupLeavesNewerEntryInPlace) {
  ProfileCache cache(1 << 20, nullptr);
  cache.Publish(7, 42, MakeArtifacts(/*epoch=*/5));
  EXPECT_EQ(cache.Lookup(7, 42, 4), nullptr);  // old pin: miss, no eviction
  EXPECT_EQ(cache.GetCounters().stale_evictions, 0);
  ASSERT_NE(cache.Lookup(7, 42, 5), nullptr);  // entry survived
}

TEST(ProfileCacheTest, EvictsLruUnderByteCap) {
  // Per-shard slices are cap/16, so a 64 KiB cap admits at most two 2 KiB
  // entries per shard; publishing many distinct keys must evict.
  ProfileCache cache(64 << 10, nullptr);
  for (int id = 0; id < 256; ++id) {
    cache.Publish(id, 42, MakeArtifacts(1, /*bytes=*/2048));
  }
  const ProfileCache::Counters c = cache.GetCounters();
  EXPECT_GT(c.evictions, 0);
  EXPECT_LE(c.bytes, 64 << 10);
  EXPECT_EQ(c.bytes, cache.bytes());
}

TEST(ProfileCacheTest, ChargesAndDrainsEngineBudget) {
  memory::MemoryBudget budget(0);  // track-only
  {
    ProfileCache cache(1 << 20, &budget);
    cache.Publish(1, 42, MakeArtifacts(1, 4096));
    cache.Publish(2, 42, MakeArtifacts(1, 4096));
    EXPECT_EQ(budget.current_bytes(), 8192);
    cache.Clear();
    EXPECT_EQ(budget.current_bytes(), 0);
    EXPECT_EQ(cache.bytes(), 0);
    // Clearing keeps the event history (counters are cumulative).
    EXPECT_EQ(cache.GetCounters().inserts, 2);
  }
  EXPECT_EQ(budget.current_bytes(), 0);
}

// The admission record is a FIFO of kAdmissionRecord fingerprints: a
// fingerprint is admitted while recorded, and a new one past capacity
// makes the record forget its oldest.
TEST(ProfileCacheTest, AdmissionRecordForgetsItsOldestFingerprint) {
  ProfileCache cache(1 << 20, nullptr);
  constexpr int kCap = ProfileCache::kAdmissionRecord;
  EXPECT_FALSE(cache.Admit(0, 7));  // first sighting: recorded, declined
  EXPECT_TRUE(cache.Admit(0, 7));   // repeat at the same epoch: admitted
  EXPECT_FALSE(cache.Admit(0, 8));  // another epoch is another fingerprint
  for (uint64_t sig = 1; sig < kCap - 1; ++sig) {
    EXPECT_FALSE(cache.Admit(sig, 7));
  }
  // The record now holds exactly kCap fingerprints; none is forgotten yet.
  EXPECT_TRUE(cache.Admit(0, 7));
  EXPECT_TRUE(cache.Admit(0, 8));
  EXPECT_FALSE(cache.Admit(kCap, 7));  // forgets (0, 7), the oldest
  EXPECT_TRUE(cache.Admit(0, 8));
  EXPECT_FALSE(cache.Admit(0, 7));  // a first sighting again; forgets (0, 8)
  EXPECT_FALSE(cache.Admit(0, 8));  // forgets (1, 7)
  EXPECT_TRUE(cache.Admit(2, 7));
  const ProfileCache::Counters c = cache.GetCounters();
  EXPECT_EQ(c.admitted, 5);
  EXPECT_EQ(c.declined, kCap + 3);
}

// Publishing at epoch E+1 retires the shard's tail entries built at E or
// earlier, and never an entry built at E+1.
TEST(ProfileCacheTest, PublishRetiresOlderEpochTailEntries) {
  constexpr int kIds = 256;
  ProfileCache cache(16 << 20, nullptr);
  for (int id = 0; id < kIds; ++id) cache.Publish(id, 42, MakeArtifacts(4));
  for (int id = 0; id < kIds; ++id) cache.Publish(id, 42, MakeArtifacts(5));
  ProfileCache::Counters c = cache.GetCounters();
  // Each shard's first E+1 publication found only its E entries and
  // retired every one.
  EXPECT_EQ(c.stale_evictions, kIds);
  EXPECT_EQ(c.evictions, 0);
  EXPECT_EQ(c.bytes, kIds * 1024L);
  // More publications at E+1 retire nothing built at E+1.
  for (int id = kIds; id < 2 * kIds; ++id) {
    cache.Publish(id, 42, MakeArtifacts(5));
  }
  c = cache.GetCounters();
  EXPECT_EQ(c.stale_evictions, kIds);
  EXPECT_EQ(c.bytes, 2 * kIds * 1024L);
  for (int id = 0; id < 2 * kIds; ++id) {
    ASSERT_NE(cache.Lookup(id, 42, 5), nullptr) << id;
  }
  // A publication from a query pinned at an older epoch retires nothing.
  cache.Publish(9999, 43, MakeArtifacts(3));
  c = cache.GetCounters();
  EXPECT_EQ(c.stale_evictions, kIds);
  EXPECT_EQ(c.inserts, 3 * kIds + 1);
}

TEST(ProfileCacheTest, QuerySignatureIsValueBased) {
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

// --- engine-level A/B bit-identity -----------------------------------------

struct RunOutcome {
  QueryStatus status;
  std::vector<int> candidates;
  FilterStats stats;
  NncTermination termination;
  bool degraded;
};

/// Runs the workload through one engine configuration and captures every
/// per-query outcome in submission order, and the engine's counters in
/// `stats` when given. Each query is submitted three times so a caching
/// engine gets intra-run hits: the cache declines a query's first run at an
/// epoch, the second publishes and the third hits.
std::vector<RunOutcome> RunWorkload(const EngineOptions& engine_options,
                                    Operator op, int repeats = 3,
                                    EngineStats* stats = nullptr) {
  QueryEngine engine(SmallDataset(), engine_options);
  const auto workload = SmallWorkload(engine.dataset(), 6);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int r = 0; r < repeats; ++r) {
    for (const QueryWorkloadEntry& entry : workload) {
      QuerySpec spec;
      spec.query = entry.query;
      spec.options.op = op;
      spec.options.exclude_id = entry.seeded_from;
      tickets.push_back(engine.Submit(std::move(spec)));
    }
  }
  engine.Drain();
  if (stats != nullptr) *stats = engine.Snapshot();
  std::vector<RunOutcome> outcomes;
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait(), QueryStatus::kOk) << ticket->error();
    const NncResult& r = ticket->result();
    outcomes.push_back(RunOutcome{ticket->status(), r.candidates, r.stats,
                                  r.termination, r.degraded});
  }
  return outcomes;
}

class SharedVsUnsharedTest : public ::testing::TestWithParam<Operator> {};

// The acceptance criterion of the profile cache: every operator, every
// query — candidate sets, all eleven filter counters, and the termination
// reason are bit-identical with the cache on vs off.
TEST_P(SharedVsUnsharedTest, BitIdenticalResultsAndCounters) {
  EngineOptions unshared;
  unshared.num_threads = 2;

  EngineOptions shared;
  shared.num_threads = 2;
  shared.profile_cache_bytes = 64 << 20;

  const auto baseline = RunWorkload(unshared, GetParam());
  EngineStats shared_stats;
  const auto cached = RunWorkload(shared, GetParam(), 3, &shared_stats);
  // The A/B must exercise cache hits (F+SD decides on MBRs alone and
  // never builds a profile view).
  if (GetParam() != Operator::kFPlusSd) {
    EXPECT_GT(shared_stats.profile_cache_hits, 0);
  }
  ASSERT_EQ(baseline.size(), cached.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(baseline[i].status, cached[i].status);
    EXPECT_EQ(baseline[i].candidates, cached[i].candidates);
    EXPECT_EQ(baseline[i].termination, cached[i].termination);
    EXPECT_EQ(baseline[i].degraded, cached[i].degraded);
    ExpectSameStats(baseline[i].stats, cached[i].stats);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOperators, SharedVsUnsharedTest,
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

// Repeated identical queries must actually hit the cache (otherwise the
// A/B test above proves nothing about the hit path).
TEST(SharedCacheEngineTest, RepeatedQueriesHitTheCache) {
  EngineOptions options;
  options.num_threads = 1;
  options.profile_cache_bytes = 64 << 20;
  QueryEngine engine(SmallDataset(), options);
  const auto workload = SmallWorkload(engine.dataset(), 2);
  for (int r = 0; r < 3; ++r) {
    for (const QueryWorkloadEntry& entry : workload) {
      QuerySpec spec;
      spec.query = entry.query;
      spec.options.op = Operator::kPSd;
      spec.options.exclude_id = entry.seeded_from;
      engine.Submit(std::move(spec))->Wait();
    }
  }
  engine.Drain();
  const EngineStats stats = engine.Snapshot();
  EXPECT_GT(stats.profile_cache_hits, 0);
  EXPECT_GT(stats.profile_cache_misses, 0);
  EXPECT_EQ(stats.profile_cache_stale_serves_averted, 0);
  EXPECT_EQ(stats.profile_cache_cap_bytes, 64 << 20);
}

// Epoch invalidation end-to-end: warm the cache at epoch E, mutate the
// store (epoch E+1), re-run — the post-write answers must equal a
// cache-less engine's answers over the same post-write store. The first
// post-write run is a first sighting at E+1, so the cache declines it; the
// next two publish and hit, and still answer the same.
TEST(SharedCacheEngineTest, WriteInvalidatesAcrossEpochs) {
  auto far_object = [](int id) {
    return std::make_shared<const UncertainObject>(
        UncertainObject::Uniform(id, 2, {9000.0, 9000.0, 9001.0, 9001.0}));
  };
  auto run_queries = [](QueryEngine& engine,
                        const std::vector<QueryWorkloadEntry>& workload) {
    std::vector<std::vector<int>> all;
    for (const QueryWorkloadEntry& entry : workload) {
      QuerySpec spec;
      spec.query = entry.query;
      spec.options.op = Operator::kPSd;
      spec.options.exclude_id = entry.seeded_from;
      auto ticket = engine.Submit(std::move(spec));
      EXPECT_EQ(ticket->Wait(), QueryStatus::kOk) << ticket->error();
      all.push_back(ticket->result().candidates);
    }
    return all;
  };
  auto mutate = [&](QueryEngine& engine) {
    Mutation m;
    m.kind = Mutation::Kind::kInsert;
    m.id = 100000;
    m.object = far_object(100000);
    std::string error;
    ASSERT_TRUE(engine.versioned().Apply({std::move(m)}, &error)) << error;
  };

  EngineOptions cached_options;
  cached_options.num_threads = 1;
  cached_options.profile_cache_bytes = 64 << 20;
  QueryEngine cached(SmallDataset(), cached_options);
  const auto workload = SmallWorkload(cached.dataset(), 4);

  for (int r = 0; r < 3; ++r) run_queries(cached, workload);  // warm at 0
  const EngineStats warm = cached.Snapshot();
  ASSERT_GT(warm.profile_cache_hits, 0);
  mutate(cached);  // epoch bump
  const auto after_write = run_queries(cached, workload);
  const EngineStats first = cached.Snapshot();
  EXPECT_EQ(first.profile_cache_declined - warm.profile_cache_declined, 4);
  EXPECT_EQ(first.profile_cache_admitted, warm.profile_cache_admitted);
  EXPECT_EQ(first.profile_cache_hits, warm.profile_cache_hits);
  EXPECT_EQ(first.profile_cache_misses, warm.profile_cache_misses);

  EngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(SmallDataset(), plain_options);
  mutate(plain);
  const auto expected = run_queries(plain, workload);

  EXPECT_EQ(after_write, expected);
  EXPECT_EQ(run_queries(cached, workload), expected);  // publishes at E+1
  EXPECT_EQ(run_queries(cached, workload), expected);  // hits at E+1
  const EngineStats last = cached.Snapshot();
  EXPECT_GT(last.profile_cache_hits, first.profile_cache_hits);
  EXPECT_EQ(last.profile_cache_admitted - first.profile_cache_admitted, 8);
  // The serve-time guard must never have been the thing that saved us.
  EXPECT_EQ(last.profile_cache_stale_serves_averted, 0);
}

// A query's first run at an epoch runs unbound (no lookup, no insert), its
// second misses and publishes every profile it built, and its third hits
// every one: misses/inserts/hits read 0/0/0, then n/n/0, then 0/0/n.
TEST(SharedCacheAdmissionTest, FirstRunDeclinesSecondPublishesThirdHits) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = SmallWorkload(dataset, 1)[0];
  for (Operator op :
       {Operator::kSSd, Operator::kSsSd, Operator::kPSd, Operator::kFSd}) {
    SCOPED_TRACE(OperatorName(op));
    ProfileCache cache(64 << 20, nullptr);
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    NncOptions uncached = options;
    options.profile_cache = &cache;
    const NncResult expected = NncSearch(dataset, uncached).Run(entry.query);
    ProfileCache::Counters before = cache.GetCounters();
    std::vector<std::array<long, 5>> deltas;  // misses, inserts, hits, ...
    for (int run = 0; run < 3; ++run) {
      const NncResult result = NncSearch(dataset, options).Run(entry.query);
      EXPECT_EQ(result.candidates, expected.candidates);
      ExpectSameStats(result.stats, expected.stats);
      const ProfileCache::Counters after = cache.GetCounters();
      deltas.push_back({after.misses - before.misses,
                        after.inserts - before.inserts,
                        after.hits - before.hits,
                        after.admitted - before.admitted,
                        after.declined - before.declined});
      before = after;
    }
    const long n = deltas[1][0];
    EXPECT_GT(n, 0);
    EXPECT_EQ(deltas[0], (std::array<long, 5>{0, 0, 0, 0, 1}));
    EXPECT_EQ(deltas[1], (std::array<long, 5>{n, n, 0, 1, 0}));
    EXPECT_EQ(deltas[2], (std::array<long, 5>{0, 0, n, 1, 0}));
  }
}

// Retirement never takes views from a running query: a query pinned at E
// that adopted E entries keeps reading them while a query at E+1 publishes
// and retires those entries, and it still answers as a cache-less run.
TEST(SharedCacheAdmissionTest, PinnedQueryKeepsItsViewsAcrossRetirement) {
  const Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 2);
  VersionedDataset store(SmallDataset());
  const VersionedDataset::Snapshot old_epoch = store.Acquire();
  ProfileCache cache(64 << 20, nullptr);
  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = workload[0].seeded_from;
  const NncResult expected =
      NncSearch(old_epoch, options).Run(workload[0].query);
  options.profile_cache = &cache;
  const NncSearch pinned(old_epoch, options);
  for (int r = 0; r < 3; ++r) pinned.Run(workload[0].query);
  ASSERT_GT(cache.GetCounters().hits, 0);
  ASSERT_EQ(cache.GetCounters().stale_evictions, 0);

  // At the pinned query's first candidate, a writer opens E+1 and runs
  // another query there twice, so its second run publishes at E+1.
  bool wrote = false;
  const NncResult result =
      pinned.Run(workload[0].query, [&](int, double) {
        if (wrote) return;
        wrote = true;
        std::thread writer([&] {
          Mutation m;
          m.kind = Mutation::Kind::kInsert;
          m.id = 100000;
          m.object = std::make_shared<const UncertainObject>(
              UncertainObject::Uniform(100000, 2,
                                       {9000.0, 9000.0, 9001.0, 9001.0}));
          std::string error;
          ASSERT_TRUE(store.Apply({std::move(m)}, &error)) << error;
          NncOptions next = options;
          next.exclude_id = workload[1].seeded_from;
          const VersionedDataset::Snapshot new_epoch = store.Acquire();
          const NncSearch search(new_epoch, next);
          for (int r = 0; r < 2; ++r) search.Run(workload[1].query);
        });
        writer.join();
      });
  ASSERT_TRUE(wrote);
  // The other query's signature differs, so only retirement dropped E
  // entries.
  const ProfileCache::Counters c = cache.GetCounters();
  EXPECT_GT(c.stale_evictions, 0);
  EXPECT_EQ(c.stale_serves_averted, 0);
  EXPECT_EQ(result.epoch, old_epoch.epoch());
  EXPECT_EQ(result.candidates, expected.candidates);
  EXPECT_EQ(result.termination, expected.termination);
  ExpectSameStats(result.stats, expected.stats);
}

// Four workers racing on one query at one epoch: the record declines one
// run, admits the rest, and every run equals the cache-off run.
TEST(SharedCacheAdmissionTest, ConcurrentRunsOfOneQueryMatchCacheOff) {
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

    EngineOptions options;
    options.num_threads = 4;
    options.profile_cache_bytes = 64 << 20;
    QueryEngine engine(SmallDataset(), options);
    std::vector<std::shared_ptr<QueryTicket>> tickets;
    for (int i = 0; i < kRuns; ++i) {
      QuerySpec spec;
      spec.query = entry.query;
      spec.options = plain;
      tickets.push_back(engine.Submit(std::move(spec)));
    }
    for (const auto& ticket : tickets) {
      ASSERT_EQ(ticket->Wait(), QueryStatus::kOk) << ticket->error();
      EXPECT_EQ(ticket->result().candidates, expected.candidates);
      EXPECT_EQ(ticket->result().termination, expected.termination);
      ExpectSameStats(ticket->result().stats, expected.stats);
    }
    const EngineStats stats = engine.Snapshot();
    EXPECT_EQ(stats.profile_cache_declined, 1);
    EXPECT_EQ(stats.profile_cache_admitted, kRuns - 1);
    EXPECT_EQ(stats.profile_cache_stale_serves_averted, 0);
    const std::string json = stats.ToJson();
    EXPECT_NE(json.find("\"admitted\":15,\"declined\":1}"), std::string::npos)
        << json;
  }
}

// Memory governance: resident entries are charged to the engine budget and
// Drain() releases every byte. Each query runs twice: the cache declines
// its first run and takes the second's views.
TEST(SharedCacheEngineTest, DrainReleasesEveryCachedByte) {
  EngineOptions options;
  options.num_threads = 1;
  options.profile_cache_bytes = 64 << 20;
  QueryEngine engine(SmallDataset(), options);
  const auto workload = SmallWorkload(engine.dataset(), 4);
  for (int r = 0; r < 2; ++r) {
    for (const QueryWorkloadEntry& entry : workload) {
      QuerySpec spec;
      spec.query = entry.query;
      spec.options.op = Operator::kPSd;
      spec.options.exclude_id = entry.seeded_from;
      engine.Submit(std::move(spec))->Wait();
    }
  }
  EXPECT_GT(engine.Snapshot().profile_cache_bytes, 0);
  EXPECT_GT(engine.memory_budget().current_bytes(), 0);
  engine.Drain();
  EXPECT_EQ(engine.Snapshot().profile_cache_bytes, 0);
  EXPECT_EQ(engine.memory_budget().current_bytes(), 0);
}

// The budget half of the sharing contract: a query charges the same peak
// bytes against its QueryBudgetScope with no cache, a declined run, a cold
// cache and a warm one, so a per-query cap breaches at the same point
// either way. The cache declines a query's first run; "cold" is the run
// that publishes and "warm" the run that hits.
TEST(SharedCacheBudgetTest, PeakChargeIsIdenticalWithCacheOffColdAndWarm) {
  const Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 6);
  for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                      Operator::kFSd, Operator::kFPlusSd}) {
    SCOPED_TRACE(OperatorName(op));
    auto peak = [&](const QueryWorkloadEntry& entry, ProfileCache* cache) {
      NncOptions options;
      options.op = op;
      options.exclude_id = entry.seeded_from;
      options.profile_cache = cache;
      memory::QueryBudgetScope scope(64L << 20, nullptr);
      return NncSearch(dataset, options).Run(entry.query).mem_peak_bytes;
    };
    // The cache key has no operator, so each operator starts cold.
    ProfileCache cache(64 << 20, nullptr);
    for (size_t i = 0; i < workload.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      const long off = peak(workload[i], nullptr);
      const long declined = peak(workload[i], &cache);
      const long cold = peak(workload[i], &cache);
      const long warm = peak(workload[i], &cache);
      EXPECT_GT(off, 0);
      EXPECT_EQ(declined, off);
      EXPECT_EQ(cold, off);
      EXPECT_EQ(warm, off);
    }
    // F+SD decides on MBRs alone and never builds a profile view.
    if (op != Operator::kFPlusSd) {
      EXPECT_GT(cache.GetCounters().hits, 0) << "the warm runs must hit";
    }
  }
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
    spec.on_emission = [this](const NncEmission&, int) {
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
