// Memory governance: per-query budgets, the engine-wide cap, breach
// containment, and observability of all of it.
//
// Layers covered, bottom up: MemoryBudget / QueryBudgetScope / ScopedCharge
// accounting semantics; the restore rule of the thread's QueryExec record,
// which holds the budget scope beside the query's control and trace;
// NncSearch breach behaviour (throw without the
// degraded flag, certified superset with it, for every operator);
// QueryEngine integration (per-query caps, bad_alloc containment at the
// worker boundary, high-water admission control, memory stats/metrics);
// and the batch-isolation contract — a breach or injected bad_alloc in one
// query of a concurrent batch leaves every other query's candidate set
// bit-identical to a fault-free run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/query_exec.h"
#include "common/rng.h"
#include "core/nnc_search.h"
#include "core/object_profile.h"
#include "core/query_context.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "obs/trace.h"
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

class MemBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }
};

// --- MemoryBudget / scope / ScopedCharge accounting ----------------------

TEST_F(MemBudgetTest, BudgetTracksChargesPeakAndBreaches) {
  memory::MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_TRUE(budget.TryCharge(400));
  EXPECT_EQ(budget.current_bytes(), 1000);
  EXPECT_EQ(budget.peak_bytes(), 1000);
  EXPECT_EQ(budget.breaches(), 0);

  // A refused charge leaves the ledger untouched.
  EXPECT_FALSE(budget.TryCharge(1));
  EXPECT_EQ(budget.current_bytes(), 1000);
  EXPECT_EQ(budget.breaches(), 1);

  budget.Release(1000);
  EXPECT_EQ(budget.current_bytes(), 0);
  EXPECT_EQ(budget.peak_bytes(), 1000) << "peak is a high-water mark";
}

TEST_F(MemBudgetTest, UncappedBudgetTracksButNeverRefuses) {
  memory::MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryCharge(1L << 40));
  EXPECT_EQ(budget.current_bytes(), 1L << 40);
  EXPECT_EQ(budget.breaches(), 0);
  budget.Release(1L << 40);
}

TEST_F(MemBudgetTest, WaitUntilBelowWakesOnRelease) {
  memory::MemoryBudget budget(1000);
  ASSERT_TRUE(budget.TryCharge(900));
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    budget.WaitUntilBelow(500);
    woke.store(true);
  });
  // Give the waiter time to block; it must not wake above the level.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  budget.Release(900);
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_F(MemBudgetTest, ChargeWithoutScopeIsANoOp) {
  ASSERT_EQ(memory::CurrentScope(), nullptr);
  EXPECT_NO_THROW(memory::Charge(1L << 40, "unscoped"));
  EXPECT_NO_THROW(memory::Release(1L << 40));
}

TEST_F(MemBudgetTest, ScopeEnforcesPerQueryCap) {
  memory::QueryBudgetScope scope(1000, nullptr);
  memory::Charge(800, "a");
  try {
    memory::Charge(300, "b");
    FAIL() << "expected MemoryExceeded";
  } catch (const MemoryExceeded& e) {
    EXPECT_EQ(e.requested_bytes(), 300);
    EXPECT_EQ(e.charged_bytes(), 800);
    EXPECT_EQ(e.limit_bytes(), 1000);
    EXPECT_FALSE(e.engine_wide());
    EXPECT_NE(std::string(e.what()).find("b"), std::string::npos);
  }
  // The refused charge changed nothing; the scope stays usable.
  EXPECT_EQ(scope.charged_bytes(), 800);
  EXPECT_EQ(scope.breaches(), 1);
  EXPECT_NO_THROW(memory::Charge(200, "fits"));
  EXPECT_EQ(scope.peak_bytes(), 1000);
  memory::Release(1000);
}

TEST_F(MemBudgetTest, MemoryExceededIsARuntimeErrorNamingItsCap) {
  // Callers that only know std::runtime_error still catch a breach, and
  // the exception says which cap refused it.
  {
    memory::QueryBudgetScope scope(10, nullptr);
    try {
      memory::Charge(100, "x");
      FAIL() << "expected a breach";
    } catch (const std::runtime_error& e) {
      const auto* breach = dynamic_cast<const MemoryExceeded*>(&e);
      ASSERT_NE(breach, nullptr);
      EXPECT_FALSE(breach->engine_wide());
      EXPECT_NE(std::string(e.what()).find("per-query"), std::string::npos)
          << e.what();
    }
  }
  memory::MemoryBudget engine(1000);
  memory::QueryBudgetScope scope(0, &engine);
  try {
    memory::Charge(2000, "y");
    FAIL() << "expected a breach";
  } catch (const std::runtime_error& e) {
    const auto* breach = dynamic_cast<const MemoryExceeded*>(&e);
    ASSERT_NE(breach, nullptr);
    EXPECT_TRUE(breach->engine_wide());
    EXPECT_NE(std::string(e.what()).find("engine-wide"), std::string::npos)
        << e.what();
  }
}

TEST_F(MemBudgetTest, ScopeDrawsOnEngineBudgetInChunksAndReturnsThem) {
  memory::MemoryBudget engine(1L << 30);
  {
    memory::QueryBudgetScope scope(0, &engine);
    memory::Charge(100, "small");
    // The scope reserved a whole chunk up front so later charges stay off
    // the shared counters.
    EXPECT_EQ(engine.current_bytes(), memory::kEngineReserveChunk);
    memory::Charge(memory::kEngineReserveChunk, "big");
    EXPECT_GE(engine.current_bytes(), 100 + memory::kEngineReserveChunk);
  }
  EXPECT_EQ(engine.current_bytes(), 0)
      << "scope destruction returns the whole reservation";
}

TEST_F(MemBudgetTest, EngineWideBreachSaysSo) {
  memory::MemoryBudget engine(1000);  // smaller than one reserve chunk
  memory::QueryBudgetScope scope(0, &engine);
  // Near the cap the scope falls back from chunked reservation to exact
  // need, so a small charge under the cap still succeeds...
  EXPECT_NO_THROW(memory::Charge(100, "fits"));
  EXPECT_EQ(engine.current_bytes(), 100);
  // ...and only a charge the cap genuinely cannot hold is refused.
  try {
    memory::Charge(2000, "c");
    FAIL() << "expected MemoryExceeded";
  } catch (const MemoryExceeded& e) {
    EXPECT_TRUE(e.engine_wide());
    EXPECT_NE(std::string(e.what()).find("engine-wide"), std::string::npos)
        << e.what();
  }
  // Both failed TryCharge calls (chunk, then exact need) count as breaches.
  EXPECT_GE(engine.breaches(), 1);
  EXPECT_EQ(engine.current_bytes(), 100);
}

TEST_F(MemBudgetTest, ScopedChargeReleasesOnDestruction) {
  memory::QueryBudgetScope scope(0, nullptr);
  {
    memory::ScopedCharge held("block");
    held.Add(500);
    held.Add(300);
    EXPECT_EQ(held.held(), 800);
    held.Sub(200);
    EXPECT_EQ(held.held(), 600);
    held.Sub(10000);  // clamped to the held amount
    EXPECT_EQ(held.held(), 0);
    held.Add(50);
    EXPECT_EQ(scope.charged_bytes(), 50);
  }
  EXPECT_EQ(scope.charged_bytes(), 0);
  EXPECT_EQ(scope.peak_bytes(), 800);
}

TEST_F(MemBudgetTest, OverReleaseClampsAtZero) {
  memory::QueryBudgetScope scope(1000, nullptr);
  memory::Charge(100, "a");
  memory::Release(5000);
  EXPECT_EQ(scope.charged_bytes(), 0);
  // The clamp must not mint headroom beyond the cap.
  EXPECT_THROW(memory::Charge(1500, "b"), MemoryExceeded);
}

TEST_F(MemBudgetTest, StatisticOnlyProfileNeverChargesMatrix) {
  const Dataset dataset = SmallDataset();
  const UncertainObject& obj = dataset.object(0);
  QueryContext ctx(dataset.object(1));
  const int nq = ctx.num_instances();
  const long stat_bytes = 2L * nq * static_cast<long>(sizeof(double));
  memory::QueryBudgetScope scope(64L << 20, nullptr);
  {
    ObjectProfile profile(obj, ctx, nullptr);
    (void)profile.MinAll();
    (void)profile.MaxQ(0);
    // The extremes pass charges only the two per-q extreme vectors —
    // never the |Q| x m matrix.
    EXPECT_EQ(scope.charged_bytes(), stat_bytes);
    (void)profile.Dist(0, 0);
    EXPECT_EQ(scope.charged_bytes(),
              stat_bytes + static_cast<long>(nq) * obj.num_instances() *
                               static_cast<long>(sizeof(double)))
        << "the matrix is charged only once it is actually materialized";
  }
  EXPECT_EQ(scope.charged_bytes(), 0);
}

// --- Search-layer breach behaviour ---------------------------------------

TEST_F(MemBudgetTest, BudgetBreachYieldsSupersetForEveryOperator) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);
    ASSERT_EQ(exact.termination, NncTermination::kComplete);

    // Calibrate a cap below the operator's measured working set (the
    // statistic pass means some operators now fit in a few hundred bytes,
    // so no fixed cap breaches all four): the traversal must breach
    // mid-flight and drain to a certified superset.
    long peak = 0;
    {
      memory::QueryBudgetScope scope(64L << 20, nullptr);
      peak = NncSearch(dataset, options).Run(entry.query).mem_peak_bytes;
    }
    ASSERT_GT(peak, 0);
    const long cap = peak / 2;
    options.degraded_superset = true;
    NncResult degraded;
    {
      memory::QueryBudgetScope scope(cap, nullptr);
      degraded = NncSearch(dataset, options).Run(entry.query);
    }
    EXPECT_EQ(degraded.termination, NncTermination::kMemoryExceeded);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    EXPECT_GT(degraded.mem_peak_bytes, 0);
    EXPECT_LE(degraded.mem_peak_bytes, cap)
        << "nothing may be charged past the cap";
    // The excluded query object must not ride in via the frontier drain.
    EXPECT_EQ(std::count(degraded.candidates.begin(),
                         degraded.candidates.end(), entry.seeded_from),
              0);
  }
}

TEST_F(MemBudgetTest, BreachWhileAnObjectIsParkedKeepsItAndReleasesAll) {
  // The wide object is parked at its first pop and waits for the last
  // one. A cap equal to the peak charged by the first emission replays the
  // run exactly that far and breaches later, with the wide object still
  // parked: the drain must certify it, and every charge — the parked
  // entry and its profile included — is released when Run returns.
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
    ASSERT_EQ(exact.termination, NncTermination::kComplete);

    long first_peak = 0;
    {
      memory::QueryBudgetScope scope(64L << 20, nullptr);
      NncSearch(dataset, options).Run(query, [&](int, double) {
        if (first_peak == 0) first_peak = scope.peak_bytes();
      });
      EXPECT_EQ(scope.charged_bytes(), 0);
    }
    ASSERT_GT(first_peak, 0);

    options.degraded_superset = true;
    NncResult degraded;
    {
      memory::QueryBudgetScope scope(first_peak, nullptr);
      degraded = NncSearch(dataset, options).Run(query);
      EXPECT_EQ(scope.charged_bytes(), 0);
    }
    EXPECT_EQ(degraded.termination, NncTermination::kMemoryExceeded);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    EXPECT_FALSE(degraded.timeline.empty());
    for (const NncEmission& e : degraded.timeline) {
      EXPECT_NE(e.object_id, wide) << "the wide object was never confirmed";
    }
    EXPECT_EQ(std::count(degraded.candidates.begin(),
                         degraded.candidates.end(), wide),
              1);
  }
}

TEST_F(MemBudgetTest, ParkedEntriesAreChargedToTheRun) {
  // A lone wide object: its first pop builds only its statistics (two
  // |Q|-long extreme vectors: 32 B, 48 while they carried the mean), then
  // parks it, and its exact pop emits it. A cap of exactly the statistics
  // breaches at the park; a cap with room for the park breaches at the
  // emission, with the parked entry still held. Both charges belong to the
  // traversal's "nnc.run" account.
  Rng rng(5);
  const Dataset dataset(test::ParkingObjects(0, rng));
  const UncertainObject query =
      UncertainObject::Uniform(-1, 2, {50.0, 50.0, 51.0, 51.0});
  const long stat_bytes = 2L * 2 * static_cast<long>(sizeof(double));
  NncOptions options;
  options.op = Operator::kSSd;

  long park_bytes = 0;
  {
    memory::QueryBudgetScope scope(stat_bytes, nullptr);
    try {
      NncSearch(dataset, options).Run(query);
      FAIL() << "expected a breach at the park";
    } catch (const MemoryExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("nnc.run"), std::string::npos)
          << e.what();
      EXPECT_EQ(e.charged_bytes(), stat_bytes);
      park_bytes = e.requested_bytes();
    }
    EXPECT_EQ(scope.charged_bytes(), 0);
  }
  ASSERT_GT(park_bytes, 0);

  const long cap = stat_bytes + park_bytes;
  {
    memory::QueryBudgetScope scope(cap, nullptr);
    try {
      NncSearch(dataset, options).Run(query);
      FAIL() << "expected a breach at the emission";
    } catch (const MemoryExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("nnc.run"), std::string::npos)
          << e.what();
      EXPECT_GT(e.charged_bytes(), stat_bytes) << "the parked entry is held";
    }
    EXPECT_EQ(scope.charged_bytes(), 0);
  }

  // Degraded at the same cap: the exact item goes back to the frontier,
  // and the drain reports the parked object.
  options.degraded_superset = true;
  {
    memory::QueryBudgetScope scope(cap, nullptr);
    const NncResult r = NncSearch(dataset, options).Run(query);
    EXPECT_EQ(r.termination, NncTermination::kMemoryExceeded);
    EXPECT_TRUE(r.timeline.empty());
    EXPECT_EQ(r.candidates, std::vector<int>{0});
    EXPECT_EQ(r.frontier_objects, 1);
    EXPECT_EQ(scope.charged_bytes(), 0);
  }
}

TEST_F(MemBudgetTest, WithoutDegradedFlagBreachPropagates) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  memory::QueryBudgetScope scope(2048, nullptr);
  EXPECT_THROW(NncSearch(dataset, options).Run(entry.query), MemoryExceeded);
}

TEST_F(MemBudgetTest, CompleteRunReportsPeakAndMatchesUnscopedAnswer) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  const NncResult unscoped = NncSearch(dataset, options).Run(entry.query);
  ASSERT_EQ(unscoped.mem_peak_bytes, 0) << "no scope, no accounting";

  NncResult scoped;
  {
    memory::QueryBudgetScope scope(64L << 20, nullptr);
    scoped = NncSearch(dataset, options).Run(entry.query);
  }
  EXPECT_EQ(scoped.termination, NncTermination::kComplete);
  EXPECT_EQ(scoped.candidates, unscoped.candidates)
      << "accounting must not perturb the answer";
  EXPECT_GT(scoped.mem_peak_bytes, 0);
}

TEST_F(MemBudgetTest, TraceCarriesByteAttribution) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  obs::Trace trace("mem_budget_test");
  options.trace = &trace;
  memory::QueryBudgetScope scope(64L << 20, nullptr);
  const NncResult result = NncSearch(dataset, options).Run(entry.query);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"mem_charged_bytes\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mem_peak_bytes\":"), std::string::npos) << json;
#if defined(OSD_TRACING_ENABLED)
  EXPECT_GT(trace.total_bytes(), 0);
#endif
  EXPECT_EQ(result.mem_peak_bytes, scope.peak_bytes());
}

// --- The QueryExec record (common/query_exec.h) ---------------------------
//
// One thread-local record carries the running query's control, trace and
// budget scope. Every installer restores what it replaced.

void ExpectExec(const QueryControl* control, const obs::Trace* trace,
                const memory::QueryBudgetScope* budget) {
  EXPECT_EQ(CurrentExec().control, control);
  EXPECT_EQ(obs::CurrentTrace(), trace);
  EXPECT_EQ(memory::CurrentScope(), budget);
}

long FlowRunSpans(const obs::Trace& trace) {
  return trace.aggregates()[static_cast<int>(obs::SpanKind::kFlowRun)].count;
}

TEST_F(MemBudgetTest, NestedInstallsStackAndRestore) {
  ExpectExec(nullptr, nullptr, nullptr);
  QueryControl outer_control;
  outer_control.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  obs::Trace outer_trace;
  obs::Trace inner_trace;
  {
    memory::QueryBudgetScope outer_scope(1000, nullptr);
    ScopedQueryExec outer(&outer_control, &outer_trace);
    ExpectExec(&outer_control, &outer_trace, &outer_scope);
    EXPECT_EQ(interrupt::Pending(), std::nullopt);
    {
      memory::QueryBudgetScope inner_scope(500, nullptr);
      ScopedQueryExec inner(nullptr, &inner_trace);
      ExpectExec(nullptr, &inner_trace, &inner_scope);
      obs::ScopedSpan span(obs::SpanKind::kFlowRun);
      memory::Charge(100, "test");
      EXPECT_EQ(inner_scope.charged_bytes(), 100);
      EXPECT_EQ(outer_scope.charged_bytes(), 0)
          << "a charge lands on the innermost scope only";
      memory::Release(100);
    }
    ExpectExec(&outer_control, &outer_trace, &outer_scope);
  }
  ExpectExec(nullptr, nullptr, nullptr);
  EXPECT_EQ(FlowRunSpans(inner_trace), 1);
  EXPECT_EQ(FlowRunSpans(outer_trace), 0);
}

TEST_F(MemBudgetTest, RunRestoresTheCallersRecord) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  QueryControl outer_control;
  outer_control.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  obs::Trace outer_trace;
  memory::QueryBudgetScope outer_scope(0, nullptr);
  ScopedQueryExec outer(&outer_control, &outer_trace);
  EXPECT_EQ(interrupt::Pending(), std::nullopt);

  QueryControl control;
  obs::Trace trace;
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  options.control = &control;
  options.trace = &trace;
  const NncResult result = NncSearch(dataset, options).Run(entry.query);
  EXPECT_EQ(result.termination, NncTermination::kComplete);
  ExpectExec(&outer_control, &outer_trace, &outer_scope);
  {
    memory::QueryBudgetScope tight(2048, nullptr);
    EXPECT_THROW(NncSearch(dataset, options).Run(entry.query),
                 MemoryExceeded);
    ExpectExec(&outer_control, &outer_trace, &tight);
  }
  ExpectExec(&outer_control, &outer_trace, &outer_scope);
  EXPECT_EQ(outer_trace.total_bytes(), 0)
      << "the run's charges belong to its own trace";
#if defined(OSD_TRACING_ENABLED)
  EXPECT_GT(trace.total_bytes(), 0);
#endif
}

TEST_F(MemBudgetTest, NullControlShadowsTheOuterControl) {
  // P-SD on wide, overlapping objects runs Dinic, whose loops poll too:
  // on this draw the flow certificates leave it three networks.
  Rng rng(2024);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < 400; ++i) {
    const int m = 4 + static_cast<int>(rng.UniformInt(0, 20));
    objects.push_back(test::RandomObject(i, 2, m, 60.0, 20.0, rng));
  }
  const UncertainObject query = test::RandomObject(-1, 2, 6, 100.0, 8.0, rng);
  const Dataset dataset(std::move(objects));
  NncOptions options;
  options.op = Operator::kPSd;
  const NncResult plain = NncSearch(dataset, options).Run(query);
  ASSERT_GT(plain.stats.flow_runs, 0);

  QueryControl cancelled;
  cancelled.cancel.store(true);
  ScopedQueryExec outer(&cancelled, nullptr);
  ASSERT_EQ(interrupt::Pending(), interrupt::Kind::kCancelled);
  // A run without a control of its own is not stopped by the caller's,
  // neither at a heap pop nor inside a flow run.
  const NncResult inner = NncSearch(dataset, options).Run(query);
  EXPECT_EQ(inner.termination, NncTermination::kComplete);
  EXPECT_EQ(inner.candidates, plain.candidates);
  EXPECT_EQ(inner.stats.flow_runs, plain.stats.flow_runs);
  EXPECT_EQ(interrupt::Pending(), interrupt::Kind::kCancelled);

  options.control = &cancelled;
  EXPECT_EQ(NncSearch(dataset, options).Run(query).termination,
            NncTermination::kCancelled);
}

// --- Engine integration --------------------------------------------------

TEST_F(MemBudgetTest, EngineBreachDegradesWhenAccepted) {
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  const NncResult exact = NncSearch(dataset, options).Run(entry.query);

  QueryEngine engine(std::move(dataset),
                     {.num_threads = 1, .per_query_mem_bytes = 2048});
  options.degraded_superset = true;
  auto ticket = engine.Submit({entry.query, options});

  ASSERT_EQ(ticket->Wait(), QueryStatus::kOkDegraded);
  EXPECT_EQ(ticket->result().termination, NncTermination::kMemoryExceeded);
  ExpectCertifiedSuperset(ticket->result(), exact.candidates);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.ok_degraded, 1);
  EXPECT_EQ(stats.mem_breaches, 1);
  EXPECT_EQ(stats.mem_per_query_cap_bytes, 2048);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"memory\":{\"breaches\":1"), std::string::npos)
      << json;
}

TEST_F(MemBudgetTest, PerQueryBreachFailsTheTicketPrecisely) {
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;

  QueryEngine engine(std::move(dataset),
                     {.num_threads = 1, .per_query_mem_bytes = 2048});
  QuerySpec spec;
  spec.query = entry.query;
  spec.options = options;
  auto ticket = engine.Submit(std::move(spec));

  ASSERT_EQ(ticket->Wait(), QueryStatus::kError);
  EXPECT_NE(ticket->error().find("per-query cap"), std::string::npos)
      << ticket->error();
  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.mem_breaches, 1);
}

TEST_F(MemBudgetTest, BreachedQueryLeavesConcurrentBatchBitIdentical) {
  // The acceptance contract: one query of a concurrent batch breaching its
  // budget must leave every other query bit-identical to a fault-free run.
  // The faulty query is picked deterministically by its own shape — its
  // instance count makes its working set far larger than its siblings' —
  // with the cap calibrated between the two peaks.
  Dataset dataset = SmallDataset();

  WorkloadParams small_wp;
  small_wp.num_queries = 15;
  small_wp.query_instances = 4;
  small_wp.seed = 13;
  std::vector<QueryWorkloadEntry> entries = GenerateWorkload(dataset, small_wp);
  WorkloadParams big_wp;
  big_wp.num_queries = 1;
  big_wp.query_instances = 96;
  big_wp.seed = 29;
  const size_t big_index = 7;  // bury the faulty query mid-batch
  entries.insert(entries.begin() + big_index,
                 GenerateWorkload(dataset, big_wp)[0]);

  // Calibrate: serial per-query peaks under an uncapped scope.
  std::vector<NncResult> serial;
  long max_small_peak = 0;
  for (const QueryWorkloadEntry& e : entries) {
    NncOptions options;
    options.exclude_id = e.seeded_from;
    memory::QueryBudgetScope scope(0, nullptr);
    serial.push_back(NncSearch(dataset, options).Run(e.query));
    if (&e != &entries[big_index]) {
      max_small_peak = std::max(max_small_peak, serial.back().mem_peak_bytes);
    }
  }
  const long big_peak = serial[big_index].mem_peak_bytes;
  ASSERT_GT(big_peak, 2 * max_small_peak)
      << "calibration failed: the big query must clearly dominate";
  const long cap = (max_small_peak + big_peak) / 2;

  QueryEngine engine(std::move(dataset),
                     {.num_threads = 4, .per_query_mem_bytes = cap});
  std::vector<QuerySpec> specs;
  for (const QueryWorkloadEntry& e : entries) {
    NncOptions options;
    options.exclude_id = e.seeded_from;
    specs.push_back({e.query, options});
  }
  auto tickets = engine.SubmitBatch(std::move(specs));
  engine.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE(i);
    if (i == big_index) {
      EXPECT_EQ(tickets[i]->status(), QueryStatus::kError);
      EXPECT_NE(tickets[i]->error().find("per-query cap"), std::string::npos)
          << tickets[i]->error();
    } else {
      ASSERT_EQ(tickets[i]->status(), QueryStatus::kOk);
      EXPECT_EQ(tickets[i]->result().candidates, serial[i].candidates)
          << "a sibling's breach perturbed this query";
    }
  }
  EXPECT_GE(engine.Snapshot().mem_breaches, 1);
}

TEST_F(MemBudgetTest, InjectedBadAllocIsContainedAtTheWorkerBoundary) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  Dataset dataset = SmallDataset();
  WorkloadParams wp;
  wp.num_queries = 16;
  wp.query_instances = 4;
  wp.seed = 13;
  const std::vector<QueryWorkloadEntry> entries =
      GenerateWorkload(dataset, wp);

  std::vector<NncResult> serial;
  for (const QueryWorkloadEntry& e : entries) {
    NncOptions options;
    options.exclude_id = e.seeded_from;
    serial.push_back(NncSearch(dataset, options).Run(e.query));
  }

  // One bad_alloc somewhere in the concurrent batch, injected at the
  // frontier-heap charge inside the traversal — a site whose exception
  // must reach the worker boundary. Exactly one query dies
  // with a clean error; which one is scheduling-dependent, but every
  // surviving query must be bit-identical to serial, and the pool must
  // survive to run more queries.
  ASSERT_TRUE(failpoint::Configure("mem.nnc.heap=1xthrow_bad_alloc@10"));
  QueryEngine engine(std::move(dataset),
                     {.num_threads = 4, .per_query_mem_bytes = 64L << 20});
  std::vector<QuerySpec> specs;
  for (const QueryWorkloadEntry& e : entries) {
    NncOptions options;
    options.exclude_id = e.seeded_from;
    specs.push_back({e.query, options});
  }
  auto tickets = engine.SubmitBatch(std::move(specs));
  engine.Drain();

  int errors = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE(i);
    if (tickets[i]->status() == QueryStatus::kError) {
      ++errors;
      EXPECT_NE(tickets[i]->error().find("out of memory"), std::string::npos)
          << tickets[i]->error();
    } else {
      ASSERT_EQ(tickets[i]->status(), QueryStatus::kOk);
      EXPECT_EQ(tickets[i]->result().candidates, serial[i].candidates);
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(engine.Snapshot().bad_allocs, 1);

  // The worker pool survived containment: a fresh query runs clean.
  failpoint::Clear();
  NncOptions options;
  options.exclude_id = entries[0].seeded_from;
  auto again = engine.Submit({entries[0].query, options});
  ASSERT_EQ(again->Wait(), QueryStatus::kOk);
  EXPECT_EQ(again->result().candidates, serial[0].candidates);
}

TEST_F(MemBudgetTest, AdmissionControlShedsAboveHighWater) {
  Dataset dataset = SmallDataset(100);
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;

  constexpr long kCap = 64L << 20;
  QueryEngine engine(std::move(dataset), {.num_threads = 1,
                                          .shed_on_overload = true,
                                          .engine_mem_bytes = kCap});
  // Pre-charge the engine budget past the 90% high-water mark; the next
  // submission must shed before any work happens.
  ASSERT_TRUE(engine.memory_budget().TryCharge(kCap * 95 / 100));
  auto shed = engine.Submit({entry.query, options});
  ASSERT_EQ(shed->Wait(), QueryStatus::kRejected);
  EXPECT_NE(shed->error().find("high-water"), std::string::npos)
      << shed->error();

  // Below the mark again, the same query is admitted and completes.
  engine.memory_budget().Release(kCap * 95 / 100);
  auto ok = engine.Submit({entry.query, options});
  EXPECT_EQ(ok->Wait(), QueryStatus::kOk);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.mem_admission_rejected, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.mem_engine_cap_bytes, kCap);
}

TEST_F(MemBudgetTest, AdmissionControlBlocksUntilBelowHighWater) {
  Dataset dataset = SmallDataset(100);
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;

  constexpr long kCap = 64L << 20;
  QueryEngine engine(std::move(dataset),
                     {.num_threads = 1, .engine_mem_bytes = kCap});
  const long held = kCap * 95 / 100;
  ASSERT_TRUE(engine.memory_budget().TryCharge(held));
  // Without shedding, Submit applies backpressure: it blocks until the
  // budget drains below the high-water mark, then admits the query.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    engine.memory_budget().Release(held);
  });
  auto ticket = engine.Submit({entry.query, options});
  releaser.join();
  EXPECT_EQ(ticket->Wait(), QueryStatus::kOk);
  EXPECT_EQ(engine.Snapshot().mem_admission_rejected, 0);
}

TEST_F(MemBudgetTest, MetricsExportCoversMemoryGauges) {
  Dataset dataset = SmallDataset(100);
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  options.degraded_superset = true;

  QueryEngine engine(std::move(dataset), {.num_threads = 1,
                                          .per_query_mem_bytes = 2048,
                                          .engine_mem_bytes = 64L << 20});
  auto ticket = engine.Submit({entry.query, options});
  ASSERT_EQ(ticket->Wait(), QueryStatus::kOkDegraded);

  const std::string text = engine.MetricsText();
  for (const char* name :
       {"osd_mem_breaches_total", "osd_mem_admission_rejected_total",
        "osd_bad_allocs_total", "osd_mem_engine_bytes",
        "osd_mem_engine_peak_bytes"}) {
    EXPECT_NE(text.find(name), std::string::npos)
        << "missing " << name << " in:\n" << text;
  }
  EXPECT_NE(text.find("osd_mem_breaches_total 1"), std::string::npos) << text;

  const EngineStats stats = engine.Snapshot();
  EXPECT_GT(stats.mem_peak_bytes, 0)
      << "the breached query drew on the engine budget";
  EXPECT_EQ(stats.mem_current_bytes, 0)
      << "all reservations return when queries finish";
}

TEST_F(MemBudgetTest, WiredMemorySitesAreKnownToTheFailpointRegistry) {
  std::string error;
  EXPECT_TRUE(failpoint::Configure(
      "mem.charge=off,mem.nnc.heap=off,mem.profile.matrix=off,"
      "mem.profile.sorted=off,mem.flow.build=off,object.local_tree=off",
      &error))
      << error;
}

}  // namespace
}  // namespace osd
