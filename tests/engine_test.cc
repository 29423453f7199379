// Functional tests of the engine layer: thread pool semantics, ticket
// lifecycle, deadlines, cancellation, error isolation, and stats export.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "engine/thread_pool.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 600, uint64_t seed = 11) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 6;
  p.seed = seed;
  return GenerateSynthetic(p);
}

std::vector<QueryWorkloadEntry> SmallWorkload(const Dataset& dataset, int n,
                                              uint64_t seed = 21) {
  WorkloadParams wp;
  wp.num_queries = n;
  wp.query_instances = 5;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp);
}

QuerySpec MakeSpec(const UncertainObject& query, const NncOptions& options,
                   double deadline_seconds) {
  QuerySpec spec;
  spec.query = query;
  spec.options = options;
  spec.deadline_seconds = deadline_seconds;
  return spec;
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4, 16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
  const ThreadPool::Counters c = pool.counters();
  EXPECT_EQ(c.submitted, 100);
  EXPECT_EQ(c.executed, 100);
  EXPECT_EQ(c.task_exceptions, 0);
}

TEST(ThreadPoolTest, TrySubmitRejectsWhenFull) {
  ThreadPool pool(1, 1);
  std::atomic<bool> release{false};
  // Occupy the single worker, then fill the single queue slot.
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  while (pool.counters().submitted < 1) std::this_thread::yield();
  // The worker may not have dequeued yet; wait until the queue has space,
  // fill it, and check that one more TrySubmit bounces.
  while (!pool.TrySubmit([] {})) std::this_thread::yield();
  bool saw_rejection = false;
  for (int i = 0; i < 3 && !saw_rejection; ++i) {
    saw_rejection = !pool.TrySubmit([] {});
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(pool.counters().rejected, 1);
  release.store(true);
  pool.WaitIdle();
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorkers) {
  ThreadPool pool(2, 8);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(pool.counters().task_exceptions, 1);
}

TEST(QueryEngineTest, SingleQueryMatchesSerialRun) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 1);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = workload[0].seeded_from;
  const NncResult serial = NncSearch(dataset, options).Run(workload[0].query);

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  auto ticket = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  EXPECT_EQ(ticket->Wait(), QueryStatus::kOk);
  EXPECT_EQ(ticket->result().candidates, serial.candidates);
  EXPECT_EQ(ticket->result().termination, NncTermination::kComplete);
  EXPECT_GT(ticket->latency_seconds(), 0.0);
}

TEST(QueryEngineTest, ZeroBudgetDeadlineExpiresWithoutKillingPool) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 2);
  NncOptions options;
  options.op = Operator::kPSd;

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  QuerySpec doomed = MakeSpec(workload[0].query, options, 1e-9);
  auto t1 = engine.Submit(std::move(doomed));
  EXPECT_EQ(t1->Wait(), QueryStatus::kDeadlineExceeded);

  // The pool must still serve queries afterwards.
  auto t2 = engine.Submit(MakeSpec(workload[1].query, options, 0.0));
  EXPECT_EQ(t2->Wait(), QueryStatus::kOk);
  EXPECT_FALSE(t2->result().candidates.empty());

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.ok, 1);
}

TEST(QueryEngineTest, CancelledTicketTerminatesCleanly) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 8);
  NncOptions options;
  options.op = Operator::kSSd;

  // One worker: later queries sit in the queue long enough for Cancel to
  // land before execution in the common case; either way the ticket must
  // reach a clean terminal state and the pool must survive.
  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (const auto& entry : workload) {
    tickets.push_back(engine.Submit(MakeSpec(entry.query, options, 0.0)));
  }
  tickets.back()->Cancel();
  const QueryStatus last = tickets.back()->Wait();
  EXPECT_TRUE(last == QueryStatus::kCancelled || last == QueryStatus::kOk);
  for (auto& t : tickets) {
    const QueryStatus s = t->Wait();
    EXPECT_TRUE(s == QueryStatus::kOk || s == QueryStatus::kCancelled);
  }
  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.completed, static_cast<long>(tickets.size()));
  EXPECT_EQ(stats.errors, 0);
}

TEST(QueryEngineTest, MismatchedQueryDimensionIsIsolatedAsError) {
  Dataset dataset = SmallDataset();  // dim 2
  const auto workload = SmallWorkload(dataset, 1);
  NncOptions options;

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  const UncertainObject bad =
      UncertainObject::Uniform(-7, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  auto t_bad = engine.Submit(MakeSpec(bad, options, 0.0));
  EXPECT_EQ(t_bad->Wait(), QueryStatus::kError);
  EXPECT_FALSE(t_bad->error().empty());

  auto t_ok = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  EXPECT_EQ(t_ok->Wait(), QueryStatus::kOk);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 1);
}

TEST(QueryEngineTest, SnapshotAggregatesAndSerializes) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 12);
  NncOptions options;
  options.op = Operator::kSsSd;

  QueryEngine engine(std::move(dataset), {.num_threads = 4});
  std::vector<QuerySpec> specs;
  for (const auto& entry : workload) {
    NncOptions per_query = options;
    per_query.exclude_id = entry.seeded_from;
    specs.push_back(MakeSpec(entry.query, per_query, 0.0));
  }
  auto tickets = engine.SubmitBatch(std::move(specs));
  engine.Drain();

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(stats.completed, 12);
  EXPECT_EQ(stats.ok, 12);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.filters.dominance_checks, 0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p99_ms, stats.latency_max_ms + 1e-9);
  const OperatorStats& op =
      stats.per_operator[static_cast<int>(Operator::kSsSd)];
  EXPECT_EQ(op.queries, 12);
  EXPECT_GT(op.busy_seconds, 0.0);

  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"submitted\":12"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"SSSD\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(LatencyHistogramTest, QuantilesAreOrderedAndClamped) {
  obs::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i * 1e-4);  // 0.1ms .. 100ms
  EXPECT_EQ(h.count(), 1000);
  const double p50 = h.Quantile(0.50);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_seconds());
  EXPECT_GE(p50, h.min_seconds());
  // Log2 buckets are coarse; p50 of uniform(0.1ms, 100ms) must land within
  // a factor-2 band of the true 50ms median.
  EXPECT_GT(p50, 0.025);
  EXPECT_LT(p50, 0.1);
}

TEST(LatencyHistogramTest, BucketsAreLog2MicrosecondsWithASum) {
  obs::LatencyHistogram h;
  constexpr int kPer = 50;
  for (int us = 1; us <= 4; ++us) {
    for (int i = 0; i < kPer; ++i) h.Add(1e-6 * us);
  }
  EXPECT_EQ(h.count(), 4 * kPer);
  EXPECT_EQ(h.invalid(), 0);
  EXPECT_NEAR(h.sum_seconds(), 1e-6 * (1 + 2 + 3 + 4) * kPer, 1e-12);
  // 1us lands in bucket 0; 2us in bucket 1; 3..4us in bucket 2.
  EXPECT_EQ(h.buckets()[0], kPer);
  EXPECT_EQ(h.buckets()[1], kPer);
  EXPECT_EQ(h.buckets()[2], 2 * kPer);
  long total = 0;
  for (long b : h.buckets()) total += b;
  EXPECT_EQ(total, h.count());
}

TEST(LatencyHistogramTest, NonFiniteSamplesGoToInvalid) {
  obs::LatencyHistogram h;
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  h.Add(1e-3);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.invalid(), 3);
  EXPECT_NEAR(h.sum_seconds(), 1e-3, 1e-12);
}

}  // namespace
}  // namespace osd
