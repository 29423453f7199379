// Concurrency tests of the engine layer, designed to run under
// ThreadSanitizer (ctest -L tsan; see scripts/check_tsan.sh):
//  - a 200-query batch at 8 threads returns candidate sets bit-identical
//    to serial execution for all four instance-level operators;
//  - concurrent lazy local-R-tree builds resolve to one tree;
//  - a ~0-budget deadline terminates cleanly while the rest of the batch
//    keeps running.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"

namespace osd {
namespace {

constexpr int kNumQueries = 200;
constexpr int kThreads = 8;

Dataset TestDataset() {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = 700;
  p.instances_per_object = 6;
  p.seed = 404;
  return GenerateSynthetic(p);
}

std::vector<QueryWorkloadEntry> TestWorkload(const Dataset& dataset) {
  WorkloadParams wp;
  wp.num_queries = kNumQueries;
  wp.query_instances = 5;
  wp.seed = 505;
  return GenerateWorkload(dataset, wp);
}

TEST(EngineConcurrencyTest, BatchIdenticalToSerialForAllOperators) {
  const Operator operators[] = {Operator::kSSd, Operator::kSsSd,
                                Operator::kPSd, Operator::kFSd};
  Dataset dataset = TestDataset();
  const auto workload = TestWorkload(dataset);

  for (Operator op : operators) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;

    // Serial ground truth on a fresh dataset copy (cold local trees, same
    // inputs the engine sees).
    std::vector<std::vector<int>> serial;
    serial.reserve(workload.size());
    {
      const Dataset cold = dataset;
      for (const auto& entry : workload) {
        NncOptions per_query = options;
        per_query.exclude_id = entry.seeded_from;
        serial.push_back(
            NncSearch(cold, per_query).Run(entry.query).candidates);
      }
    }

    QueryEngine engine(dataset, {.num_threads = kThreads});
    std::vector<QuerySpec> specs;
    specs.reserve(workload.size());
    for (const auto& entry : workload) {
      NncOptions per_query = options;
      per_query.exclude_id = entry.seeded_from;
      QuerySpec spec;
      spec.query = entry.query;
      spec.options = per_query;
      specs.push_back(std::move(spec));
    }
    auto tickets = engine.SubmitBatch(std::move(specs));
    for (size_t i = 0; i < tickets.size(); ++i) {
      ASSERT_EQ(tickets[i]->Wait(), QueryStatus::kOk) << "query " << i;
      EXPECT_EQ(tickets[i]->result().candidates, serial[i]) << "query " << i;
    }
    const EngineStats stats = engine.Snapshot();
    EXPECT_EQ(stats.ok, kNumQueries);
    EXPECT_EQ(stats.completed, kNumQueries);
  }
}

TEST(EngineConcurrencyTest, ConcurrentLocalTreeBuildsYieldOneTree) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = 32;
  p.instances_per_object = 20;
  p.seed = 99;
  const Dataset dataset = GenerateSynthetic(p);

  std::vector<const RTree*> seen(static_cast<size_t>(8 * dataset.size()),
                                 nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < dataset.size(); ++i) {
        seen[static_cast<size_t>(t) * dataset.size() + i] =
            &dataset.object(i).LocalTree();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_TRUE(dataset.object(i).HasLocalTree());
    for (int t = 1; t < 8; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t) * dataset.size() + i], seen[i]);
    }
  }
}

TEST(EngineConcurrencyTest, DeadlineInsideBusyBatchIsIsolated) {
  Dataset dataset = TestDataset();
  const auto workload = TestWorkload(dataset);
  NncOptions options;
  options.op = Operator::kSSd;

  QueryEngine engine(std::move(dataset), {.num_threads = kThreads});
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (size_t i = 0; i < 64; ++i) {
    const auto& entry = workload[i % workload.size()];
    NncOptions per_query = options;
    per_query.exclude_id = entry.seeded_from;
    // Every fourth query gets a ~0 budget.
    const double deadline = (i % 4 == 3) ? 1e-9 : 0.0;
    QuerySpec spec;
    spec.query = entry.query;
    spec.options = per_query;
    spec.deadline_seconds = deadline;
    tickets.push_back(engine.Submit(std::move(spec)));
  }
  long expired = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStatus s = tickets[i]->Wait();
    if (i % 4 == 3) {
      EXPECT_EQ(s, QueryStatus::kDeadlineExceeded) << "query " << i;
      ++expired;
    } else {
      EXPECT_EQ(s, QueryStatus::kOk) << "query " << i;
    }
  }
  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.deadline_exceeded, expired);
  EXPECT_EQ(stats.completed, static_cast<long>(tickets.size()));
}

// Drain racing progressive queries: every ticket runs its on_finish hook
// exactly once before Drain returns, no emission is delivered after its
// ticket turned terminal, and the terminal (status, termination) pair is
// consistent even on the fast-fail paths (cancelled / expired while
// queued, where no traversal ever ran) — the contract the network
// service's terminal frames are built on.
TEST(EngineConcurrencyTest, DrainRacingProgressiveQueriesKeepsTerminalsConsistent) {
  Dataset dataset = TestDataset();
  const auto workload = TestWorkload(dataset);

  struct PerQuery {
    std::atomic<long> emissions{0};
    std::atomic<long> finishes{0};
    std::atomic<bool> emission_after_finish{false};
  };
  constexpr int kQueries = 60;
  std::vector<PerQuery> state(kQueries);
  std::atomic<long> finish_hooks{0};

  QueryEngine engine(std::move(dataset), {.num_threads = 4});
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    const auto& entry = workload[static_cast<size_t>(i) % workload.size()];
    QuerySpec spec;
    spec.query = entry.query;
    spec.options.op = Operator::kPSd;
    spec.options.exclude_id = entry.seeded_from;
    // Every third query expires while queued (fast-fail path).
    if (i % 3 == 1) spec.deadline_seconds = 1e-9;
    PerQuery* pq = &state[static_cast<size_t>(i)];
    spec.on_emission = [pq](const NncEmission&) {
      if (pq->finishes.load(std::memory_order_acquire) != 0) {
        pq->emission_after_finish.store(true, std::memory_order_relaxed);
      }
      pq->emissions.fetch_add(1, std::memory_order_relaxed);
    };
    spec.on_finish = [pq, &finish_hooks](const QueryTicket& ticket) {
      EXPECT_TRUE(ticket.done());
      pq->finishes.fetch_add(1, std::memory_order_release);
      finish_hooks.fetch_add(1, std::memory_order_relaxed);
    };
    tickets.push_back(engine.Submit(std::move(spec)));
    // Every third query is cancelled right away, racing the in-flight
    // emission stream.
    if (i % 3 == 2) tickets.back()->Cancel();
  }

  engine.Drain();  // must not return before every on_finish has finished
  EXPECT_EQ(finish_hooks.load(), kQueries);

  for (int i = 0; i < kQueries; ++i) {
    SCOPED_TRACE(i);
    const QueryTicket& ticket = *tickets[static_cast<size_t>(i)];
    ASSERT_TRUE(ticket.done());
    EXPECT_EQ(state[static_cast<size_t>(i)].finishes.load(), 1);
    EXPECT_FALSE(state[static_cast<size_t>(i)].emission_after_finish.load());
    switch (ticket.status()) {
      case QueryStatus::kOk:
        EXPECT_EQ(ticket.result().termination, NncTermination::kComplete);
        break;
      case QueryStatus::kCancelled:
        EXPECT_EQ(ticket.result().termination, NncTermination::kCancelled);
        break;
      case QueryStatus::kDeadlineExceeded:
        EXPECT_EQ(ticket.result().termination,
                  NncTermination::kDeadlineExceeded);
        break;
      default:
        ADD_FAILURE() << "unexpected terminal status "
                      << QueryStatusName(ticket.status());
    }
  }
}

}  // namespace
}  // namespace osd
