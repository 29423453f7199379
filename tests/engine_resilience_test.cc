// Engine resilience: every query runs once, so an injected fault fails its
// ticket (with failure text that names the failpoint) and only its ticket;
// overload shedding; and worker survival across injected faults. Injection
// tests require -DOSD_FAILPOINTS=ON and skip themselves otherwise.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "io/dataset_io.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 200, uint64_t seed = 5) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 5;
  p.seed = seed;
  return GenerateSynthetic(p);
}

QueryWorkloadEntry OneQuery(const Dataset& dataset, uint64_t seed = 17) {
  WorkloadParams wp;
  wp.num_queries = 1;
  wp.query_instances = 4;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp)[0];
}

class EngineResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }
};

QuerySpec PlainSpec(const UncertainObject& query) {
  QuerySpec spec;
  spec.query = query;
  return spec;
}

TEST_F(EngineResilienceTest, DimensionalityMismatchFailsTheTicket) {
  // A dimensionality mismatch is a caller bug: the ticket fails with a
  // precise error and the worker lives on. Needs no failpoints.
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  std::vector<double> coords = {0, 0, 0};
  UncertainObject bad_query(999, 3, std::move(coords), {1.0});

  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  auto ticket = engine.Submit(PlainSpec(bad_query));

  ASSERT_EQ(ticket->Wait(), QueryStatus::kError);
  EXPECT_NE(ticket->error().find("dimensionality"), std::string::npos)
      << ticket->error();
  EXPECT_EQ(engine.Snapshot().errors, 1);

  auto ok = engine.Submit(PlainSpec(entry.query));
  EXPECT_EQ(ok->Wait(), QueryStatus::kOk);
}

TEST_F(EngineResilienceTest, InjectedFaultFailsTheTicketOnce) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  ASSERT_TRUE(failpoint::Configure("engine.execute=throw(kaboom)"));
  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  auto ticket = engine.Submit(PlainSpec(entry.query));

  ASSERT_EQ(ticket->Wait(), QueryStatus::kError);
  // The query ran once: one hit at the site, one failed ticket.
  EXPECT_EQ(failpoint::HitCount("engine.execute"), 1);
  EXPECT_EQ(failpoint::FireCount("engine.execute"), 1);
  // The ticket's error carries the what() text and the failing failpoint —
  // diagnosable without engine logs.
  EXPECT_NE(ticket->error().find("kaboom"), std::string::npos)
      << ticket->error();
  EXPECT_NE(ticket->error().find("[failpoint engine.execute]"),
            std::string::npos)
      << ticket->error();

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 0);
  failpoint::Clear();

  // Zero crashed workers: the same engine still answers cleanly.
  auto ok = engine.Submit(PlainSpec(entry.query));
  EXPECT_EQ(ok->Wait(), QueryStatus::kOk);
}

TEST_F(EngineResilienceTest, TraversalFaultFailsOnlyItsQuery) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);
  NncOptions options;
  options.exclude_id = entry.seeded_from;
  const NncResult serial = NncSearch(dataset, options).Run(entry.query);

  // Fault deep inside the traversal (first object examination) rather than
  // at the execution wrapper: it fails the first query, and the engine's
  // next query gets the exact serial answer.
  ASSERT_TRUE(failpoint::Configure("nnc.object_examine=1xthrow"));
  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  QuerySpec spec;
  spec.query = entry.query;
  spec.options = options;
  auto failed = engine.Submit(spec);
  ASSERT_EQ(failed->Wait(), QueryStatus::kError);
  EXPECT_NE(failed->error().find("[failpoint nnc.object_examine]"),
            std::string::npos)
      << failed->error();

  auto ticket = engine.Submit(std::move(spec));
  ASSERT_EQ(ticket->Wait(), QueryStatus::kOk);
  EXPECT_EQ(ticket->result().candidates, serial.candidates);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 1);
}

TEST_F(EngineResilienceTest, InjectedIoFaultClearsAfterItsFirings) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  // The loaders report injected faults as ordinary errors; a caller that
  // loads again (two failures, then success) recovers without restarting.
  Dataset dataset = SmallDataset(20);
  const std::string path = std::string(::testing::TempDir()) + "/io_fault.bin";
  std::string error;
  ASSERT_TRUE(SaveBinary(dataset.objects(), path, &error)) << error;

  ASSERT_TRUE(failpoint::Configure("io.binary.object=2xerror"));
  std::vector<UncertainObject> loaded;
  for (int failure = 1; failure <= 2; ++failure) {
    ASSERT_FALSE(LoadBinary(path, &loaded, &error));
    EXPECT_NE(error.find("failpoint io.binary.object"), std::string::npos)
        << error;
  }
  ASSERT_TRUE(LoadBinary(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.size(), dataset.objects().size());
}

TEST_F(EngineResilienceTest, OverloadSheddingRejectsInsteadOfBlocking) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  // One slow worker (100 ms per query), a one-slot queue, shedding on:
  // a burst of 8 must see at most 1 running + 1 queued accepted and the
  // rest rejected immediately.
  ASSERT_TRUE(failpoint::Configure("engine.execute=delay(100)"));
  QueryEngine engine(std::move(dataset),
                     {.num_threads = 1, .queue_capacity = 1,
                      .shed_on_overload = true});
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  const auto burst_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(engine.Submit(PlainSpec(entry.query)));
  }
  const double burst_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    burst_start)
          .count();
  engine.Drain();

  long ok = 0, rejected = 0;
  for (const auto& t : tickets) {
    switch (t->Wait()) {
      case QueryStatus::kOk: ++ok; break;
      case QueryStatus::kRejected:
        ++rejected;
        EXPECT_NE(t->error().find("overload shedding"), std::string::npos);
        break;
      default: ADD_FAILURE() << QueryStatusName(t->status());
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(ok, 1);
  EXPECT_EQ(ok + rejected, 8);
  // Rejection is immediate: the burst must not have blocked on the 100 ms
  // executions of the accepted queries.
  EXPECT_LT(burst_seconds, 0.5);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.completed, 8);
  EXPECT_NE(stats.ToJson().find("\"rejected\":"), std::string::npos);
}

}  // namespace
}  // namespace osd
