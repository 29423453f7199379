// Tests for the observability layer (src/obs/): per-query traces, the
// latency bucket layout and metric families, the exposition renderers
// (Prometheus golden file + JSON), the slow-query log, and the engine
// integration (QuerySpec::collect_trace, MetricsText, Snapshot().metrics).
// Also the regression suite for the accounting bugfixes: non-finite
// latency samples (LatencyHistogram::Add UB) and EngineStats::ToJson
// truncation with maxed counters.

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/engine_stats.h"
#include "engine/query_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osd {
namespace {

// ---------------------------------------------------------------------------
// Trace.
// ---------------------------------------------------------------------------

TEST(TraceTest, NestedSpansRecordParentLinksAndAggregates) {
  obs::Trace trace("unit");
  trace.Begin(obs::SpanKind::kTraversal);
  trace.Begin(obs::SpanKind::kDominanceCheck);
  trace.Begin(obs::SpanKind::kExactCheck);
  trace.End();
  trace.End();
  trace.Begin(obs::SpanKind::kDominanceCheck);
  trace.End();
  trace.End();

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kTraversal);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].kind, obs::SpanKind::kDominanceCheck);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].kind, obs::SpanKind::kExactCheck);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);

  const auto& agg = trace.aggregates();
  EXPECT_EQ(agg[static_cast<int>(obs::SpanKind::kTraversal)].count, 1);
  EXPECT_EQ(agg[static_cast<int>(obs::SpanKind::kDominanceCheck)].count, 2);
  EXPECT_EQ(agg[static_cast<int>(obs::SpanKind::kExactCheck)].count, 1);
  EXPECT_EQ(agg[static_cast<int>(obs::SpanKind::kFlowRun)].count, 0);
  // Durations are non-negative and parents cover their children.
  for (const auto& s : spans) EXPECT_GE(s.seconds, 0.0);
  EXPECT_GE(spans[0].seconds, spans[1].seconds);
  EXPECT_EQ(trace.dropped_spans(), 0);
  EXPECT_EQ(trace.label(), "unit");
}

TEST(TraceTest, SpanCapDropsRecordingButKeepsAggregates) {
  obs::Trace trace;
  const int total = obs::Trace::kMaxRecordedSpans + 100;
  for (int i = 0; i < total; ++i) {
    trace.Begin(obs::SpanKind::kDominanceCheck);
    trace.End();
  }
  EXPECT_EQ(static_cast<int>(trace.spans().size()),
            obs::Trace::kMaxRecordedSpans);
  EXPECT_EQ(trace.dropped_spans(), 100);
  EXPECT_EQ(
      trace.aggregates()[static_cast<int>(obs::SpanKind::kDominanceCheck)]
          .count,
      total);
  // The overflow is visible in the JSON dump.
  EXPECT_NE(trace.ToJson().find("\"dropped_spans\":100"), std::string::npos);
}

TEST(TraceTest, ToJsonCarriesSummaryAndAggregates) {
  obs::Trace trace("SSD");
  trace.Begin(obs::SpanKind::kTraversal);
  trace.End();
  FilterStats stats;
  stats.dominance_checks = 7;
  stats.exact_checks = 3;
  trace.SetSummary(stats, 42, 13, 2, "complete");
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"label\":\"SSD\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"termination\":\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"objects_examined\":42"), std::string::npos);
  EXPECT_NE(json.find("\"entries_pruned\":13"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dominance_checks\":7"), std::string::npos);
  EXPECT_NE(json.find("\"traversal\""), std::string::npos);
  // Only opened kinds appear in the aggregate map ("flow_runs" in the
  // summary is the FilterStats counter, not an aggregate entry).
  EXPECT_EQ(json.find("\"flow_run\":"), std::string::npos);
}

TEST(TraceTest, ScopedSpanIsNoOpWithoutInstalledTrace) {
  // Must not crash or record anywhere.
  obs::ScopedSpan span(obs::SpanKind::kTraversal);
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

// ---------------------------------------------------------------------------
// Metrics primitives.
// ---------------------------------------------------------------------------

TEST(MetricsTest, LatencyBucketLayoutIsLog2Microseconds) {
  EXPECT_EQ(obs::LatencyBucketIndex(0.0), 0);
  EXPECT_EQ(obs::LatencyBucketIndex(1e-6), 0);
  EXPECT_EQ(obs::LatencyBucketIndex(1.5e-6), 1);
  EXPECT_EQ(obs::LatencyBucketIndex(2e-6), 1);
  EXPECT_EQ(obs::LatencyBucketIndex(1.0), 20);  // 2^20us ~ 1.049s
  // Everything above the range lands in the last bucket.
  EXPECT_EQ(obs::LatencyBucketIndex(1e12), obs::kLatencyBuckets - 1);
  EXPECT_NEAR(obs::LatencyBucketUpperSeconds(0), 1e-6, 1e-18);
  EXPECT_NEAR(obs::LatencyBucketUpperSeconds(10), 1024e-6, 1e-12);
}

TEST(MetricsTest, FamilyStripsLabelBlock) {
  EXPECT_EQ(obs::MetricFamily("osd_queries_total{status=\"ok\"}"),
            "osd_queries_total");
  EXPECT_EQ(obs::MetricFamily("osd_engine_threads"), "osd_engine_threads");
}

// ---------------------------------------------------------------------------
// Exposition renderers.
// ---------------------------------------------------------------------------

// The fixed snapshot set used by the renderer tests: two labeled counters
// in one family, a gauge, and a histogram with an invalid count — every
// branch of the Prometheus renderer.
std::vector<obs::MetricSnapshot> FixedSnapshots() {
  std::vector<obs::MetricSnapshot> out;
  obs::MetricSnapshot threads;
  threads.name = threads.family = "osd_engine_threads";
  threads.help = "Worker threads executing queries.";
  threads.type = obs::MetricType::kGauge;
  threads.value = 8.0;
  out.push_back(threads);

  // The result cache exposes three counters and a gauge under the names of
  // the profile cache it replaced; all four ride the standard renderer
  // branches, and pinning them here keeps the exposition names a
  // wire-format commitment.
  obs::MetricSnapshot cache_bytes;
  cache_bytes.name = cache_bytes.family = "osd_profile_cache_bytes";
  cache_bytes.help = "Resident profile-cache bytes.";
  cache_bytes.type = obs::MetricType::kGauge;
  cache_bytes.value = 65536.0;
  out.push_back(cache_bytes);

  obs::MetricSnapshot cache_evictions;
  cache_evictions.name = cache_evictions.family =
      "osd_profile_cache_evictions_total";
  cache_evictions.help = "Profile-cache LRU evictions.";
  cache_evictions.type = obs::MetricType::kCounter;
  cache_evictions.value = 3.0;
  out.push_back(cache_evictions);

  obs::MetricSnapshot cache_hits = cache_evictions;
  cache_hits.name = cache_hits.family = "osd_profile_cache_hits_total";
  cache_hits.help = "Profile-cache hits.";
  cache_hits.value = 512.0;
  out.push_back(cache_hits);

  obs::MetricSnapshot cache_misses = cache_evictions;
  cache_misses.name = cache_misses.family = "osd_profile_cache_misses_total";
  cache_misses.help = "Profile-cache misses.";
  cache_misses.value = 64.0;
  out.push_back(cache_misses);

  obs::MetricSnapshot err;
  err.name = "osd_queries_total{status=\"error\"}";
  err.family = "osd_queries_total";
  err.help = "Completed queries by terminal status.";
  err.type = obs::MetricType::kCounter;
  err.value = 2.0;
  out.push_back(err);

  obs::MetricSnapshot ok = err;
  ok.name = "osd_queries_total{status=\"ok\"}";
  ok.value = 1234.0;
  out.push_back(ok);

  obs::MetricSnapshot lat;
  lat.name = lat.family = "osd_query_latency_seconds";
  lat.help = "End-to-end query latency.";
  lat.type = obs::MetricType::kHistogram;
  lat.count = 4;
  lat.invalid = 1;
  lat.sum = 0.004127;
  lat.buckets.assign(obs::kLatencyBuckets, 0);
  lat.buckets[0] = 1;
  lat.buckets[5] = 2;
  lat.buckets[11] = 1;
  out.push_back(lat);
  return out;  // already sorted by name, as Collect() guarantees
}

// Golden-file test: the Prometheus text exposition is a wire format
// consumed by external scrapers, so its exact bytes are pinned. Regenerate
// with OSD_UPDATE_GOLDEN=1 after an intentional format change and review
// the diff.
TEST(ExportTest, PrometheusExpositionMatchesGoldenFile) {
  const std::string rendered = obs::RenderPrometheusMetrics(FixedSnapshots());
  const std::string path =
      std::string(OSD_TEST_GOLDEN_DIR) + "/obs_metrics.prom";
  if (std::getenv("OSD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with OSD_UPDATE_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(rendered, buffer.str())
      << "Prometheus exposition drifted from the golden file; if the "
         "change is intentional rerun with OSD_UPDATE_GOLDEN=1.\nActual:\n"
      << rendered;
}

TEST(ExportTest, PrometheusExpositionStructure) {
  const std::string text = obs::RenderPrometheusMetrics(FixedSnapshots());
  // One HELP/TYPE header per family, in name order.
  EXPECT_NE(text.find("# HELP osd_engine_threads"), std::string::npos);
  EXPECT_NE(text.find("# TYPE osd_engine_threads gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE osd_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE osd_query_latency_seconds histogram"),
            std::string::npos);
  // Labeled samples under one family share one header.
  EXPECT_EQ(text.find("# TYPE osd_queries_total counter"),
            text.rfind("# TYPE osd_queries_total counter"));
  EXPECT_NE(text.find("osd_queries_total{status=\"ok\"} 1234\n"),
            std::string::npos);
  // Histogram series: cumulative buckets, +Inf, sum, count, and the
  // invalid-observation side counter.
  EXPECT_NE(text.find("osd_query_latency_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("osd_query_latency_seconds_sum 0.004127\n"),
            std::string::npos);
  EXPECT_NE(text.find("osd_query_latency_seconds_count 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("osd_query_latency_seconds_invalid_total 1\n"),
            std::string::npos);
  // Cumulative check: the last finite bucket equals the total count.
  EXPECT_NE(text.find("_bucket{le=\"2.19902e+06\"} 4\n"), std::string::npos);
}

TEST(ExportTest, JsonRenderingIsSparseAndTyped) {
  const std::string json = obs::RenderJsonMetrics(FixedSnapshots());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"osd_engine_threads\":{\"type\":\"gauge\","
                      "\"value\":8}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"osd_queries_total{status=\\\"ok\\\"}\":"
                      "{\"type\":\"counter\",\"value\":1234}"),
            std::string::npos)
      << json;
  // Histogram: only occupied buckets as [upper_seconds, n] pairs.
  EXPECT_NE(json.find("\"count\":4,\"invalid\":1,\"sum\":0.004127"),
            std::string::npos);
  EXPECT_NE(json.find("[1e-06,1]"), std::string::npos);
  EXPECT_NE(json.find("[3.2e-05,2]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Slow-query log.
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, DisabledLogRecordsNothing) {
  obs::SlowQueryLog log(0.0, 4);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.ShouldRecord(100.0));
  log.Record(100.0, "{\"x\":1}");
  EXPECT_EQ(log.recorded_total(), 0);
  EXPECT_NE(log.DumpJson().find("\"entries\":[]"), std::string::npos);
}

TEST(SlowQueryLogTest, KeepsSlowestUpToCapacitySlowestFirst) {
  obs::SlowQueryLog log(0.010, 3);
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.ShouldRecord(0.005));
  const double latencies[] = {0.020, 0.050, 0.030, 0.040, 0.015, 0.060};
  for (double l : latencies) {
    char entry[64];
    std::snprintf(entry, sizeof(entry), "{\"ms\":%.0f}", l * 1e3);
    log.Record(l, entry);
  }
  EXPECT_EQ(log.recorded_total(), 6);
  const std::string dump = log.DumpJson();
  // Capacity 3 keeps 60, 50, 40ms in that order; the rest were evicted.
  EXPECT_NE(dump.find("\"entries\":[{\"ms\":60},{\"ms\":50},{\"ms\":40}]"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"threshold_ms\":10.0000"), std::string::npos);
  EXPECT_NE(dump.find("\"recorded_total\":6"), std::string::npos);
}

TEST(SlowQueryLogTest, SubThresholdRecordIsIgnored) {
  obs::SlowQueryLog log(0.010, 2);
  log.Record(0.001, "{\"fast\":true}");
  EXPECT_EQ(log.recorded_total(), 0);
}

// ---------------------------------------------------------------------------
// Engine stats regressions.
// ---------------------------------------------------------------------------

// Regression: LatencyHistogram::Add fed NaN through std::max into
// std::log2, and the float-to-int cast of the NaN result is undefined
// behaviour. Non-finite samples must land in invalid() and leave the
// buckets and moments untouched.
TEST(EngineStatsRegression, HistogramAddRejectsNonFiniteSamples) {
  obs::LatencyHistogram hist;
  hist.Add(1e-3);
  hist.Add(std::numeric_limits<double>::quiet_NaN());
  hist.Add(std::numeric_limits<double>::infinity());
  hist.Add(-std::numeric_limits<double>::infinity());
  hist.Add(2e-3);
  EXPECT_EQ(hist.count(), 2);
  EXPECT_EQ(hist.invalid(), 3);
  EXPECT_NEAR(hist.mean_seconds(), 1.5e-3, 1e-12);
  EXPECT_NEAR(hist.min_seconds(), 1e-3, 1e-12);
  EXPECT_NEAR(hist.max_seconds(), 2e-3, 1e-12);
  long total = 0;
  for (long b : hist.buckets()) total += b;
  EXPECT_EQ(total, 2);
  // Quantiles stay inside the observed range — no inf/NaN poisoning.
  EXPECT_TRUE(std::isfinite(hist.Quantile(0.5)));
  EXPECT_LE(hist.Quantile(0.99), 2e-3 + 1e-12);
}

// Regression: EngineStats::ToJson built each piece with snprintf into a
// fixed stack buffer and appended without checking the return value, so
// large counter values silently truncated the JSON mid-token. With every
// counter maxed the output must still be complete and balanced.
TEST(EngineStatsRegression, ToJsonSurvivesMaxedCounters) {
  EngineStats s;
  s.threads = INT_MAX;
  s.submitted = s.completed = s.ok = s.ok_degraded = LONG_MAX;
  s.deadline_exceeded = s.cancelled = s.errors = s.rejected = LONG_MAX;
  s.wall_seconds = 1e17;
  s.qps = 1e17;
  s.latency_mean_ms = s.latency_p50_ms = s.latency_p95_ms = 1e17;
  s.latency_p99_ms = s.latency_max_ms = 1e17;
  s.latency_invalid = LONG_MAX;
  for (int i = 0; i < 500; ++i) s.latency_histogram.Add(1e-3 * i);
  s.filters.dist_evals = s.filters.scan_steps = LONG_MAX / 4;
  s.filters.pair_tests = LONG_MAX / 4;
  s.filters.node_ops = s.filters.flow_runs = LONG_MAX;
  s.filters.mbr_validations = s.filters.stat_prunes = LONG_MAX;
  s.filters.stat_validations = LONG_MAX;
  s.filters.cover_prunes = s.filters.exact_checks = LONG_MAX;
  s.filters.dominance_checks = LONG_MAX;
  s.objects_examined = s.entries_pruned = s.frontier_objects = LONG_MAX;
  for (auto& op : s.per_operator) {
    op.queries = op.candidates = LONG_MAX;
    op.busy_seconds = 1e17;
  }

  const std::string json = s.ToJson();
  // Balanced braces/brackets — truncation would break the nesting.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.back(), '}');
  // Every maxed long must appear fully printed.
  char maxed[32];
  std::snprintf(maxed, sizeof(maxed), "%ld", LONG_MAX);
  EXPECT_NE(json.find(std::string("\"submitted\":") + maxed),
            std::string::npos);
  EXPECT_NE(json.find(std::string("\"dominance_checks\":") + maxed),
            std::string::npos);
  EXPECT_NE(json.find(std::string("\"frontier_objects\":") + maxed),
            std::string::npos);
  EXPECT_NE(json.find("\"invalid\":") , std::string::npos);
  // The per-operator block survives too (5 operators, all maxed).
  EXPECT_NE(json.find("\"operators\":{"), std::string::npos);
  EXPECT_NE(json.find(std::string("\"queries\":") + maxed),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

Dataset SmallDataset(int num_objects = 200, uint64_t seed = 17) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 5;
  p.seed = seed;
  return GenerateSynthetic(p);
}

std::vector<QueryWorkloadEntry> SmallWorkload(const Dataset& dataset, int n,
                                              uint64_t seed = 23) {
  WorkloadParams wp;
  wp.num_queries = n;
  wp.query_instances = 4;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp);
}

TEST(EngineObsTest, CollectTraceFillsTicketTrace) {
  QueryEngine engine(SmallDataset(), {.num_threads = 2});
  const auto workload = SmallWorkload(engine.dataset(), 4);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec;
    spec.query = workload[i].query;
    spec.options.op = Operator::kSSd;
    spec.collect_trace = (i % 2 == 0);  // alternate traced / untraced
    tickets.push_back(engine.Submit(std::move(spec)));
  }
  engine.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(tickets[i]->Wait(), QueryStatus::kOk);
    if (i % 2 != 0) {
      EXPECT_EQ(tickets[i]->trace(), nullptr);
      continue;
    }
    const obs::Trace* trace = tickets[i]->trace();
    ASSERT_NE(trace, nullptr);
    const std::string json = trace->ToJson();
    EXPECT_NE(json.find("\"termination\":\"complete\""), std::string::npos)
        << json;
#if defined(OSD_TRACING_ENABLED)
    // The traversal span and at least one dominance check must have been
    // recorded when the span sites are compiled in.
    const auto& agg = trace->aggregates();
    EXPECT_GE(agg[static_cast<int>(obs::SpanKind::kTraversal)].count, 1);
    EXPECT_GE(agg[static_cast<int>(obs::SpanKind::kDominanceCheck)].count, 1);
#endif
  }
}

TEST(EngineObsTest, MetricsTextExposesQueryCounters) {
  QueryEngine engine(SmallDataset(), {.num_threads = 2});
  const auto workload = SmallWorkload(engine.dataset(), 6);
  std::vector<QuerySpec> specs;
  for (const auto& entry : workload) {
    QuerySpec spec;
    spec.query = entry.query;
    spec.options.op = Operator::kSSd;
    specs.push_back(std::move(spec));
  }
  engine.SubmitBatch(std::move(specs));
  engine.Drain();

  const std::string text = engine.MetricsText();
  EXPECT_NE(text.find("# TYPE osd_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("osd_queries_total{status=\"ok\"} 6\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("osd_operator_queries_total{op=\"SSD\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("osd_query_latency_seconds_count 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("osd_engine_threads 2\n"), std::string::npos);

  // The same counters ride along in the stats snapshot and its JSON.
  const EngineStats stats = engine.Snapshot();
  ASSERT_FALSE(stats.metrics.empty());
  bool found = false;
  for (const auto& m : stats.metrics) {
    if (m.name == "osd_queries_total{status=\"ok\"}") {
      EXPECT_EQ(m.value, 6.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(stats.ToJson().find("\"metrics\":{"), std::string::npos);
  // Engine-level accounting and metrics agree.
  EXPECT_EQ(stats.ok, 6);
}

TEST(EngineObsTest, SlowQueryLogCapturesOverThresholdQueries) {
  // Threshold ~0: every completion qualifies.
  QueryEngine engine(SmallDataset(),
                     {.num_threads = 2,
                      .slow_query_threshold_ms = 1e-6,
                      .slow_query_log_capacity = 3});
  const auto workload = SmallWorkload(engine.dataset(), 5);
  for (const auto& entry : workload) {
    QuerySpec spec;
    spec.query = entry.query;
    spec.options.op = Operator::kSSd;
    spec.collect_trace = true;
    engine.Submit(std::move(spec));
  }
  engine.Drain();
  EXPECT_EQ(engine.slow_query_log().recorded_total(), 5);
  const std::string dump = engine.SlowQueryDump();
  EXPECT_NE(dump.find("\"recorded_total\":5"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(dump.find("\"op\":\"SSD\""), std::string::npos);
  // Traced queries embed their trace in the log entry.
  EXPECT_NE(dump.find("\"trace\":{"), std::string::npos);
  // Capacity 3 caps the retained entries.
  size_t entries = 0;
  for (size_t pos = dump.find("\"latency_ms\""); pos != std::string::npos;
       pos = dump.find("\"latency_ms\"", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 3u);
}

TEST(EngineObsTest, UntracedQueriesLeaveMetricsConsistentUnderConcurrency) {
  // Many queries on several threads with the result cache on, plus one
  // cancelled ticket; then every engine series must equal the EngineStats
  // field it is rendered from. Runs under TSan via the tsan ctest label.
  QueryEngine engine(SmallDataset(120, 29), {.num_threads = 4,
                                             .shed_on_overload = true,
                                             .profile_cache_bytes = 8 << 20});
  const auto workload = SmallWorkload(engine.dataset(), 32, 31);
  const auto psd = [](const UncertainObject& query) {
    QuerySpec spec;
    spec.query = query;
    spec.options.op = Operator::kPSd;
    return spec;
  };
  // Four blockers hold every worker in their terminal hook, so the victim
  // queued behind them is cancelled before a worker can start it. The
  // batch repeats their four queries, and a third round of them hits the
  // result cache too.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 4; ++i) {
    QuerySpec blocker = psd(workload[i].query);
    blocker.on_finish = [open](const QueryTicket&) { open.wait(); };
    tickets.push_back(engine.Submit(std::move(blocker)));
  }
  auto victim = engine.Submit(psd(workload[4].query));
  victim->Cancel();
  std::vector<QuerySpec> specs;
  for (const auto& entry : workload) specs.push_back(psd(entry.query));
  for (auto& t : engine.SubmitBatch(std::move(specs))) tickets.push_back(t);
  gate.set_value();
  EXPECT_EQ(victim->Wait(), QueryStatus::kCancelled);
  for (auto& t : tickets) EXPECT_EQ(t->Wait(), QueryStatus::kOk);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.Submit(psd(workload[i].query))->Wait(), QueryStatus::kOk);
  }

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.ok, 40);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_GT(stats.profile_cache_hits, 0);
  std::map<std::string, const obs::MetricSnapshot*> by_name;
  for (const auto& m : stats.metrics) by_name[m.name] = &m;
  const auto value = [&by_name](const std::string& name) {
    const auto it = by_name.find(name);
    EXPECT_NE(it, by_name.end()) << "missing series " << name;
    return it == by_name.end() ? -1.0 : it->second->value;
  };
  const std::pair<const char*, long> statuses[] = {
      {"ok", stats.ok},
      {"deadline_exceeded", stats.deadline_exceeded},
      {"cancelled", stats.cancelled},
      {"error", stats.errors},
      {"ok_degraded", stats.ok_degraded},
      {"rejected", stats.rejected},
  };
  for (const auto& [label, n] : statuses) {
    EXPECT_EQ(value(std::string("osd_queries_total{status=\"") + label +
                    "\"}"),
              n)
        << label;
  }
  long candidates = 0;
  for (int op = 0; op < 5; ++op) {
    candidates += stats.per_operator[op].candidates;
    EXPECT_EQ(value(std::string("osd_operator_queries_total{op=\"") +
                    OperatorName(static_cast<Operator>(op)) + "\"}"),
              stats.per_operator[op].queries);
  }
  EXPECT_EQ(value("osd_candidates_total"), candidates);
  EXPECT_EQ(value("osd_dominance_checks_total"),
            stats.filters.dominance_checks);
  EXPECT_EQ(value("osd_instance_comparisons_total"),
            stats.filters.InstanceComparisons());
  EXPECT_EQ(value("osd_flow_runs_total"), stats.filters.flow_runs);
  EXPECT_EQ(value("osd_objects_examined_total"), stats.objects_examined);
  EXPECT_EQ(value("osd_entries_pruned_total"), stats.entries_pruned);
  EXPECT_EQ(value("osd_frontier_objects_total"), stats.frontier_objects);
  EXPECT_EQ(value("osd_mem_breaches_total"), stats.mem_breaches);
  EXPECT_EQ(value("osd_mem_admission_rejected_total"),
            stats.mem_admission_rejected);
  EXPECT_EQ(value("osd_bad_allocs_total"), stats.bad_allocs);
  EXPECT_EQ(value("osd_profile_cache_hits_total"), stats.profile_cache_hits);
  EXPECT_EQ(value("osd_profile_cache_misses_total"),
            stats.profile_cache_misses);
  EXPECT_EQ(value("osd_profile_cache_evictions_total"),
            stats.profile_cache_evictions);
  EXPECT_EQ(value("osd_profile_cache_bytes"), stats.profile_cache_bytes);
  EXPECT_EQ(value("osd_engine_threads"), 4.0);

  const auto latency = by_name.find("osd_query_latency_seconds");
  ASSERT_NE(latency, by_name.end());
  const obs::MetricSnapshot& hist = *latency->second;
  EXPECT_EQ(hist.count, stats.latency_histogram.count());
  EXPECT_EQ(hist.count, 41);
  EXPECT_EQ(hist.invalid, stats.latency_invalid);
  EXPECT_EQ(hist.buckets,
            std::vector<long>(stats.latency_histogram.buckets().begin(),
                              stats.latency_histogram.buckets().end()));
}

}  // namespace
}  // namespace osd
