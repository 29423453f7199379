#include "engine/engine_stats.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/export.h"

namespace osd {

namespace {

// Printf-append that never truncates: outputs longer than the stack buffer
// re-render into a heap buffer sized from the snprintf return value. The
// stack buffer is deliberately small so the growth path stays exercised by
// ordinary stats (the `memory` block alone can exceed it).
void Append(std::string* out, const char* fmt, auto... args) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n < 0) return;  // encoding error: drop the piece, keep the JSON valid
  if (n < static_cast<int>(sizeof(buf))) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::vector<char> big(static_cast<size_t>(n) + 1);
  std::snprintf(big.data(), big.size(), fmt, args...);
  out->append(big.data(), static_cast<size_t>(n));
}

}  // namespace

std::vector<obs::MetricSnapshot> EngineMetrics(const EngineStats& s) {
  std::vector<obs::MetricSnapshot> out;
  const auto counter = [&out](std::string name, const char* help, long v) {
    out.push_back(obs::ScalarSnapshot(std::move(name), help,
                                      obs::MetricType::kCounter,
                                      static_cast<double>(v)));
  };
  const auto gauge = [&out](std::string name, const char* help, double v) {
    out.push_back(obs::ScalarSnapshot(std::move(name), help,
                                      obs::MetricType::kGauge, v));
  };
  const std::pair<const char*, long> by_status[] = {
      {"ok", s.ok},
      {"deadline_exceeded", s.deadline_exceeded},
      {"cancelled", s.cancelled},
      {"error", s.errors},
      {"ok_degraded", s.ok_degraded},
      {"rejected", s.rejected},
  };
  for (const auto& [label, n] : by_status) {
    counter(std::string("osd_queries_total{status=\"") + label + "\"}",
            "Completed queries by terminal status", n);
  }
  long candidates = 0;
  for (int op = 0; op < static_cast<int>(s.per_operator.size()); ++op) {
    candidates += s.per_operator[op].candidates;
    counter(std::string("osd_operator_queries_total{op=\"") +
                OperatorName(static_cast<Operator>(op)) + "\"}",
            "Completed queries by dominance operator",
            s.per_operator[op].queries);
  }
  obs::MetricSnapshot latency;
  latency.name = latency.family = "osd_query_latency_seconds";
  latency.help = "End-to-end query latency (seconds)";
  latency.type = obs::MetricType::kHistogram;
  latency.count = s.latency_histogram.count();
  latency.invalid = s.latency_histogram.invalid();
  latency.sum = s.latency_histogram.sum_seconds();
  latency.buckets.assign(s.latency_histogram.buckets().begin(),
                         s.latency_histogram.buckets().end());
  out.push_back(std::move(latency));
  counter("osd_candidates_total", "Summed result-set sizes", candidates);
  counter("osd_dominance_checks_total", "Dominance oracle invocations",
          s.filters.dominance_checks);
  counter("osd_instance_comparisons_total",
          "Instance-level comparison work units",
          s.filters.InstanceComparisons());
  counter("osd_flow_runs_total", "Max-flow computations", s.filters.flow_runs);
  counter("osd_objects_examined_total", "Objects reaching the dominance check",
          s.objects_examined);
  counter("osd_entries_pruned_total", "R-tree entries discarded via MBR covers",
          s.entries_pruned);
  counter("osd_frontier_objects_total",
          "Frontier objects returned unrefined in degraded answers",
          s.frontier_objects);
  gauge("osd_engine_threads", "Worker thread count", s.threads);
  counter("osd_mem_breaches_total",
          "Queries that hit a per-query or engine-wide memory budget",
          s.mem_breaches);
  counter("osd_mem_admission_rejected_total",
          "Submissions rejected by memory high-water admission control",
          s.mem_admission_rejected);
  counter("osd_bad_allocs_total",
          "std::bad_alloc exceptions contained at the worker boundary",
          s.bad_allocs);
  gauge("osd_mem_engine_bytes", "Engine-wide charged query memory (bytes)",
        static_cast<double>(s.mem_current_bytes));
  gauge("osd_mem_engine_peak_bytes",
        "Peak engine-wide charged query memory (bytes)",
        static_cast<double>(s.mem_peak_bytes));
  if (s.profile_cache_cap_bytes > 0) {
    counter("osd_profile_cache_hits_total",
            "Result-cache lookups answered from a stored result",
            s.profile_cache_hits);
    counter("osd_profile_cache_misses_total",
            "Result-cache lookups that fell through to a search",
            s.profile_cache_misses);
    counter("osd_profile_cache_evictions_total",
            "Result-cache entries evicted (LRU capacity pressure)",
            s.profile_cache_evictions);
    gauge("osd_profile_cache_bytes", "Resident result-cache bytes",
          static_cast<double>(s.profile_cache_bytes));
  }
  std::sort(out.begin(), out.end(),
            [](const obs::MetricSnapshot& a, const obs::MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string EngineStats::ToJson() const {
  std::string out = "{";
  Append(&out, "\"threads\":%d", threads);
  Append(&out, ",\"submitted\":%ld", submitted);
  Append(&out, ",\"completed\":%ld", completed);
  Append(&out, ",\"executed\":%ld", executed);
  Append(&out, ",\"ok\":%ld", ok);
  Append(&out, ",\"ok_degraded\":%ld", ok_degraded);
  Append(&out, ",\"deadline_exceeded\":%ld", deadline_exceeded);
  Append(&out, ",\"cancelled\":%ld", cancelled);
  Append(&out, ",\"errors\":%ld", errors);
  Append(&out, ",\"rejected\":%ld", rejected);
  out += ",\"retries\":0";  // queries never retry; osdbench reads the key
  Append(&out, ",\"wall_seconds\":%.6f", wall_seconds);
  Append(&out, ",\"qps\":%.2f", qps);
  Append(&out,
         ",\"latency_ms\":{\"mean\":%.4f,\"p50\":%.4f,\"p95\":%.4f,"
         "\"p99\":%.4f,\"max\":%.4f,\"invalid\":%ld}",
         latency_mean_ms, latency_p50_ms, latency_p95_ms, latency_p99_ms,
         latency_max_ms, latency_invalid);
  // Sparse histogram dump: only occupied buckets, as [upper_bound_ms, n].
  out += ",\"latency_buckets\":[";
  {
    bool first_bucket = true;
    for (int b = 0; b < obs::kLatencyBuckets; ++b) {
      const long n = latency_histogram.buckets()[b];
      if (n == 0) continue;
      Append(&out, "%s[%.4f,%ld]", first_bucket ? "" : ",",
             obs::LatencyBucketUpperSeconds(b) * 1e3, n);
      first_bucket = false;
    }
  }
  out += "]";
  out += ",\"work\":{";
  filters.AppendJson(&out);
  Append(&out,
         ",\"objects_examined\":%ld,\"entries_pruned\":%ld,"
         "\"frontier_objects\":%ld}",
         objects_examined, entries_pruned, frontier_objects);
  Append(&out,
         ",\"memory\":{\"breaches\":%ld,\"admission_rejected\":%ld,"
         "\"bad_allocs\":%ld,\"current_bytes\":%ld,\"peak_bytes\":%ld,"
         "\"engine_cap_bytes\":%ld,\"per_query_cap_bytes\":%ld}",
         mem_breaches, mem_admission_rejected, bad_allocs, mem_current_bytes,
         mem_peak_bytes, mem_engine_cap_bytes, mem_per_query_cap_bytes);
  Append(&out,
         ",\"profile_cache\":{\"hits\":%ld,\"misses\":%ld,\"evictions\":%ld,"
         "\"bytes\":%ld,\"cap_bytes\":%ld}",
         profile_cache_hits, profile_cache_misses, profile_cache_evictions,
         profile_cache_bytes, profile_cache_cap_bytes);
  out += ",\"operators\":{";
  bool first = true;
  for (int i = 0; i < static_cast<int>(per_operator.size()); ++i) {
    const OperatorStats& op = per_operator[i];
    if (op.queries == 0) continue;
    if (!first) out += ",";
    first = false;
    Append(&out,
           "\"%s\":{\"queries\":%ld,\"candidates\":%ld,"
           "\"busy_seconds\":%.6f,\"qps\":%.2f}",
           OperatorName(static_cast<Operator>(i)), op.queries, op.candidates,
           op.busy_seconds, op.Qps());
  }
  out += "}";
  if (!metrics.empty()) {
    out += ",\"metrics\":" + obs::RenderJsonMetrics(metrics);
  }
  out += "}";
  return out;
}

}  // namespace osd
