// Cross-query observability for the batch query engine.
//
// The engine records one completion event per query (terminal status,
// end-to-end latency, per-operator work counters). EngineStats is the
// JSON-serializable snapshot the engine exports: status counts, overall
// throughput, latency percentiles from a log2-bucketed histogram, summed
// FilterStats / prune counters, and per-operator throughput.
//
// All latencies are steady_clock durations (see NncResult), so the
// percentiles are immune to wall-clock adjustments.

#ifndef OSD_ENGINE_ENGINE_STATS_H_
#define OSD_ENGINE_ENGINE_STATS_H_

#include <array>
#include <string>
#include <vector>

#include "core/filter_config.h"
#include "obs/metrics.h"

namespace osd {

/// Work and throughput of one operator across all its completed queries.
struct OperatorStats {
  long queries = 0;
  long candidates = 0;        ///< summed result-set sizes
  double busy_seconds = 0.0;  ///< summed per-query traversal seconds

  /// Queries per second of traversal compute (per-core throughput).
  double Qps() const { return busy_seconds > 0 ? queries / busy_seconds : 0; }
};

/// One immutable snapshot of the engine's counters.
struct EngineStats {
  int threads = 0;
  long submitted = 0;
  long completed = 0;  ///< reached any terminal state
  long executed = 0;   ///< completed minus rejected — tickets that actually
                       ///< ran a traversal (throughput denominators use this;
                       ///< shed tickets must never inflate QPS)
  long ok = 0;
  long ok_degraded = 0;  ///< anytime superset answers (kOkDegraded)
  long deadline_exceeded = 0;
  long cancelled = 0;
  long errors = 0;
  long rejected = 0;  ///< shed at submission (kRejected); excluded from the
                      ///< latency percentiles — they never ran
  long stalled = 0;   ///< killed by the watchdog past their hard wall-clock
                      ///< limit (kStalled)
  long workers_poisoned = 0;  ///< pool workers poisoned (and respawned) by
                              ///< the watchdog for running a stalled query
  long retries = 0;   ///< transient-failure re-attempts across all queries

  /// First submission to latest completion (steady_clock), seconds.
  double wall_seconds = 0.0;
  /// executed / wall_seconds — the engine-level throughput. Rejected
  /// (shed) tickets are excluded: they never ran, so counting them would
  /// make an overloaded engine look faster the more it sheds.
  double qps = 0.0;

  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Non-finite latency samples rejected by the histogram (see
  /// obs::LatencyHistogram::invalid()); always 0 on a healthy clock.
  long latency_invalid = 0;
  /// The raw latency histogram, for metrics export.
  obs::LatencyHistogram latency_histogram;

  /// Summed across completed queries.
  FilterStats filters;
  long objects_examined = 0;
  long entries_pruned = 0;
  /// Frontier objects returned unrefined in degraded answers — how much
  /// certification work the deadlines left undone.
  long frontier_objects = 0;

  // Memory governance (see common/memory_budget.h).
  long mem_breaches = 0;            ///< queries that hit a memory budget
  long mem_admission_rejected = 0;  ///< submissions shed at the high-water mark
  long bad_allocs = 0;       ///< std::bad_alloc contained at worker boundary
  long mem_current_bytes = 0;  ///< engine-wide charged bytes at snapshot time
  long mem_peak_bytes = 0;     ///< engine-wide peak charged bytes
  long mem_engine_cap_bytes = 0;     ///< configured cap; 0 = unlimited
  long mem_per_query_cap_bytes = 0;  ///< configured per-query cap; 0 = none

  // Cross-query profile cache (core/profile_cache.h); all zero when the
  // cache is disabled (profile_cache_cap_bytes == 0).
  long profile_cache_hits = 0;
  long profile_cache_misses = 0;
  long profile_cache_evictions = 0;        ///< capacity (LRU) evictions
  long profile_cache_stale_evictions = 0;  ///< lazily dropped on epoch change
  /// Lookups where a stale-epoch entry reached the final epoch guard and
  /// was refused; always 0 — any other value is an invariant violation
  /// (the chaos harness asserts this across mutating soaks).
  long profile_cache_stale_serves_averted = 0;
  long profile_cache_bytes = 0;      ///< resident bytes at snapshot time
  long profile_cache_cap_bytes = 0;  ///< configured capacity; 0 = disabled

  /// Indexed by static_cast<int>(Operator).
  std::array<OperatorStats, 5> per_operator{};

  /// EngineMetrics(*this), filled by QueryEngine::Snapshot. Rendered into
  /// ToJson under "metrics" and as Prometheus text by
  /// QueryEngine::MetricsText.
  std::vector<obs::MetricSnapshot> metrics;

  /// Single-line JSON object with all of the above.
  std::string ToJson() const;
};

/// The engine's Prometheus series, sorted by name, each read from the
/// EngineStats field it exports: status and operator counts, the latency
/// histogram, work, retry and memory counters, and — when the profile
/// cache is on (profile_cache_cap_bytes > 0) — its hits, misses,
/// evictions and bytes. osd_candidates_total sums per_operator[].candidates
/// and osd_instance_comparisons_total is filters.InstanceComparisons().
std::vector<obs::MetricSnapshot> EngineMetrics(const EngineStats& stats);

}  // namespace osd

#endif  // OSD_ENGINE_ENGINE_STATS_H_
