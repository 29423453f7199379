// Concurrent NNC query engine.
//
// A QueryEngine owns a versioned store (object/versioned_dataset.h),
// seeded at epoch 0 with the Dataset it is constructed from, and executes
// NNC queries against it on a fixed-size ThreadPool with a bounded
// submission queue. Each query pins the store's current epoch at Submit
// and runs against that snapshot. Each submitted query yields a
// QueryTicket; per-query deadlines and cancellation are plumbed into the
// traversal through the QueryControl hook in NncOptions and are honoured
// at heap pops, so even a mid-flight query stops within a bounded amount
// of work. Every query runs once: an exception thrown by it lands on its
// ticket as kError and never kills a worker.
//
// Resilience: with shed_on_overload the engine rejects (kRejected) rather
// than blocks when the queue saturates, and queries run with
// NncOptions::degraded_superset return certified superset answers
// (kOkDegraded) when a deadline or cancellation stops them mid-traversal.
//
// Memory governance: per_query_mem_bytes installs a memory budget scope
// around each execution, so one query's allocations are bounded; a breach
// degrades the query (with degraded_superset) or fails it with a precise
// MemoryExceeded message, never the process. engine_mem_bytes adds
// an engine-wide cap with high-water admission control at Submit, and a
// std::bad_alloc escaping a query is contained at the worker boundary
// (kError with an "out of memory" message; the pool survives).
//
// Determinism: NncSearch::Run is deterministic in its inputs and workers
// share only immutable snapshot state, so a workload executed on N threads
// returns candidate sets bit-identical to serial execution — only timing
// fields differ. Every query is one pool task that runs Execute.
//
// Result cache (engine/result_cache.h, DESIGN.md §15): with
// profile_cache_bytes > 0, Execute answers a repeat of a complete query at
// the epoch it ran at from the stored answer, replaying its emissions in
// their stored order, so a hit returns exactly what a search would.
//
// Thread-safety: Submit / SubmitBatch / Drain / Snapshot may be called
// from any thread. Destruction drains outstanding queries first.

#ifndef OSD_ENGINE_QUERY_ENGINE_H_
#define OSD_ENGINE_QUERY_ENGINE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "core/nnc_search.h"
#include "engine/engine_stats.h"
#include "engine/query_ticket.h"
#include "engine/result_cache.h"
#include "engine/thread_pool.h"
#include "object/dataset.h"
#include "object/versioned_dataset.h"
#include "obs/export.h"

namespace osd {

/// Engine construction parameters.
struct EngineOptions {
  /// Worker count; <= 0 selects std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Bounded submission queue; Submit blocks when full (backpressure).
  size_t queue_capacity = 4096;
  /// Overload shedding: when true, a Submit that finds the submission
  /// queue saturated fails the ticket fast with QueryStatus::kRejected
  /// instead of blocking the submitter (load-shedding service contract).
  bool shed_on_overload = false;
  /// Slow-query log: completions at least this slow (end-to-end) are kept
  /// as JSON entries, slowest first, up to slow_query_log_capacity.
  /// <= 0 disables the log.
  double slow_query_threshold_ms = 0.0;
  int slow_query_log_capacity = 16;
  /// Per-query memory cap, bytes; <= 0 disables it. Each worker installs a
  /// memory::QueryBudgetScope with this cap around NncSearch::Run, so a
  /// query whose frontier/profile/flow allocations pass the cap fails (or
  /// degrades — see NncOptions::degraded_superset) by itself instead of
  /// OOM-killing the process.
  long per_query_mem_bytes = 0;
  /// Engine-wide memory cap across all in-flight queries, bytes; <= 0
  /// disables it. Scopes draw on it in chunks; when the charged total
  /// passes mem_high_water_fraction of the cap, Submit applies admission
  /// control — kRejected under shed_on_overload, otherwise the submitter
  /// blocks until usage falls below the high-water mark.
  long engine_mem_bytes = 0;
  /// High-water fraction of engine_mem_bytes at which admission control
  /// engages; clamped to [0, 1].
  double mem_high_water_fraction = 0.9;

  /// Background fold policy for the versioned store (see
  /// object/versioned_dataset.h): fold when the delta reaches
  /// fold_delta_threshold mutations, and/or every fold_interval_s seconds
  /// while the delta is non-empty. Both <= 0 (the default) disables the
  /// fold thread; mutations still work, and the store's synchronous fold
  /// backstop (VersionedDataset::kDefaultFoldBackstop un-folded ops) still
  /// bounds the mutation log and its budget charges.
  double fold_interval_s = 0.0;
  int fold_delta_threshold = 0;

  /// Capacity of the engine-wide result cache, bytes; <= 0 (the default)
  /// disables it (see engine/result_cache.h and DESIGN.md §15; the name
  /// predates the cache, which replaced a profile cache). A hit returns the
  /// candidates, emission order and termination of the run it stored. Hits
  /// read zero work counters (no work ran), and queries with
  /// collect_trace skip the lookup. Resident entries are charged against
  /// the engine memory budget and evicted LRU under pressure; every byte
  /// drains on Drain().
  long profile_cache_bytes = 0;
};

/// One query to execute: the query object, its NNC options and an optional
/// relative deadline. `options.control` is
/// engine-managed; any caller-provided value is ignored. Set
/// `options.degraded_superset` to turn deadline/cancel terminations into
/// kOkDegraded superset answers instead of partial sets.
struct QuerySpec {
  UncertainObject query;
  NncOptions options;
  /// End-to-end budget from submission, seconds; <= 0 means none.
  double deadline_seconds = 0.0;
  /// Alternative to `query`: >= 0 names the *external id*
  /// (UncertainObject::id()) of a store object to use as the query.
  /// External ids are stable across epochs — unlike snapshot indices,
  /// which compact on every fold — so resolving on the worker against the
  /// pinned snapshot is exact no matter how many writes or folds land
  /// between a caller's precheck and execution. An id with no live object
  /// at the pinned epoch fails the ticket with a precise kError — never
  /// an abort, never a silently re-mapped object. Resolution also sets
  /// `options.exclude_id` to the resolved snapshot index (Definition 6: a
  /// dataset object never competes with itself). `query` is ignored when
  /// this is set.
  int query_object_id = -1;
  /// Engine-managed: the epoch snapshot this query runs against, pinned at
  /// Submit (after admission control) and released on the worker before
  /// the ticket's terminal hook can be observed by Drain. Any caller-set
  /// value is overwritten.
  VersionedDataset::Snapshot snapshot;
  /// Allocate a per-query obs::Trace on the ticket and record spans into
  /// it (QueryTicket::trace()). Like `options.control`, any caller-set
  /// `options.trace` is ignored — the hook is engine-managed.
  bool collect_trace = false;
  /// Per-query memory cap override, bytes; <= 0 uses
  /// EngineOptions::per_query_mem_bytes. Lets a multi-tenant front end
  /// (net/server.h) give each tenant its own budget on one engine.
  long per_query_mem_bytes = 0;
  /// Progressive-emission hook: invoked from the executing worker for every
  /// candidate the traversal emits (pre-cleanup). Every call for a query
  /// happens-before its on_finish hook; no emission is ever delivered
  /// after the ticket is terminal.
  std::function<void(const NncEmission&)> on_emission;
  /// Terminal hook: runs exactly once per ticket — on the thread that
  /// completes it, immediately after the ticket transitions to a terminal
  /// state (the ticket is safe to read inside the hook). It runs for every
  /// ticket Submit returns, including rejected and fast-failed ones, and
  /// Drain() does not return before the hook of every completed query has
  /// finished — the progressive-streaming contract the network service
  /// relies on to always send a terminal frame.
  std::function<void(const QueryTicket&)> on_finish;
};

class QueryEngine {
 public:
  /// Takes ownership of the dataset (move it in; copy to keep a caller
  /// copy) as epoch 0 of the engine's versioned store. The global R-tree
  /// must already be built, which Dataset's constructor guarantees.
  explicit QueryEngine(Dataset dataset, EngineOptions options = {});

  /// Drains outstanding queries, then stops the pool.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enqueues one query; blocks while the submission queue is full.
  std::shared_ptr<QueryTicket> Submit(QuerySpec spec);

  /// Convenience fan-in: submits every spec (blocking on backpressure) and
  /// returns the tickets in submission order.
  std::vector<std::shared_ptr<QueryTicket>> SubmitBatch(
      std::vector<QuerySpec> specs);

  /// Stops the background fold thread, then blocks until every submitted
  /// query has reached a terminal state. On return the store is quiesced:
  /// no worker holds an epoch pin and no fold is publishing — safe to
  /// detach durability, seal the WAL, or destroy the engine.
  void Drain();

  /// Consistent snapshot of the engine-level counters, with their
  /// Prometheus series in EngineStats::metrics (see EngineMetrics).
  EngineStats Snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of Snapshot().metrics.
  std::string MetricsText() const;

  /// Slow-query log as JSON ({"threshold_ms":...,"entries":[...]}, slowest
  /// first). Entries carry status, operator, latency, candidate count, and
  /// the trace JSON when the query collected one.
  std::string SlowQueryDump() const { return slow_log_.DumpJson(); }

  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// The immortal epoch-0 dataset the engine was constructed with (the
  /// versioned store's seed). Static-data callers — benchmarks, the CLI's
  /// info path, tests over immutable data — keep working unchanged;
  /// anything epoch-aware goes through versioned() instead.
  const Dataset& dataset() const { return versioned_->seed(); }

  /// The engine's mutable store. Writers call versioned().Apply(); each
  /// query pins the then-current epoch at Submit and is immune to later
  /// writes.
  VersionedDataset& versioned() { return *versioned_; }
  const VersionedDataset& versioned() const { return *versioned_; }

  int num_threads() const { return pool_.num_threads(); }

  /// The engine-wide memory budget (always present; caps disabled unless
  /// EngineOptions::engine_mem_bytes > 0). Exposed so tests and external
  /// admission logic can observe or pre-charge it.
  memory::MemoryBudget& memory_budget() { return mem_budget_; }
  const memory::MemoryBudget& memory_budget() const { return mem_budget_; }

 private:
  void Execute(const std::shared_ptr<QueryTicket>& ticket, QuerySpec& spec);

  /// Records the terminal event in the engine stats, then transitions the
  /// ticket (stats first — see Complete's body for the ordering contract).
  /// Each ticket has exactly one completer: Submit's refusal path or the
  /// worker that ran it.
  void Complete(const std::shared_ptr<QueryTicket>& ticket, Operator op,
                QueryStatus status, NncResult result, std::string error);

  /// Engine-wide high-water level in bytes, or 0 when admission control is
  /// off (no engine budget configured).
  long AdmissionHighWaterBytes() const;

  /// Counts one memory-budget breach.
  void NoteMemBreach();

  EngineOptions options_;
  memory::MemoryBudget mem_budget_;
  /// Declared after mem_budget_ on purpose: delta objects release their
  /// budget charge from their deleters, so the store (and with it the last
  /// delta references) must be destroyed before the budget it charges.
  /// pool_ below is destroyed first of all, so no worker outlives either.
  std::shared_ptr<VersionedDataset> versioned_;
  ThreadPool pool_;

  /// Complete answers of earlier queries; null when
  /// EngineOptions::profile_cache_bytes <= 0. Declared after mem_budget_ —
  /// resident entries are charged against it.
  std::unique_ptr<ResultCache> result_cache_;

  obs::SlowQueryLog slow_log_;

  /// The engine's one book of counters: Submit, Complete and the
  /// admission and memory paths update its fields, and Snapshot
  /// copies it and fills the derived fields (completed, throughput,
  /// quantiles, memory, cache, series).
  mutable std::mutex stats_mu_;
  EngineStats stats_;
  bool saw_submission_ = false;
  std::chrono::steady_clock::time_point first_submit_{};
  std::chrono::steady_clock::time_point last_completion_{};
};

}  // namespace osd

#endif  // OSD_ENGINE_QUERY_ENGINE_H_
