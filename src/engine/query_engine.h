// Concurrent batch NNC query engine.
//
// A QueryEngine owns one immutable Dataset (with its prebuilt global
// R-tree) and executes NNC queries against it on a fixed-size ThreadPool
// with a bounded submission queue. Each submitted query yields a
// QueryTicket; per-query deadlines and cancellation are plumbed into the
// traversal through the QueryControl hook in NncOptions and are honoured
// at heap pops, so even a mid-flight query stops within a bounded amount
// of work. Exceptions thrown by a query land on its ticket as kError and
// never kill a worker.
//
// Resilience: transient failures (osd::TransientError, which covers
// injected failpoint faults) are retried per the query's RetryPolicy with
// jittered exponential backoff; with shed_on_overload the engine rejects
// (kRejected) rather than blocks when the queue saturates; and queries run
// with NncOptions::degraded_superset return certified superset answers
// (kOkDegraded) when a deadline or cancellation stops them mid-traversal.
//
// Memory governance: per_query_mem_bytes installs a memory budget scope
// around each execution, so one query's allocations are bounded; a breach
// degrades the query (with degraded_superset) or fails it with a precise
// retry-eligible MemoryExceeded, never the process. engine_mem_bytes adds
// an engine-wide cap with high-water admission control at Submit, and a
// std::bad_alloc escaping a query is contained at the worker boundary
// (kError with an "out of memory" message; the pool survives).
//
// Determinism: NncSearch::Run is deterministic in its inputs and workers
// share only immutable dataset state, so a batch executed on N threads
// returns candidate sets bit-identical to serial execution — only timing
// fields differ.
//
// Thread-safety: Submit / SubmitBatch / Drain / Snapshot may be called
// from any thread. Destruction drains outstanding queries first.

#ifndef OSD_ENGINE_QUERY_ENGINE_H_
#define OSD_ENGINE_QUERY_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "core/nnc_search.h"
#include "core/profile_cache.h"
#include "engine/engine_stats.h"
#include "engine/query_ticket.h"
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

  /// Hard stall watchdog: a background thread that fails any query still
  /// running past its hard wall-clock limit as kStalled — the last resort
  /// for code paths that never reach a cooperative poll point (the
  /// cooperative layer is common/query_exec.h). A query with deadline
  /// budget D is killed at deadline + max(D * watchdog_grace_fraction,
  /// 5 ms); queries without a deadline use watchdog_no_deadline_ms when
  /// > 0, and are otherwise exempt. The ticket fails as kStalled, the
  /// query's cancel flag is set (hurrying the worker to the next poll
  /// point), and the stuck worker is poisoned and replaced immediately so
  /// pool capacity self-heals; its eventual completion is discarded via
  /// the ticket's completion claim.
  bool watchdog = false;
  double watchdog_poll_ms = 5.0;
  double watchdog_grace_fraction = 1.0;
  double watchdog_no_deadline_ms = 0.0;

  /// Background fold policy for the versioned store (see
  /// object/versioned_dataset.h): fold when the delta reaches
  /// fold_delta_threshold mutations, and/or every fold_interval_s seconds
  /// while the delta is non-empty. Both <= 0 (the default) disables the
  /// fold thread; mutations still work, and the store's synchronous fold
  /// backstop (VersionedDataset::kDefaultFoldBackstop un-folded ops) still
  /// bounds the mutation log and its budget charges.
  double fold_interval_s = 0.0;
  int fold_delta_threshold = 0;

  /// Cross-query work sharing (see core/profile_cache.h and DESIGN.md §15).
  /// Both layers are bit-identical to the unshared path by construction —
  /// candidate sets, filter counters, and termination reasons do not change
  /// with sharing on. profile_cache_bytes = 0 and max_batch = 1 (the
  /// defaults) turn both off.
  ///
  /// Capacity of the engine-wide profile artifact cache, bytes; <= 0
  /// disables it. Resident entries are charged against the engine memory
  /// budget (engine_mem_bytes) and evicted LRU under pressure; every byte
  /// drains on Drain().
  long profile_cache_bytes = 0;
  /// Multi-query batched traversal: up to max_batch compatible queued
  /// queries (same pinned epoch, operator, metric, k, filter config, and
  /// degraded mode, with query MBRs whose union spans at most half the
  /// root MBR's diagonal) share one worker pass that memoizes MBR
  /// min-distance kernel visits across the members. <= 1 disables
  /// batching. Per-query deadlines, budgets, cancellation, and traces
  /// still apply individually to each member.
  int max_batch = 1;
  /// How long an open batch waits for more compatible members before it is
  /// dispatched anyway (latency bound on batching), microseconds.
  double batch_window_us = 200.0;
};

/// Per-query retry policy for transient failures. Only exceptions derived
/// from osd::TransientError (which includes injected failpoint faults) are
/// retried; programmer errors and malformed queries fail immediately.
/// Backoff before attempt a (a >= 2) is
///   min(max_backoff_ms, initial_backoff_ms * multiplier^(a-2))
/// shrunk by up to `jitter` of itself uniformly at random, so retry storms
/// decorrelate across workers.
struct RetryPolicy {
  int max_attempts = 1;  ///< total attempts including the first; >= 1
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
  double jitter = 0.5;  ///< fraction of the backoff randomized away, [0, 1]

  /// Backoff before attempt `next_attempt` (2-based) given a uniform draw
  /// `u` in [0, 1); deterministic for u = 0. Exposed for testability.
  double BackoffSeconds(int next_attempt, double u) const;
};

/// One query to execute: the query object, its NNC options, an optional
/// relative deadline, and a retry policy. `options.control` is
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
  RetryPolicy retry;
  /// Allocate a per-query obs::Trace on the ticket and record spans into
  /// it (QueryTicket::trace()). Like `options.control`, any caller-set
  /// `options.trace` is ignored — the hook is engine-managed.
  bool collect_trace = false;
  /// Per-query memory cap override, bytes; <= 0 uses
  /// EngineOptions::per_query_mem_bytes. Lets a multi-tenant front end
  /// (net/server.h) give each tenant its own budget on one engine.
  long per_query_mem_bytes = 0;
  /// Progressive-emission hook: invoked from the executing worker for every
  /// candidate the traversal emits (pre-cleanup), with the 1-based
  /// execution attempt — a retried query restarts its stream, so consumers
  /// key their state on the attempt. Every call for a query
  /// happens-before its on_finish hook; no emission is ever delivered
  /// after the ticket is terminal.
  std::function<void(const NncEmission&, int attempt)> on_emission;
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
  /// first). Entries carry status, operator, latency, attempts, candidate
  /// count, and the trace JSON when the query collected one.
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
  /// Returns true iff this call won the ticket's completion claim; a false
  /// return means another completer (worker vs. watchdog) got there first
  /// and this call changed nothing.
  bool Complete(const std::shared_ptr<QueryTicket>& ticket, Operator op,
                QueryStatus status, NncResult result, std::string error,
                int attempts);

  /// One execution under watchdog supervision (see EngineOptions).
  struct Watched {
    std::shared_ptr<QueryTicket> ticket;
    Operator op = Operator::kPSd;
    std::chrono::steady_clock::time_point hard_deadline{};
    std::thread::id worker;
  };

  /// Registers the calling worker's execution with the watchdog; returns a
  /// registration id, or -1 when the watchdog is off or the query has no
  /// hard limit (no deadline and no watchdog_no_deadline_ms).
  long WatchRegister(const std::shared_ptr<QueryTicket>& ticket, Operator op);
  void WatchUnregister(long id);
  void WatchdogLoop();
  void FailStalled(Watched& watched);

  /// Engine-wide high-water level in bytes, or 0 when admission control is
  /// off (no engine budget configured).
  long AdmissionHighWaterBytes() const;

  /// One member of a forming multi-query batch: its ticket, its fully
  /// prepared spec (snapshot already pinned), and the query MBR resolved at
  /// enqueue time (invalid when the member names an id not live at the
  /// pinned epoch — such members always dispatch as singletons and fail
  /// with the usual precise kError inside Execute).
  struct BatchItem {
    std::shared_ptr<QueryTicket> ticket;
    QuerySpec spec;
    Mbr mbr;
    bool have_mbr = false;
  };

  /// A batch being formed under batch_mu_. Compatibility is frozen from the
  /// first member; `bound` is the running union of member MBRs for the
  /// proximity gate.
  struct PendingBatch {
    uint64_t epoch = 0;
    Operator op = Operator::kPSd;
    Metric metric = Metric::kL2;
    int k = 1;
    FilterConfig filters;
    bool degraded = false;
    Mbr bound;
    std::chrono::steady_clock::time_point opened{};
    std::vector<BatchItem> items;
  };

  /// True iff `spec` may join `batch` (identical traversal shape + the MBR
  /// proximity gate).
  bool BatchCompatible(const PendingBatch& batch, const QuerySpec& spec,
                       const Mbr& mbr, bool have_mbr) const;
  /// Adds the ticket to the forming batch, dispatching any batch this
  /// closes (incompatible open batch, or the forming one reaching
  /// max_batch). Called from Submit after the snapshot is pinned.
  void EnqueueBatched(const std::shared_ptr<QueryTicket>& ticket,
                      QuerySpec spec);
  /// Hands a closed batch — or, unbatched, one query as a one-member
  /// batch — to the pool (honouring shed_on_overload); on refusal completes
  /// every member as kRejected/kError.
  void DispatchBatch(std::unique_ptr<PendingBatch> batch);
  /// Worker-side: installs a shared BatchDistContext and runs the members
  /// in order, each under its own budget scope / deadline / trace.
  void ExecuteBatch(PendingBatch& batch);
  /// Timer thread that flushes an open batch when its window expires.
  void BatcherLoop();

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

  /// Cross-query profile cache; null when EngineOptions::profile_cache_bytes
  /// <= 0. Declared after mem_budget_ — resident entries are charged
  /// against it — and before the batching state.
  std::unique_ptr<ProfileCache> profile_cache_;

  /// Batch-formation state; the batcher thread exists only when
  /// options_.max_batch > 1.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::unique_ptr<PendingBatch> pending_;
  bool batch_stop_ = false;
  std::thread batcher_thread_;

  obs::SlowQueryLog slow_log_;

  /// Watchdog state: the registry of supervised executions and the thread
  /// that scans it. Guarded by watch_mu_; the thread exists only when
  /// EngineOptions::watchdog is set.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::map<long, Watched> running_;
  long next_watch_id_ = 0;
  bool watch_stop_ = false;
  std::thread watchdog_thread_;

  /// The engine's one book of counters: Submit, Complete and the
  /// admission, retry and memory paths update its fields, and Snapshot
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
