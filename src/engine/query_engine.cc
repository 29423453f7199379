#include "engine/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"

namespace osd {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

QueryStatus StatusFromResult(const NncResult& result) {
  if (result.degraded) return QueryStatus::kOkDegraded;
  switch (result.termination) {
    case NncTermination::kComplete: return QueryStatus::kOk;
    case NncTermination::kDeadlineExceeded:
      return QueryStatus::kDeadlineExceeded;
    case NncTermination::kCancelled: return QueryStatus::kCancelled;
    case NncTermination::kMemoryExceeded:
      // Reachable only with degraded_superset (handled above); kept for
      // exhaustiveness.
      return QueryStatus::kError;
  }
  return QueryStatus::kError;
}

/// The failure text stored on tickets: the exception's what() plus the
/// failpoint name when the fault was injected, so failures are
/// diagnosable from the ticket alone.
std::string DescribeFailure(const std::exception& e) {
  std::string text = e.what();
  if (const auto* injected =
          dynamic_cast<const failpoint::InjectedFault*>(&e)) {
    text += " [failpoint " + injected->site() + "]";
  }
  return text;
}

/// A stored answer as the result of a run: the emissions replayed through
/// `emit` in their stored order, the final candidates, and no work.
NncResult Replay(const ResultCache::Answer& answer, uint64_t epoch,
                 const std::function<void(int, double)>& emit) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  NncResult result;
  result.epoch = epoch;
  result.timeline.reserve(answer.emitted.size());
  for (const int id : answer.emitted) {
    result.timeline.push_back({id, elapsed()});
    if (emit) emit(id, result.timeline.back().elapsed_seconds);
  }
  result.candidates = answer.candidates;
  result.seconds = elapsed();
  return result;
}

}  // namespace

QueryEngine::QueryEngine(Dataset dataset, EngineOptions options)
    : options_(options),
      mem_budget_(options.engine_mem_bytes),
      versioned_(std::make_shared<VersionedDataset>(std::move(dataset),
                                                    &mem_budget_)),
      pool_(ResolveThreads(options.num_threads), options.queue_capacity),
      slow_log_(options.slow_query_threshold_ms / 1e3,
                options.slow_query_log_capacity) {
  if (options_.profile_cache_bytes > 0) {
    result_cache_ = std::make_unique<ResultCache>(
        options_.profile_cache_bytes, &mem_budget_);
  }
  if (options_.fold_interval_s > 0 || options_.fold_delta_threshold > 0) {
    versioned_->StartFoldThread(options_.fold_interval_s,
                                options_.fold_delta_threshold);
  }
}

void QueryEngine::NoteMemBreach() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.mem_breaches;
}

long QueryEngine::AdmissionHighWaterBytes() const {
  if (options_.engine_mem_bytes <= 0) return 0;
  const double fraction =
      std::clamp(options_.mem_high_water_fraction, 0.0, 1.0);
  return static_cast<long>(
      static_cast<double>(options_.engine_mem_bytes) * fraction);
}

QueryEngine::~QueryEngine() {
  Drain();  // stops the fold thread first, then waits out the pool
  pool_.Shutdown();
}

std::shared_ptr<QueryTicket> QueryEngine::Submit(QuerySpec spec) {
  auto ticket = std::make_shared<QueryTicket>();
  const auto now = std::chrono::steady_clock::now();
  ticket->submitted_at_ = now;
  // Install the terminal hook before ANY Complete path can run (admission
  // rejection included) so it fires exactly once per submitted ticket.
  ticket->on_finish_ = std::move(spec.on_finish);
  if (spec.collect_trace) {
    ticket->trace_ = std::make_unique<obs::Trace>(OperatorName(spec.options.op));
  }
  if (spec.deadline_seconds > 0.0) {
    ticket->control_.deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(spec.deadline_seconds));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    if (!saw_submission_) {
      saw_submission_ = true;
      first_submit_ = now;
      last_completion_ = now;
    }
  }
  // Memory admission control: above the engine budget's high-water mark,
  // refuse work before it starts (kRejected, when shedding) or hold the
  // submitter until in-flight queries release charge (backpressure).
  if (const long high_water = AdmissionHighWaterBytes(); high_water > 0) {
    if (mem_budget_.current_bytes() >= high_water) {
      if (options_.shed_on_overload) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.mem_admission_rejected;
        }
        Complete(ticket, spec.options.op, QueryStatus::kRejected, {},
                 "engine memory budget above high-water mark (admission "
                 "control)");
        return ticket;
      }
      mem_budget_.WaitUntilBelow(high_water);
    }
  }
  // Pin the store's current epoch for this query — after admission control
  // so rejected submissions never hold a pin. The worker releases it inside
  // Execute (not via closure destruction, which can outlive WaitIdle).
  spec.snapshot = versioned_->Acquire();
  auto queued = std::make_shared<QuerySpec>(std::move(spec));
  auto task = [this, ticket, queued] { Execute(ticket, *queued); };
  const bool accepted = options_.shed_on_overload
                            ? pool_.TrySubmit(std::move(task))
                            : pool_.Submit(std::move(task));
  if (!accepted) {
    // Shedding fails fast instead of blocking the submitter (TrySubmit also
    // refuses during shutdown); without it a refusal means the pool is
    // shutting down, and the ticket fails instead of being lost silently.
    const bool shed = options_.shed_on_overload;
    Complete(ticket, queued->options.op,
             shed ? QueryStatus::kRejected : QueryStatus::kError, {},
             shed ? "submission queue saturated (overload shedding)"
                  : "engine is shutting down");
  }
  return ticket;  // a refused spec's epoch pin dies with `queued` here
}

std::vector<std::shared_ptr<QueryTicket>> QueryEngine::SubmitBatch(
    std::vector<QuerySpec> specs) {
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(specs.size());
  for (QuerySpec& spec : specs) tickets.push_back(Submit(std::move(spec)));
  return tickets;
}

void QueryEngine::Drain() {
  // Stop the background fold thread BEFORE waiting out the pool: a fold
  // kicked by the last in-flight mutation could otherwise still be
  // publishing states (and pinning snapshots) after Drain returned, so a
  // caller that tears down right after — the server loop exit, a test's
  // last line — would race it. Drain returning means the store is quiesced:
  // no worker holds an epoch and no fold is in flight. StartFoldThread can
  // re-arm folding afterwards if the engine keeps serving.
  versioned_->StopFoldThread();
  pool_.WaitIdle();
  // Quiesced also means the result cache owes the engine budget nothing:
  // every resident entry releases its charge here, so callers sequencing
  // Drain → budget checks (tests, the chaos harness) see zero bytes.
  if (result_cache_ != nullptr) result_cache_->Clear();
}

void QueryEngine::Execute(const std::shared_ptr<QueryTicket>& ticket,
                          QuerySpec& spec) {
  const Operator op = spec.options.op;
  QueryControl& control = ticket->control_;

  // Release the epoch pin on every exit path, and do it HERE rather than
  // letting the task closure's destructor handle it: the pool destroys the
  // closure after decrementing its active count, so a pin held by the
  // closure could still be live when Drain() returns. Releasing inside
  // Execute makes "Drain returned" imply "no query holds an epoch".
  struct SnapshotRelease {
    QuerySpec* spec;
    ~SnapshotRelease() { spec->snapshot = VersionedDataset::Snapshot(); }
  } snapshot_release{&spec};

  // Fast-fail queries whose fate was sealed while queued.
  if (control.cancel.load(std::memory_order_relaxed)) {
    Complete(ticket, op, QueryStatus::kCancelled, {}, "");
    return;
  }
  if (control.has_deadline() &&
      std::chrono::steady_clock::now() >= control.deadline) {
    // An already-expired deadline in anytime mode still owes the caller a
    // superset: run the search anyway — the first pop terminates it and
    // the whole tree drains into the frontier.
    if (!spec.options.degraded_superset) {
      Complete(ticket, op, QueryStatus::kDeadlineExceeded, {}, "");
      return;
    }
  }

  ticket->MarkRunning();
  spec.options.control = &control;
  spec.options.trace = ticket->trace_.get();

  // Resolve an id-named query against the pinned snapshot. The id is an
  // EXTERNAL id — stable across epochs, unlike snapshot indices, which a
  // fold compacts — so a submitter's precheck against an earlier snapshot
  // can never make this silently resolve to a different object. A write
  // that killed the id by the pinned epoch lands here as a precise
  // recoverable error — never an abort, never a read of a deleted slot.
  const UncertainObject* query = &spec.query;
  if (spec.query_object_id >= 0) {
    const int idx = spec.snapshot.empty()
                        ? -1
                        : spec.snapshot.IndexOf(spec.query_object_id);
    if (idx < 0) {
      Complete(ticket, op, QueryStatus::kError, {},
               "query object id " + std::to_string(spec.query_object_id) +
                   " is not live at epoch " +
                   std::to_string(spec.snapshot.epoch()));
      return;
    }
    query = &spec.snapshot.object(idx);
    // Definition 6: a dataset object never competes with itself. The
    // exclusion index must be resolved HERE, against the pinned snapshot —
    // any earlier resolution would race folds the same way the query
    // object itself would.
    spec.options.exclude_id = idx;
  }
  // A complete answer stored at this epoch answers a repeat with no
  // search. Traced queries skip the lookup, so their spans time a real run.
  ResultCache::Key cache_key;
  if (result_cache_ != nullptr) {
    cache_key =
        ResultCache::KeyFor(*query, spec.options, spec.snapshot.epoch());
  }
  const bool lookup = result_cache_ != nullptr && !spec.collect_trace;
  try {
    OSD_FAILPOINT("engine.execute");
    // Dimensionality check against the pinned epoch. A store whose dim is
    // still unset (constructed empty, nothing inserted yet) accepts any
    // query and answers it exactly: zero candidates.
    const int store_dim = spec.snapshot.dim();
    if (store_dim != 0 && query->dim() != store_dim) {
      throw std::invalid_argument(
          "query dimensionality does not match the dataset");
    }
    std::function<void(int, double)> emit;
    if (spec.on_emission) {
      emit = [&spec](int id, double elapsed) {
        spec.on_emission(NncEmission{id, elapsed});
      };
    }
    const std::shared_ptr<const ResultCache::Answer> stored =
        lookup ? result_cache_->Lookup(cache_key, *query) : nullptr;
    NncResult result;
    if (stored != nullptr) {
      result = Replay(*stored, spec.snapshot.epoch(), emit);
    } else {
      {
        // The budget scope's charge and engine-budget reservation are
        // released on scope exit. The spec's per-query cap (per-tenant
        // governance) overrides the engine-wide default when set.
        const long per_query_cap = spec.per_query_mem_bytes > 0
                                       ? spec.per_query_mem_bytes
                                       : options_.per_query_mem_bytes;
        memory::QueryBudgetScope mem_scope(
            per_query_cap,
            options_.engine_mem_bytes > 0 ? &mem_budget_ : nullptr);
        result = NncSearch(spec.snapshot, spec.options).Run(*query, emit);
      }
      if (result_cache_ != nullptr &&
          result.termination == NncTermination::kComplete &&
          !result.degraded) {
        result_cache_->Insert(cache_key, *query, result);
      }
    }
    if (result.termination == NncTermination::kMemoryExceeded) {
      // Breach absorbed by the degraded-superset drain inside Run.
      NoteMemBreach();
    }
    Complete(ticket, op, StatusFromResult(result), std::move(result), "");
  } catch (const MemoryExceeded& e) {
    NoteMemBreach();
    Complete(ticket, op, QueryStatus::kError, {}, DescribeFailure(e));
  } catch (const std::bad_alloc&) {
    // Containment boundary: one query's OOM must not unwind the worker or
    // poison its siblings.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.bad_allocs;
    }
    Complete(ticket, op, QueryStatus::kError, {},
             "out of memory (std::bad_alloc contained at the worker "
             "boundary)");
  } catch (const std::exception& e) {
    Complete(ticket, op, QueryStatus::kError, {}, DescribeFailure(e));
  } catch (...) {
    Complete(ticket, op, QueryStatus::kError, {}, "unknown exception");
  }
}

void QueryEngine::Complete(const std::shared_ptr<QueryTicket>& ticket,
                           Operator op, QueryStatus status, NncResult result,
                           std::string error) {
  const auto now = std::chrono::steady_clock::now();
  const double latency =
      std::chrono::duration<double>(now - ticket->submitted_at_).count();
  // Queries resolved without running (cancelled/expired while queued)
  // carry a default-constructed result
  // whose termination still says kComplete. Terminal consumers (the wire
  // protocol's terminal frame) report both fields, so keep them
  // consistent; results coming out of Run already agree and are untouched.
  if (status == QueryStatus::kCancelled) {
    result.termination = NncTermination::kCancelled;
  } else if (status == QueryStatus::kDeadlineExceeded) {
    result.termination = NncTermination::kDeadlineExceeded;
  }
  // Record under the stats lock BEFORE the ticket signals: anyone who
  // returns from ticket->Wait() then observes a Snapshot that already
  // includes this query.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (status) {
      case QueryStatus::kOk: ++stats_.ok; break;
      case QueryStatus::kOkDegraded: ++stats_.ok_degraded; break;
      case QueryStatus::kDeadlineExceeded: ++stats_.deadline_exceeded; break;
      case QueryStatus::kCancelled: ++stats_.cancelled; break;
      case QueryStatus::kRejected: ++stats_.rejected; break;
      default: ++stats_.errors; break;
    }
    // Rejected queries never ran; keeping them out of the latency
    // histogram stops shed storms from dragging the percentiles to ~0.
    if (status != QueryStatus::kRejected) stats_.latency_histogram.Add(latency);
    if (status != QueryStatus::kError && status != QueryStatus::kRejected) {
      stats_.filters += result.stats;
      stats_.objects_examined += result.objects_examined;
      stats_.entries_pruned += result.entries_pruned;
      stats_.frontier_objects += result.frontier_objects;
      OperatorStats& per_op = stats_.per_operator[static_cast<int>(op)];
      ++per_op.queries;
      per_op.candidates += static_cast<long>(result.candidates.size());
      per_op.busy_seconds += result.seconds;
    }
    last_completion_ = now;
  }
  if (slow_log_.ShouldRecord(latency)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"status\":\"%s\",\"op\":\"%s\",\"latency_ms\":%.4f,"
                  "\"candidates\":%zu",
                  QueryStatusName(status), OperatorName(op), latency * 1e3,
                  result.candidates.size());
    std::string entry = buf;
    if (ticket->trace_ != nullptr) {
      entry += ",\"trace\":" + ticket->trace_->ToJson();
    }
    entry += "}";
    slow_log_.Record(latency, std::move(entry));
  }
  ticket->Finish(status, std::move(result), std::move(error), latency);
}

EngineStats QueryEngine::Snapshot() const {
  std::unique_lock<std::mutex> lock(stats_mu_);
  EngineStats s = stats_;
  if (saw_submission_) {
    s.wall_seconds =
        std::chrono::duration<double>(last_completion_ - first_submit_)
            .count();
  }
  lock.unlock();  // the rest derives from the copy or reads its own atomics
  s.threads = pool_.num_threads();
  s.completed = s.ok + s.ok_degraded + s.deadline_exceeded + s.cancelled +
                s.errors + s.rejected;
  // Throughput counts tickets that actually ran. Shed (rejected) tickets
  // terminate in microseconds without executing; folding them into the
  // numerator would report an overloaded engine as faster the harder it
  // sheds.
  s.executed = s.completed - s.rejected;
  s.qps = s.wall_seconds > 0 ? s.executed / s.wall_seconds : 0.0;
  const obs::LatencyHistogram& latency = s.latency_histogram;
  s.latency_mean_ms = latency.mean_seconds() * 1e3;
  s.latency_p50_ms = latency.Quantile(0.50) * 1e3;
  s.latency_p95_ms = latency.Quantile(0.95) * 1e3;
  s.latency_p99_ms = latency.Quantile(0.99) * 1e3;
  s.latency_max_ms = latency.max_seconds() * 1e3;
  s.latency_invalid = latency.invalid();
  s.mem_current_bytes = mem_budget_.current_bytes();
  s.mem_peak_bytes = mem_budget_.peak_bytes();
  s.mem_engine_cap_bytes = options_.engine_mem_bytes;
  s.mem_per_query_cap_bytes = options_.per_query_mem_bytes;
  if (result_cache_ != nullptr) {
    const ResultCache::Counters c = result_cache_->GetCounters();
    s.profile_cache_hits = c.hits;
    s.profile_cache_misses = c.misses;
    s.profile_cache_evictions = c.evictions;
    s.profile_cache_bytes = c.bytes;
    s.profile_cache_cap_bytes = result_cache_->cap_bytes();
  }
  s.metrics = EngineMetrics(s);
  return s;
}

std::string QueryEngine::MetricsText() const {
  return obs::RenderPrometheusMetrics(Snapshot().metrics);
}

}  // namespace osd
