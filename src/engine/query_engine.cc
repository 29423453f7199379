#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "core/batch_scope.h"

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
/// failpoint name when the fault was injected, so batch failures are
/// diagnosable from the ticket alone.
std::string DescribeFailure(const std::exception& e) {
  std::string text = e.what();
  if (const auto* injected =
          dynamic_cast<const failpoint::InjectedFault*>(&e)) {
    text += " [failpoint " + injected->site() + "]";
  }
  return text;
}

/// Uniform draw in [0, 1) for backoff jitter. Thread-local and seeded from
/// random_device: jitter must decorrelate workers, not be reproducible.
double JitterDraw() {
  thread_local std::mt19937_64 engine{std::random_device{}()};
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
}

/// Floor on the watchdog's grace past a query's deadline.
constexpr double kWatchdogMinGraceMs = 5.0;

/// Proximity gate: a query joins an open batch only while the diagonal of
/// the union of member MBRs stays within this fraction of the root MBR's
/// diagonal (distant queries share no traversal locality and would only
/// bloat the memo).
constexpr double kBatchMbrSlack = 0.5;

/// Euclidean diagonal of a box; 0 for an empty one. Scale reference for
/// the batch proximity gate.
double MbrDiagonal(const Mbr& box) {
  if (!box.valid()) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < box.dim(); ++i) {
    const double e = box.hi()[i] - box.lo()[i];
    sum += e * e;
  }
  return std::sqrt(sum);
}

}  // namespace

double RetryPolicy::BackoffSeconds(int next_attempt, double u) const {
  const int steps = std::max(0, next_attempt - 2);
  double ms = initial_backoff_ms * std::pow(backoff_multiplier, steps);
  ms = std::min(ms, max_backoff_ms);
  ms = std::max(ms, 0.0);
  const double j = std::clamp(jitter, 0.0, 1.0);
  return ms * (1.0 - j * u) / 1e3;
}

QueryEngine::QueryEngine(Dataset dataset, EngineOptions options)
    : options_(options),
      mem_budget_(options.engine_mem_bytes),
      versioned_(std::make_shared<VersionedDataset>(std::move(dataset),
                                                    &mem_budget_)),
      pool_(ResolveThreads(options.num_threads), options.queue_capacity),
      slow_log_(options.slow_query_threshold_ms / 1e3,
                options.slow_query_log_capacity) {
  if (options_.profile_cache_bytes > 0) {
    profile_cache_ = std::make_unique<ProfileCache>(
        options_.profile_cache_bytes, &mem_budget_);
  }
  if (options_.max_batch > 1) {
    batcher_thread_ = std::thread([this] { BatcherLoop(); });
  }
  if (options_.watchdog) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
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
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch_stop_ = true;
  }
  batch_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  pool_.Shutdown();
}

long QueryEngine::WatchRegister(const std::shared_ptr<QueryTicket>& ticket,
                                Operator op) {
  if (!options_.watchdog) return -1;
  const QueryControl& control = ticket->control_;
  std::chrono::steady_clock::time_point hard;
  if (control.has_deadline()) {
    const double budget_s =
        std::chrono::duration<double>(control.deadline - ticket->submitted_at_)
            .count();
    const double grace_s =
        std::max(budget_s * std::max(options_.watchdog_grace_fraction, 0.0),
                 kWatchdogMinGraceMs / 1e3);
    hard = control.deadline +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(grace_s));
  } else if (options_.watchdog_no_deadline_ms > 0.0) {
    hard = std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(
                   options_.watchdog_no_deadline_ms / 1e3));
  } else {
    return -1;  // no hard limit to enforce
  }
  std::lock_guard<std::mutex> lock(watch_mu_);
  const long id = ++next_watch_id_;
  running_[id] = Watched{ticket, op, hard, std::this_thread::get_id()};
  watch_cv_.notify_all();
  return id;
}

void QueryEngine::WatchUnregister(long id) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(watch_mu_);
  // Absent means the watchdog already expired this execution; nothing to do
  // — the ticket's completion claim settles who reported the outcome.
  running_.erase(id);
}

void QueryEngine::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!watch_stop_) {
    const auto now = std::chrono::steady_clock::now();
    std::vector<Watched> expired;
    for (auto it = running_.begin(); it != running_.end();) {
      if (it->second.hard_deadline <= now) {
        expired.push_back(std::move(it->second));
        it = running_.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) {
      // Act outside the registry lock: FailStalled completes tickets and
      // runs their on_finish hooks, which may block or call back into the
      // engine.
      lock.unlock();
      for (Watched& w : expired) FailStalled(w);
      lock.lock();
      continue;
    }
    watch_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                                 std::max(options_.watchdog_poll_ms, 0.5)));
  }
}

void QueryEngine::FailStalled(Watched& watched) {
  // Cooperative signal first: if the stuck worker ever reaches a poll
  // point, it stops immediately instead of finishing the doomed work (its
  // completion loses the claim below either way).
  watched.ticket->Cancel();
  const bool won = Complete(
      watched.ticket, watched.op, QueryStatus::kStalled, {},
      "query exceeded its hard wall-clock limit without reaching a "
      "cooperative poll point (engine watchdog)",
      0);
  if (won) {
    // The worker is genuinely wedged (it did not complete first): poison it
    // so it exits once the stalled task finally returns, with an immediate
    // replacement keeping pool capacity whole.
    pool_.PoisonWorker(watched.worker);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.workers_poisoned;
  }
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
                 "control)",
                 0);
        return ticket;
      }
      mem_budget_.WaitUntilBelow(high_water);
    }
  }
  // Pin the store's current epoch for this query — after admission control
  // so rejected submissions never hold a pin. The worker releases it inside
  // Execute (not via closure destruction, which can outlive WaitIdle).
  spec.snapshot = versioned_->Acquire();
  if (options_.max_batch > 1) {
    EnqueueBatched(ticket, std::move(spec));
    return ticket;
  }
  // Unbatched: a one-member batch, which ExecuteBatch runs as plain Execute.
  auto single = std::make_unique<PendingBatch>();
  single->items.push_back(BatchItem{ticket, std::move(spec), {}, false});
  DispatchBatch(std::move(single));
  return ticket;
}

std::vector<std::shared_ptr<QueryTicket>> QueryEngine::SubmitBatch(
    std::vector<QuerySpec> specs) {
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(specs.size());
  for (QuerySpec& spec : specs) tickets.push_back(Submit(std::move(spec)));
  return tickets;
}

bool QueryEngine::BatchCompatible(const PendingBatch& batch,
                                  const QuerySpec& spec, const Mbr& mbr,
                                  bool have_mbr) const {
  // Members must share the exact traversal shape: same pinned epoch (one
  // snapshot's node ids mean nothing in another's), same operator family
  // and filter stack (so the shared distance memo sees identical visit
  // patterns), same k and degraded mode (termination semantics).
  if (batch.epoch != spec.snapshot.epoch()) return false;
  if (batch.op != spec.options.op) return false;
  if (batch.metric != spec.options.metric) return false;
  if (batch.k != spec.options.k) return false;
  if (batch.degraded != spec.options.degraded_superset) return false;
  if (batch.filters != spec.options.filters) return false;
  // Members whose query MBR could not be resolved (dead id) run alone.
  if (!have_mbr || !batch.bound.valid()) return false;
  const RTree& tree = spec.snapshot.global_tree();
  if (!tree.nodes().empty()) {
    const double root_diag = MbrDiagonal(tree.nodes()[tree.root()].box);
    Mbr joint = batch.bound;
    joint.Expand(mbr);
    if (root_diag > 0 && MbrDiagonal(joint) > kBatchMbrSlack * root_diag) {
      return false;
    }
  }
  return true;
}

void QueryEngine::EnqueueBatched(const std::shared_ptr<QueryTicket>& ticket,
                                 QuerySpec spec) {
  // Resolve the member's query MBR now, against its own pinned snapshot:
  // it feeds the proximity gate and becomes the member's slot in the
  // shared distance memo. An id with no live object stays unresolved and
  // dispatches as a singleton — Execute reports the precise error.
  Mbr mbr;
  bool have_mbr = false;
  if (spec.query_object_id >= 0) {
    const int idx = spec.snapshot.empty()
                        ? -1
                        : spec.snapshot.IndexOf(spec.query_object_id);
    if (idx >= 0) {
      mbr = spec.snapshot.object(idx).mbr();
      have_mbr = mbr.valid();
    }
  } else {
    mbr = spec.query.mbr();
    have_mbr = mbr.valid();
  }
  // An enqueue can close up to two batches at once: an open batch the new
  // member is incompatible with, and the member's own batch when it can
  // never take company (no resolvable MBR) or instantly reaches max_batch.
  std::unique_ptr<PendingBatch> closed, own;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    if (pending_ != nullptr &&
        !BatchCompatible(*pending_, spec, mbr, have_mbr)) {
      closed = std::move(pending_);
    }
    if (pending_ == nullptr) {
      pending_ = std::make_unique<PendingBatch>();
      pending_->epoch = spec.snapshot.epoch();
      pending_->op = spec.options.op;
      pending_->metric = spec.options.metric;
      pending_->k = spec.options.k;
      pending_->filters = spec.options.filters;
      pending_->degraded = spec.options.degraded_superset;
      pending_->opened = std::chrono::steady_clock::now();
    }
    if (have_mbr) pending_->bound.Expand(mbr);
    pending_->items.push_back(BatchItem{ticket, std::move(spec), mbr, have_mbr});
    if (static_cast<int>(pending_->items.size()) >= options_.max_batch ||
        !have_mbr) {
      own = std::move(pending_);
    }
  }
  batch_cv_.notify_all();  // wake the batcher to (re)arm the window timer
  DispatchBatch(std::move(closed));
  DispatchBatch(std::move(own));
}

void QueryEngine::DispatchBatch(std::unique_ptr<PendingBatch> batch) {
  if (batch == nullptr || batch->items.empty()) return;
  // Keep the batch reachable after a refused submission: the task lambda
  // and the failure path below share ownership.
  std::shared_ptr<PendingBatch> shared{batch.release()};
  auto task = [this, shared]() { ExecuteBatch(*shared); };
  const bool accepted = options_.shed_on_overload
                            ? pool_.TrySubmit(std::move(task))
                            : pool_.Submit(std::move(task));
  if (!accepted) {
    // Shedding fails fast instead of blocking the submitter (TrySubmit also
    // refuses during shutdown); without it a refusal means the pool is
    // shutting down, and the ticket fails instead of being lost silently.
    const bool shed = options_.shed_on_overload;
    for (BatchItem& item : shared->items) {
      Complete(item.ticket, item.spec.options.op,
               shed ? QueryStatus::kRejected : QueryStatus::kError, {},
               shed ? "submission queue saturated (overload shedding)"
                    : "engine is shutting down",
               0);
      // Release the member's epoch pin promptly (Complete already ran its
      // terminal hook; the pin must not wait for the last shared_ptr).
      item.spec.snapshot = VersionedDataset::Snapshot();
    }
  }
}

void QueryEngine::ExecuteBatch(PendingBatch& batch) {
  if (batch.items.size() == 1) {
    Execute(batch.items[0].ticket, batch.items[0].spec);
    return;
  }
  // One shared MBR-distance memo for the whole batch, charged against the
  // ENGINE budget (never a member's per-query scope — members' budget
  // arithmetic must be bit-identical to solo execution). Members run
  // sequentially on this worker, each under its own scope/deadline/trace.
  BatchDistContext dist_memo(batch.metric, &mem_budget_);
  for (const BatchItem& item : batch.items) {
    dist_memo.AddSlot(item.mbr);
  }
  for (size_t i = 0; i < batch.items.size(); ++i) {
    dist_memo.SetActiveSlot(static_cast<int>(i));
    Execute(batch.items[i].ticket, batch.items[i].spec);
  }
}

void QueryEngine::BatcherLoop() {
  const auto window =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(options_.batch_window_us, 0.0) / 1e6));
  std::unique_lock<std::mutex> lock(batch_mu_);
  while (!batch_stop_) {
    if (pending_ == nullptr) {
      batch_cv_.wait(lock);
      continue;
    }
    const auto flush_at = pending_->opened + window;
    if (std::chrono::steady_clock::now() >= flush_at) {
      auto batch = std::move(pending_);
      lock.unlock();
      DispatchBatch(std::move(batch));
      lock.lock();
      continue;
    }
    batch_cv_.wait_until(lock, flush_at);
  }
  // Orphaned members would hang Drain: flush whatever is still open.
  auto batch = std::move(pending_);
  lock.unlock();
  DispatchBatch(std::move(batch));
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
  // Flush any open batch so its members complete; loop because a Submit
  // racing this drain can open a fresh batch while the pool empties.
  while (true) {
    std::unique_ptr<PendingBatch> batch;
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      batch = std::move(pending_);
    }
    DispatchBatch(std::move(batch));
    pool_.WaitIdle();
    std::lock_guard<std::mutex> lock(batch_mu_);
    if (pending_ == nullptr) break;
  }
  // Quiesced also means the shared cache owes the engine budget nothing:
  // every resident entry releases its charge here, so callers sequencing
  // Drain → budget checks (tests, the chaos harness) see zero bytes.
  if (profile_cache_ != nullptr) profile_cache_->Clear();
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
    Complete(ticket, op, QueryStatus::kCancelled, {}, "", 0);
    return;
  }
  if (control.has_deadline() &&
      std::chrono::steady_clock::now() >= control.deadline) {
    // An already-expired deadline in anytime mode still owes the caller a
    // superset: run the search anyway — the first pop terminates it and
    // the whole tree drains into the frontier.
    if (!spec.options.degraded_superset) {
      Complete(ticket, op, QueryStatus::kDeadlineExceeded, {}, "", 0);
      return;
    }
  }

  ticket->MarkRunning();
  spec.options.control = &control;
  spec.options.trace = ticket->trace_.get();
  // Engine-managed, like control/trace: queries share the engine-wide
  // profile cache (null when disabled — NncSearch then skips the session).
  spec.options.profile_cache = profile_cache_.get();

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
                   std::to_string(spec.snapshot.epoch()),
               1);
      return;
    }
    query = &spec.snapshot.object(idx);
    // Definition 6: a dataset object never competes with itself. The
    // exclusion index must be resolved HERE, against the pinned snapshot —
    // any earlier resolution would race folds the same way the query
    // object itself would.
    spec.options.exclude_id = idx;
  }
  // Watchdog supervision for the whole execution, retries included; the
  // guard unregisters on every exit path.
  struct WatchGuard {
    QueryEngine* engine;
    long id;
    ~WatchGuard() { engine->WatchUnregister(id); }
  } watch_guard{this, WatchRegister(ticket, op)};
  const int max_attempts = std::max(1, spec.retry.max_attempts);
  std::string failure;
  int attempt = 0;
  while (true) {
    ++attempt;
    try {
      OSD_FAILPOINT("engine.execute");
      // Dimensionality check against the pinned epoch. A store whose dim
      // is still unset (constructed empty, nothing inserted yet) accepts
      // any query and answers it exactly: zero candidates.
      const int store_dim = spec.snapshot.dim();
      if (store_dim != 0 && query->dim() != store_dim) {
        throw std::invalid_argument(
            "query dimensionality does not match the dataset");
      }
      NncResult result;
      {
        // Fresh budget scope per attempt: a retry starts with zero charge
        // and its own engine-budget reservation, released on scope exit.
        // The spec's per-query cap (per-tenant governance) overrides the
        // engine-wide default when set.
        const long per_query_cap = spec.per_query_mem_bytes > 0
                                       ? spec.per_query_mem_bytes
                                       : options_.per_query_mem_bytes;
        memory::QueryBudgetScope mem_scope(
            per_query_cap,
            options_.engine_mem_bytes > 0 ? &mem_budget_ : nullptr);
        std::function<void(int, double)> emit;
        if (spec.on_emission) {
          // Attempt-stamped forwarding: a retry restarts the stream, and
          // the consumer disambiguates by the attempt number.
          const int this_attempt = attempt;
          emit = [&spec, &ticket, this_attempt](int id, double elapsed) {
            // A watchdog-stalled ticket is already terminal; its worker may
            // still be running, but no emission may follow the terminal
            // hook (best-effort — the claim is checked right before the
            // forward).
            if (ticket->completion_claimed_.load(std::memory_order_acquire)) {
              return;
            }
            spec.on_emission(NncEmission{id, elapsed}, this_attempt);
          };
        }
        result = NncSearch(spec.snapshot, spec.options).Run(*query, emit);
      }
      if (result.termination == NncTermination::kMemoryExceeded) {
        // Breach absorbed by the degraded-superset drain inside Run.
        NoteMemBreach();
      }
      Complete(ticket, op, StatusFromResult(result), std::move(result), "",
               attempt);
      return;
    } catch (const MemoryExceeded& e) {
      // Transient (engine-wide pressure clears as other queries finish);
      // falls through to the shared retry/backoff logic below.
      NoteMemBreach();
      failure = DescribeFailure(e);
    } catch (const TransientError& e) {
      failure = DescribeFailure(e);
    } catch (const std::bad_alloc&) {
      // Containment boundary: one query's OOM must not unwind the worker
      // or poison its siblings. bad_alloc is deliberately not retried —
      // unlike a budget breach there is no accounting to say the pressure
      // has cleared.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.bad_allocs;
      }
      Complete(ticket, op, QueryStatus::kError, {},
               "out of memory (std::bad_alloc contained at the worker "
               "boundary)",
               attempt);
      return;
    } catch (const std::exception& e) {
      Complete(ticket, op, QueryStatus::kError, {}, DescribeFailure(e),
               attempt);
      return;
    } catch (...) {
      Complete(ticket, op, QueryStatus::kError, {}, "unknown exception",
               attempt);
      return;
    }
    if (attempt >= max_attempts) break;
    // Transient failure with attempts left: back off, then retry. The
    // backoff honours cancellation and never sleeps past the deadline.
    if (control.cancel.load(std::memory_order_relaxed)) {
      Complete(ticket, op, QueryStatus::kCancelled, {}, "", attempt);
      return;
    }
    const double backoff_s =
        spec.retry.BackoffSeconds(attempt + 1, JitterDraw());
    const auto wake =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(backoff_s));
    if (control.has_deadline() && wake >= control.deadline) {
      Complete(ticket, op, QueryStatus::kError, {},
               failure + " (deadline reached before retry " +
                   std::to_string(attempt + 1) + ")",
               attempt);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
  }
  Complete(ticket, op, QueryStatus::kError, {},
           failure + " (after " + std::to_string(attempt) + " attempts)",
           attempt);
}

bool QueryEngine::Complete(const std::shared_ptr<QueryTicket>& ticket,
                           Operator op, QueryStatus status, NncResult result,
                           std::string error, int attempts) {
  // Claim the ticket before touching any counter: with the watchdog armed,
  // a stalled query has two potential completers (the watchdog's kStalled
  // verdict and the stuck worker's eventual return), and only the first
  // may record stats or transition the ticket.
  if (ticket->completion_claimed_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  const double latency =
      std::chrono::duration<double>(now - ticket->submitted_at_).count();
  // Queries resolved without running (cancelled/expired while queued, or
  // cancelled between retry attempts) carry a default-constructed result
  // whose termination still says kComplete. Terminal consumers (the wire
  // protocol's terminal frame) report both fields, so keep them
  // consistent; results coming out of Run already agree and are untouched.
  if (status == QueryStatus::kCancelled) {
    result.termination = NncTermination::kCancelled;
  } else if (status == QueryStatus::kDeadlineExceeded ||
             status == QueryStatus::kStalled) {
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
      case QueryStatus::kStalled: ++stats_.stalled; break;
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
                  "\"attempts\":%d,\"candidates\":%zu",
                  QueryStatusName(status), OperatorName(op), latency * 1e3,
                  attempts, result.candidates.size());
    std::string entry = buf;
    if (ticket->trace_ != nullptr) {
      entry += ",\"trace\":" + ticket->trace_->ToJson();
    }
    entry += "}";
    slow_log_.Record(latency, std::move(entry));
  }
  ticket->Finish(status, std::move(result), std::move(error), latency,
                 attempts);
  return true;
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
                s.errors + s.rejected + s.stalled;
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
  if (profile_cache_ != nullptr) {
    const ProfileCache::Counters c = profile_cache_->GetCounters();
    s.profile_cache_hits = c.hits;
    s.profile_cache_misses = c.misses;
    s.profile_cache_evictions = c.evictions;
    s.profile_cache_stale_evictions = c.stale_evictions;
    s.profile_cache_stale_serves_averted = c.stale_serves_averted;
    s.profile_cache_bytes = c.bytes;
    s.profile_cache_cap_bytes = profile_cache_->cap_bytes();
  }
  s.metrics = EngineMetrics(s);
  return s;
}

std::string QueryEngine::MetricsText() const {
  return obs::RenderPrometheusMetrics(Snapshot().metrics);
}

}  // namespace osd
