// Future-style handle for one query submitted to the QueryEngine.
//
// A ticket is created at submission and transitions
//   kPending -> kRunning -> {kOk, kOkDegraded, kDeadlineExceeded,
//                            kCancelled, kError}
// kPending can also jump straight to a terminal state: Submit sheds
// (kRejected) or refuses (kError) the query, or the worker finds it
// cancelled or expired before running it. Exactly one completer finishes
// a ticket: Submit's refusal path or the worker. Wait() blocks until a
// terminal state; result() is then valid. Cancel() flips the query's
// QueryControl flag, which the traversal polls at heap pops.
//
// Thread-safety: every public member may be called from any thread. The
// result reference returned by result() is stable once the ticket is done.

#ifndef OSD_ENGINE_QUERY_TICKET_H_
#define OSD_ENGINE_QUERY_TICKET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/nnc_search.h"
#include "obs/trace.h"

namespace osd {

/// Terminal and in-flight states of a submitted query.
enum class QueryStatus {
  kPending,           ///< queued, not yet picked up by a worker
  kRunning,           ///< a worker is executing the traversal
  kOk,                ///< completed exhaustively; result() is exact
  kDeadlineExceeded,  ///< stopped at its deadline; result() is the partial set
  kCancelled,         ///< stopped via Cancel(); result() is the partial set
  kError,             ///< the worker caught an exception; see error()
  kOkDegraded,        ///< stopped early in anytime mode; result() is a
                      ///< certified superset (see NncResult::degraded)
  kRejected,          ///< shed at submission: the queue was full and the
                      ///< engine runs with shed_on_overload
};

const char* QueryStatusName(QueryStatus status);

class QueryTicket {
 public:
  QueryTicket() = default;
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  /// Current status (may be transient).
  QueryStatus status() const;

  /// True iff the status is terminal.
  bool done() const;

  /// Blocks until terminal; returns the terminal status.
  QueryStatus Wait() const;

  /// Blocks up to `timeout`; true iff terminal within the budget.
  bool WaitFor(std::chrono::steady_clock::duration timeout) const;

  /// The query's result. Valid once done() (empty for kError / kRejected
  /// and for queries cancelled/expired before running). For
  /// kDeadlineExceeded / kCancelled this is the partial candidate set
  /// emitted so far, already cross-cleaned (see NncResult::termination);
  /// for kOkDegraded it is the certified superset (confirmed candidates
  /// plus the unexpanded frontier).
  const NncResult& result() const;

  /// Human-readable failure cause; non-empty only for kError / kRejected.
  /// Carries the exception's what() text and the failpoint name when the
  /// failure was injected (e.g. "injected fault [failpoint
  /// engine.execute]").
  const std::string& error() const;

  /// Requests cooperative cancellation. Safe at any time; a query that
  /// already finished keeps its terminal status.
  void Cancel() { control_.cancel.store(true, std::memory_order_relaxed); }

  /// End-to-end latency (submission to terminal state), seconds; 0 until
  /// done. Measured on steady_clock.
  double latency_seconds() const;

  /// The query's trace, or null unless QuerySpec::collect_trace was set.
  /// Safe to read once done(); mutated only by the executing worker.
  const obs::Trace* trace() const { return trace_.get(); }

 private:
  friend class QueryEngine;

  /// kPending -> kRunning; keeps terminal states untouched.
  void MarkRunning();

  /// Transition to a terminal state and wake waiters. The engine computes
  /// `latency_seconds` and records it in its stats BEFORE calling this, so
  /// a Wait()er always observes an engine snapshot that includes its query.
  /// The winning transition additionally runs the on_finish hook (set at
  /// submission from QuerySpec::on_finish) outside the lock, exactly once.
  void Finish(QueryStatus status, NncResult result, std::string error,
              double latency_seconds);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  QueryStatus status_ = QueryStatus::kPending;
  NncResult result_;
  std::string error_;
  QueryControl control_;
  /// Terminal hook (QuerySpec::on_finish), installed at submission before
  /// the ticket is shared with any other thread; consumed by the first
  /// terminal transition.
  std::function<void(const QueryTicket&)> on_finish_;
  /// Owned per-query trace; allocated at submission when the spec asks for
  /// one, written by the worker through NncOptions::trace.
  std::unique_ptr<obs::Trace> trace_;
  std::chrono::steady_clock::time_point submitted_at_{};
  double latency_seconds_ = 0.0;
};

}  // namespace osd

#endif  // OSD_ENGINE_QUERY_TICKET_H_
