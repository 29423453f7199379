// The running query's execution context: one thread-local record.
//
// Code far below the call that starts a query reaches three per-query
// things without a plumbed pointer: the query's cancel flag and deadline
// (QueryControl), its trace (obs::Trace) and its memory budget scope
// (memory::QueryBudgetScope). All three live in one QueryExec per thread:
//
//  - NncSearch::Run installs control and trace with ScopedQueryExec;
//  - a QueryBudgetScope installs itself into `budget`;
//  - each installer restores what it replaced, so nested runs stack.
//
// Readers: OSD_TRACE_SPAN and memory::Charge (via obs::CurrentTrace) read
// `trace`; memory::Charge / Release (via memory::CurrentScope) read
// `budget`; interrupt::Pending / Poll read `control`. The traversal's heap
// pops and the max-flow phases and augmenting paths all ask that one
// poll, so a query has one place that reads its cancel flag and clock.

#ifndef OSD_COMMON_QUERY_EXEC_H_
#define OSD_COMMON_QUERY_EXEC_H_

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>

namespace osd {

namespace obs {
class Trace;
}
namespace memory {
class QueryBudgetScope;
}

/// Cooperative cancellation / deadline hook for one in-flight query. The
/// owner (the query engine, or any caller) keeps it alive for the
/// duration of the Run call; `cancel` may be set from any thread at any
/// time. A running query reads it only through interrupt::Pending / Poll.
struct QueryControl {
  std::atomic<bool> cancel{false};
  /// Absolute steady_clock deadline; max() means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// What a running query carries. Every field is null (0) when no query is
/// running on the thread.
struct QueryExec {
  const QueryControl* control = nullptr;
  obs::Trace* trace = nullptr;
  memory::QueryBudgetScope* budget = nullptr;
};

/// This thread's record. The slot is a function-local thread_local that is
/// constant-initialized and trivially destructible, so a read from any
/// translation unit compiles to a direct TLS load without a wrapper call:
/// that keeps the idle span, charge and poll sites cheap on the hot path.
inline QueryExec& CurrentExec() {
  thread_local constinit QueryExec exec;
  return exec;
}

/// RAII installation of one query's control and trace (either may be
/// null); the budget field is left as it is. A null control shadows an
/// outer one: the inner query runs unpolled. The whole previous record is
/// restored on destruction.
class ScopedQueryExec {
 public:
  ScopedQueryExec(const QueryControl* control, obs::Trace* trace)
      : saved_(CurrentExec()) {
    QueryExec& exec = CurrentExec();
    exec.control = control;
    exec.trace = trace;
  }
  ~ScopedQueryExec() { CurrentExec() = saved_; }
  ScopedQueryExec(const ScopedQueryExec&) = delete;
  ScopedQueryExec& operator=(const ScopedQueryExec&) = delete;

 private:
  QueryExec saved_;
};

namespace interrupt {

/// Why the running query must stop.
enum class Kind {
  kCancelled,         ///< the control's cancel flag was set
  kDeadlineExceeded,  ///< the control's deadline passed
};

/// Thrown by Poll(). NncSearch::Run catches it and ends the query with the
/// matching termination, never a failure.
class Interrupted : public std::exception {
 public:
  explicit Interrupted(Kind kind) : kind_(kind) {}
  Kind kind() const { return kind_; }
  const char* what() const noexcept override {
    return kind_ == Kind::kCancelled ? "query cancelled"
                                     : "query deadline exceeded";
  }

 private:
  Kind kind_;
};

/// Why the running query must stop now, or nullopt. Reads the cancel flag
/// (one relaxed load) and, when a deadline is set, the clock on every call,
/// so a passed deadline stops the query at the next poll. With no control
/// installed it is one TLS load and a branch. Never throws, blocks or
/// allocates.
inline std::optional<Kind> Pending() {
  const QueryControl* control = CurrentExec().control;
  if (control == nullptr) return std::nullopt;
  if (control->cancel.load(std::memory_order_relaxed)) {
    return Kind::kCancelled;
  }
  if (control->has_deadline() &&
      std::chrono::steady_clock::now() >= control->deadline) {
    return Kind::kDeadlineExceeded;
  }
  return std::nullopt;
}

/// Throwing form of Pending() for call sites below core (max-flow runs).
/// NncSearch::Run catches Interrupted at its per-item containment
/// boundary, re-pushes the item, and ends the query as kCancelled /
/// kDeadlineExceeded.
inline void Poll() {
  if (const std::optional<Kind> kind = Pending()) throw Interrupted(*kind);
}

}  // namespace interrupt
}  // namespace osd

#endif  // OSD_COMMON_QUERY_EXEC_H_
