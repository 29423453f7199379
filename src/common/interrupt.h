// Thread-local cooperative interrupt points for long-running kernels.
//
// The traversal loop in core/nnc_search.cc polls its QueryControl at heap
// pops, but the heavy inner machinery — Dinic max-flow runs on dense
// possible-world instances — can spend the whole deadline inside a single
// pop. Those layers sit *below* core in the dependency order (core ->
// nnfun -> flow), so they cannot see QueryControl directly. This header
// gives them a dependency-free poll point:
//
//   NncSearch::Run installs an interrupt::Scope on its thread (same RAII
//   idiom as OSD_TRACE_INSTALL and memory::QueryBudgetScope), mirroring the
//   query's cancel flag and deadline. Deep call sites sprinkle
//   interrupt::Poll() into their loops; when the deadline passes or the
//   cancel flag is set, Poll throws interrupt::Interrupted, which
//   NncSearch::Run catches at its per-item containment boundary and turns
//   into the usual kDeadlineExceeded / kCancelled termination (re-pushing
//   the in-flight item so degraded supersets stay certified).
//
// Poll is one thread-local pointer load when no scope is installed, and one
// relaxed atomic load per call plus a steady_clock read every
// kDeadlineStride calls when one is. It never blocks and never allocates.

#ifndef OSD_COMMON_INTERRUPT_H_
#define OSD_COMMON_INTERRUPT_H_

#include <atomic>
#include <chrono>
#include <exception>

namespace osd {
namespace interrupt {

/// Why Poll() threw.
enum class Kind {
  kCancelled,         ///< the scope's cancel flag was set
  kDeadlineExceeded,  ///< the scope's deadline passed
};

/// Thrown by Poll() when the installed scope's cancel flag is set or its
/// deadline has passed. Deliberately NOT derived from TransientError: an
/// expired deadline must never be retried by the engine.
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

class Scope;

namespace internal {
extern thread_local Scope* g_scope;
void PollSlow(Scope* scope);
}  // namespace internal

/// RAII installation of one query's cancel flag + deadline as the calling
/// thread's interrupt source. Nested scopes shadow (innermost wins) and
/// restore on destruction. A scope with a null cancel pointer and no
/// deadline installs nothing, so Poll stays on its one-load fast path.
class Scope {
 public:
  Scope(const std::atomic<bool>* cancel,
        std::chrono::steady_clock::time_point deadline)
      : cancel_(cancel),
        deadline_(deadline),
        has_deadline_(deadline !=
                      std::chrono::steady_clock::time_point::max()) {
    if (cancel_ != nullptr || has_deadline_) {
      prev_ = internal::g_scope;
      internal::g_scope = this;
      installed_ = true;
    }
  }
  ~Scope() {
    if (installed_) internal::g_scope = prev_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  friend void internal::PollSlow(Scope*);

  /// Polls between steady_clock reads for the deadline check; the first
  /// poll always reads the clock, so an already-expired deadline fires
  /// before any kernel work.
  static constexpr long kDeadlineStride = 32;

  const std::atomic<bool>* cancel_;
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_;
  bool installed_ = false;
  long polls_ = 0;
  Scope* prev_ = nullptr;
};

/// Cooperative interrupt point. Cheap enough for inner loops; throws
/// Interrupted when the installed scope (if any) says the query is done.
inline void Poll() {
  if (internal::g_scope != nullptr) internal::PollSlow(internal::g_scope);
}

/// True when the calling thread has an active interrupt scope.
inline bool Active() { return internal::g_scope != nullptr; }

}  // namespace interrupt
}  // namespace osd

#endif  // OSD_COMMON_INTERRUPT_H_
