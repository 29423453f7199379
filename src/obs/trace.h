// Per-query tracing: nested timed spans over the NNC serving stack.
//
// A Trace is owned by one query execution (the engine keeps it on the
// QueryTicket; library callers allocate their own) and is reached through
// NncOptions::trace — the same per-query hook pattern as QueryControl.
// NncSearch::Run installs the trace as the `trace` field of the thread's
// QueryExec record (common/query_exec.h) for the duration of the call, so
// deep call sites (dominance filter stages, max-flow runs, lazy local-tree
// builds) record spans without threading a pointer through every
// signature.
//
// Two gates, mirroring the failpoint pattern (common/failpoint.h):
//  - Compile time: span sites are emitted only when the build is
//    configured with -DOSD_TRACING=ON (the default). With it OFF every
//    OSD_TRACE_SPAN reduces to a no-op and the traversal runs the exact
//    pre-tracing instruction stream.
//  - Run time: a null NncOptions::trace (the default) disables recording
//    per query; each compiled-in site then costs one thread-local load
//    and a predictable branch. bench/obs_overhead measures both gates.
//
// Every span updates a per-kind aggregate (count + seconds) and, up to
// kMaxRecordedSpans, is stored in the span tree with its parent link.
// Aggregates are the bridge to the FilterStats currency: the trace also
// carries the query's final FilterStats, so a trace JSON dump shows both
// where the time went (spans) and what work was done (counters).
//
// Thread-safety: a Trace may only be mutated by the thread that owns the
// query execution; reading (ToJson, aggregates) is safe once the query
// reached a terminal state. The QueryExec record is per-thread by
// construction.

#ifndef OSD_OBS_TRACE_H_
#define OSD_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "common/query_exec.h"
#include "core/filter_config.h"

namespace osd {
namespace obs {

/// The span taxonomy. Stages of a dominance check (stat / cover / level /
/// geometric / exact) get their own kinds so the per-query time breakdown
/// matches the Fig. 16 filter ablation axes.
enum class SpanKind : int {
  kTraversal = 0,    ///< best-first heap loop of NncSearch::Run
  kCleanup,          ///< final near-tie cleanup among emitted candidates
  kFrontierDrain,    ///< degraded-mode frontier drain
  kDominanceCheck,   ///< one DominanceOracle::Dominates call (any operator)
  kStatFilter,       ///< statistic-based pruning (Theorem 11)
  kCoverFilter,      ///< cover rules: MBR validation / covering operators
  kLevelFilter,      ///< level-by-level refinement (no operator has one)
  kGeometricFilter,  ///< convex-hull reduction of the query
  kExactCheck,       ///< exact merge-scan / exact flow fallback
  kFlowRun,          ///< one max-flow Compute call
  kLocalTreeBuild,   ///< lazy per-object local R-tree construction
};
inline constexpr int kNumSpanKinds = 11;

/// Lower-case stable name ("traversal", "stat_filter", ...).
const char* SpanKindName(SpanKind kind);

/// Count, summed duration, and attributed bytes of one span kind within
/// one trace.
struct SpanAggregate {
  long count = 0;
  double seconds = 0.0;
  long bytes = 0;  ///< memory charges attributed while a span was open
};

class Trace {
 public:
  /// Cap on individually recorded spans; aggregates keep counting past it
  /// (dropped_spans() reports the overflow).
  static constexpr int kMaxRecordedSpans = 2048;

  struct Span {
    SpanKind kind;
    int parent;            ///< index of the enclosing recorded span; -1 at root
    double start_seconds;  ///< offset from the trace epoch
    double seconds;        ///< duration; 0 until the span ends
    long bytes = 0;        ///< memory charged while this span was innermost
  };

  explicit Trace(std::string label = {});

  /// Opens a span; must be balanced by End() on the same thread, properly
  /// nested. Prefer ScopedSpan / OSD_TRACE_SPAN.
  void Begin(SpanKind kind);
  void End();

  /// Attributes `bytes` of memory charges to the innermost open span (and
  /// its kind's aggregate); charges outside any span land only in
  /// total_bytes(). Called by memory::Charge through the thread's current
  /// trace — per-span byte attribution mirrors per-span timing.
  void AddBytes(long bytes);
  long total_bytes() const { return total_bytes_; }

  const std::array<SpanAggregate, kNumSpanKinds>& aggregates() const {
    return aggregates_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  long dropped_spans() const { return dropped_; }
  const std::string& label() const { return label_; }

  /// Query summary, filled by NncSearch::Run before it returns.
  void SetSummary(const FilterStats& filters, long objects_examined,
                  long entries_pruned, long candidates,
                  const char* termination, long mem_peak_bytes = 0);

  /// Single-line JSON object: label, summary, per-kind aggregates, the
  /// recorded span tree.
  std::string ToJson() const;

 private:
  struct Open {
    SpanKind kind;
    int recorded;  // index into spans_, or -1 if past the cap
    std::chrono::steady_clock::time_point start;
  };

  std::string label_;
  std::chrono::steady_clock::time_point epoch_;
  std::array<SpanAggregate, kNumSpanKinds> aggregates_{};
  std::vector<Span> spans_;
  std::vector<Open> open_;
  long dropped_ = 0;
  long total_bytes_ = 0;
  long mem_peak_bytes_ = 0;
  bool have_summary_ = false;
  FilterStats filters_{};
  long objects_examined_ = 0;
  long entries_pruned_ = 0;
  long candidates_ = 0;
  const char* termination_ = "";
};

/// The running query's trace (QueryExec::trace), or null when the query
/// is not traced or none is running.
inline Trace* CurrentTrace() { return CurrentExec().trace; }

/// RAII span on the thread's current trace; a no-op when none is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) trace_->Begin(kind);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
};

}  // namespace obs
}  // namespace osd

// OSD_TRACE_SPAN(kind) opens a span for the rest of the enclosing block;
// it compiles to nothing when tracing is configured out.
#if defined(OSD_TRACING_ENABLED)
#define OSD_TRACE_CONCAT_INNER(a, b) a##b
#define OSD_TRACE_CONCAT(a, b) OSD_TRACE_CONCAT_INNER(a, b)
#define OSD_TRACE_SPAN(kind) \
  ::osd::obs::ScopedSpan OSD_TRACE_CONCAT(osd_trace_span_, __LINE__)(kind)
#else
#define OSD_TRACE_SPAN(kind) ((void)0)
#endif

#endif  // OSD_OBS_TRACE_H_
