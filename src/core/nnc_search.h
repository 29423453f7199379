// NN candidates computation (Algorithm 1 of the paper).
//
// Best-first traversal of the global R-tree in min-distance order,
// maintaining the set of confirmed candidates. Visited entries are
// discarded when an existing candidate fully spatially dominates their MBR
// (cover-based entry pruning, Theorem 4); visited objects are confirmed as
// candidates iff no existing candidate dominates them under the selected
// operator.
//
// The paper argues (via the access order, the statistic pruning rules and
// transitivity, Theorem 9) that checking each object only against earlier
// candidates suffices. The heap keys objects by MBR min-distance, which is
// only a lower bound on the exact minimum pairwise distance MinAll(), so
// an object that survives its first pop with MinAll() above its key goes
// back into the heap at MinAll() and is emitted only when popped there,
// after a check against the candidates confirmed in between. Candidates
// are thus confirmed in non-decreasing MinAll(); a later candidate can
// dominate an earlier one only when their MinAll() tie, so a final
// cleanup over near-ties (within 1e-9) makes the result provably equal to
// the brute-force NNC while leaving the progressive behaviour of the
// traversal intact. F+-SD keeps the MBR keys: its strict MBR dominators
// always pop first.

#ifndef OSD_CORE_NNC_SEARCH_H_
#define OSD_CORE_NNC_SEARCH_H_

#include <functional>
#include <vector>

#include "common/query_exec.h"
#include "core/dominance_oracle.h"
#include "core/filter_config.h"
#include "object/dataset.h"
#include "object/versioned_dataset.h"
#include "obs/trace.h"

namespace osd {

/// Why a Run call returned.
enum class NncTermination {
  kComplete,          ///< traversal exhausted the heap; result is exact
  kDeadlineExceeded,  ///< stopped at the QueryControl deadline
  kCancelled,         ///< stopped by the QueryControl cancel flag
  /// Stopped by a memory-budget breach (or a contained std::bad_alloc)
  /// with degraded_superset set; without the flag Run throws instead.
  kMemoryExceeded,
};

/// Options for one NNC computation.
struct NncOptions {
  Operator op = Operator::kPSd;
  FilterConfig filters = FilterConfig::All();
  /// Distance metric; the convex-hull filter silently degrades to "all
  /// query instances" for non-Euclidean metrics (see geom/metric.h).
  Metric metric = Metric::kL2;
  /// Object id to skip (the query itself when it is drawn from the
  /// dataset); -1 keeps everything.
  int exclude_id = -1;
  /// k-NN candidates (extension of Definition 6): an object is excluded
  /// once k distinct objects dominate it. Since SD(U_i, V) implies
  /// f(U_i) <= f(V) for every covered function f, an object with k
  /// dominators can never rank among the k nearest under any covered
  /// function, so the result contains every possible top-k member.
  int k = 1;
  /// Optional cancellation/deadline hook (common/query_exec.h; not owned —
  /// the caller keeps it alive across Run). Run installs it in the calling
  /// thread's QueryExec record, and one poll (interrupt::Pending / Poll)
  /// reads it at every heap pop and inside max-flow runs. Null disables
  /// polling, also under an outer Run's control.
  const QueryControl* control = nullptr;
  /// Optional per-query trace (not owned; same lifetime contract as
  /// `control`). Run installs it in the same QueryExec record, so deep call
  /// sites (filter stages, flow runs, local-tree builds) record spans into
  /// it; null — the default — disables recording for this query.
  obs::Trace* trace = nullptr;
  /// Anytime mode: when the traversal stops early (deadline, cancel, or a
  /// memory-budget breach), append every object still reachable from the
  /// unexpanded frontier to the candidates and set NncResult::degraded.
  /// Because the best-first traversal only ever discards objects certified
  /// non-candidates (Theorems 4 and 9), "confirmed candidates ∪ frontier"
  /// is a certified superset of the exact NNC — a no-false-dismissal
  /// answer — instead of the partial subset returned when this is false.
  ///
  /// Memory governance: Run charges its large allocations (frontier heap,
  /// member profiles, distance views, flow networks) against the calling
  /// thread's memory::QueryBudgetScope, when one is installed (by the
  /// engine, the CLI, or a test). On breach — or on a std::bad_alloc from
  /// a real allocation — an item mid-examination is returned to the
  /// frontier and, with this flag set, the query drains to the same
  /// certified superset with termination kMemoryExceeded; without the
  /// flag the exception propagates, and the engine fails the query with
  /// the breach text.
  bool degraded_superset = false;
};

/// One progressive candidate emission.
struct NncEmission {
  int object_id = -1;
  double elapsed_seconds = 0.0;
};

/// Result of one NNC computation. All timing fields (`seconds`, the
/// timeline's `elapsed_seconds`) are measured with std::chrono::steady_clock
/// so latency aggregation is immune to wall-clock adjustments.
struct NncResult {
  /// Final candidate object indices, in emission order (after cleanup):
  /// non-decreasing exact min distance, except under F+-SD.
  std::vector<int> candidates;
  /// Progressive emissions as produced by the traversal (pre-cleanup).
  std::vector<NncEmission> timeline;
  FilterStats stats;
  double seconds = 0.0;
  long objects_examined = 0;  ///< objects reaching the dominance check
  long entries_pruned = 0;    ///< R-tree entries/nodes discarded via MBRs
  /// kComplete for an exhaustive traversal. On early termination the
  /// candidates emitted so far are still cross-cleaned, so the partial
  /// result never contains a pair where one member dominates the other.
  NncTermination termination = NncTermination::kComplete;
  /// True iff the traversal stopped early AND NncOptions::degraded_superset
  /// appended the unexpanded frontier: `candidates` is then a certified
  /// superset of the exact answer (confirmed members first, frontier
  /// objects after them, unexamined and in heap order).
  bool degraded = false;
  long frontier_objects = 0;  ///< objects appended without dominance checks
  long frontier_nodes = 0;    ///< unexpanded R-tree subtrees drained
  /// Peak bytes charged against the query's memory budget scope; 0 when no
  /// scope was installed (accounting off).
  long mem_peak_bytes = 0;
  /// Epoch of the VersionedDataset snapshot this query ran against; 0 when
  /// the search was constructed over a plain (unversioned) Dataset.
  uint64_t epoch = 0;
};

/// NN-candidate search engine over a dataset.
///
/// Thread-safety: Run is const and keeps all per-query state (QueryContext,
/// DominanceOracle, ObjectProfiles, the traversal heap) on its own stack,
/// so any number of threads may call Run concurrently on one NncSearch —
/// or on distinct NncSearch instances sharing one Dataset. The only shared
/// mutable state Run reaches is the engine-wide MemoryBudget behind the
/// calling thread's QueryBudgetScope, when one is installed
/// (common/memory_budget.h), which is internally synchronized.
class NncSearch {
 public:
  NncSearch(const Dataset& dataset, NncOptions options);

  /// Search over one pinned epoch of a VersionedDataset. The snapshot is
  /// borrowed, not copied (same lifetime contract as NncOptions::control):
  /// the caller keeps it alive — and thereby the epoch pinned — across
  /// every Run call. Object indices in results and NncOptions::exclude_id
  /// are *snapshot* indices: base-tree traversal skips tombstoned slots,
  /// and the delta objects [base_size(), size()) are seeded straight into
  /// the frontier (they are not in the base R-tree).
  NncSearch(const VersionedDataset::Snapshot& snapshot, NncOptions options);

  /// Computes NNC(O, Q, SD). `on_candidate(object_index, elapsed_seconds)`
  /// is invoked for every progressive emission when provided.
  NncResult Run(const UncertainObject& query,
                const std::function<void(int, double)>& on_candidate =
                    nullptr) const;

 private:
  const Dataset* dataset_ = nullptr;               // plain mode
  const VersionedDataset::Snapshot* snapshot_ = nullptr;  // snapshot mode
  NncOptions options_;
};

}  // namespace osd

#endif  // OSD_CORE_NNC_SEARCH_H_
