// Shared-descent distance memo for multi-query batched traversal.
//
// When the engine groups compatible queued queries (same snapshot epoch,
// same operator/options, nearby query MBRs) into one batch, the member
// traversals visit largely the same R-tree nodes in largely the same
// order. The per-node work that repeats across members is the MbrMinDist
// frontier key; BatchDistContext amortizes it: the first member to touch a
// node (or leaf object) computes the min-distance for EVERY member's query
// MBR in one pass over the node's box — one kernel visit per node per
// batch — and later members read their lane from the memo.
//
// Determinism: the memo stores exactly MbrMinDist(box, member_mbr, metric)
// for each member, and a member's registered MBR is bit-identical to the
// ctx.mbr() its own traversal would use (QueryContext copies the query's
// MBR verbatim). MbrMinDist touches no FilterStats counters, so memoized
// keys change neither results nor instrumentation — the batched traversal
// is bit-identical to running the members back-to-back.
//
// Memory: memo bytes are charged to the engine MemoryBudget (never to the
// active per-query scope — that would perturb per-query breach points and
// with them termination statuses vs the unshared path). If the budget
// refuses a chunk the memo degrades to direct computation; everything is
// released at destruction.
//
// Ownership/threading: a context belongs to one engine worker executing
// one batch. It installs itself in its own thread-local slot, kept apart
// from the per-query QueryExec record (common/query_exec.h) because it
// spans a whole batch of queries; NncSearch::Run consults Current() for
// its frontier keys. The members run sequentially on the worker with
// SetActiveSlot() selecting whose lane the memo answers.

#ifndef OSD_CORE_BATCH_SCOPE_H_
#define OSD_CORE_BATCH_SCOPE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/metric.h"

namespace osd {

namespace memory {
class MemoryBudget;
}

class BatchDistContext {
 public:
  /// Installs the context thread-locally. `engine_budget` may be null
  /// (memo bytes then go unaccounted, as in tests without a budget).
  BatchDistContext(Metric metric, memory::MemoryBudget* engine_budget);
  /// Uninstalls and returns every charged byte to the budget.
  ~BatchDistContext();
  BatchDistContext(const BatchDistContext&) = delete;
  BatchDistContext& operator=(const BatchDistContext&) = delete;

  /// The context installed on this thread, or null outside a batch.
  static BatchDistContext* Current();

  /// Registers one member's query MBR; returns its slot index. All slots
  /// are registered before any member runs.
  int AddSlot(const Mbr& query_mbr);

  /// Selects the member whose lane NodeDist/ObjectDist answer.
  void SetActiveSlot(int slot) { active_ = slot; }

  /// Min-distance from `box` (R-tree node `node_id`) to the active
  /// member's query MBR; computes all lanes on first touch of the node.
  double NodeDist(int32_t node_id, const Mbr& box);

  /// Same, keyed by object index (leaf entries and delta seeds).
  double ObjectDist(int32_t object_index, const Mbr& box);

 private:
  using MemoMap = std::unordered_map<int32_t, std::vector<double>>;

  double Dist(MemoMap& memo, int32_t id, const Mbr& box);
  /// Ensures `bytes` more memo headroom is charged; false = budget refused
  /// (caller then computes directly instead of memoizing).
  bool ReserveBytes(long bytes);

  Metric metric_;
  memory::MemoryBudget* budget_;
  std::vector<Mbr> slot_mbrs_;
  MemoMap node_memo_;
  MemoMap object_memo_;
  int active_ = 0;
  long charged_bytes_ = 0;
  long used_bytes_ = 0;
  bool memo_enabled_ = true;
  BatchDistContext* prev_;  // outer context restored at destruction
};

}  // namespace osd

#endif  // OSD_CORE_BATCH_SCOPE_H_
