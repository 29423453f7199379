#include "core/batch_scope.h"

#include "common/memory_budget.h"

namespace osd {

namespace {

BatchDistContext*& CurrentBatchSlot() {
  thread_local BatchDistContext* slot = nullptr;
  return slot;
}

// Budget reservation granularity: coarse chunks keep the shared-counter
// traffic off the per-node path (same rationale as kEngineReserveChunk).
constexpr long kMemoChunk = 64L * 1024;

// Conservative per-memo-entry overhead: one hash node + bucket slot on top
// of the lane vector itself.
constexpr long kEntryOverhead = 64;

}  // namespace

BatchDistContext::BatchDistContext(Metric metric,
                                   memory::MemoryBudget* engine_budget)
    : metric_(metric), budget_(engine_budget) {
  BatchDistContext*& slot = CurrentBatchSlot();
  prev_ = slot;
  slot = this;
}

BatchDistContext::~BatchDistContext() {
  CurrentBatchSlot() = prev_;
  if (budget_ != nullptr && charged_bytes_ > 0) {
    budget_->Release(charged_bytes_);
  }
}

BatchDistContext* BatchDistContext::Current() { return CurrentBatchSlot(); }

int BatchDistContext::AddSlot(const Mbr& query_mbr) {
  slot_mbrs_.push_back(query_mbr);
  return static_cast<int>(slot_mbrs_.size()) - 1;
}

bool BatchDistContext::ReserveBytes(long bytes) {
  if (!memo_enabled_) return false;
  if (used_bytes_ + bytes <= charged_bytes_) {
    used_bytes_ += bytes;
    return true;
  }
  if (budget_ != nullptr) {
    const long want = bytes > kMemoChunk ? bytes : kMemoChunk;
    if (!budget_->TryCharge(want)) {
      // Engine under pressure: stop growing the memo for this batch and
      // fall back to direct computation (still correct, just unshared).
      memo_enabled_ = false;
      return false;
    }
    charged_bytes_ += want;
  } else {
    charged_bytes_ += bytes;
  }
  used_bytes_ += bytes;
  return true;
}

double BatchDistContext::Dist(MemoMap& memo, int32_t id, const Mbr& box) {
  auto it = memo.find(id);
  if (it != memo.end()) return it->second[active_];
  const size_t n = slot_mbrs_.size();
  if (!ReserveBytes(static_cast<long>(n * sizeof(double)) + kEntryOverhead)) {
    return MbrMinDist(box, slot_mbrs_[active_], metric_);
  }
  std::vector<double>& lanes = memo[id];
  lanes.reserve(n);
  // One visit of `box` fills every member's lane: this is the per-node
  // cost the batch amortizes — later members hit the memo instead of
  // recomputing the kernel.
  for (const Mbr& mbr : slot_mbrs_) {
    lanes.push_back(MbrMinDist(box, mbr, metric_));
  }
  return lanes[active_];
}

double BatchDistContext::NodeDist(int32_t node_id, const Mbr& box) {
  return Dist(node_memo_, node_id, box);
}

double BatchDistContext::ObjectDist(int32_t object_index, const Mbr& box) {
  return Dist(object_memo_, object_index, box);
}

}  // namespace osd
