// Memory governance: per-query budgets and an engine-wide cap.
//
// The serving stack's large allocations (the best-first frontier heap,
// ObjectProfile distance views, lazy local R-tree builds, P-SD flow
// networks) are *charged* against a budget before the memory is actually
// allocated, so an adversarial query (huge |Q|, pathological instance
// counts) fails its own budget check instead of OOM-killing every
// in-flight query. The design mirrors the tracing layer (obs/trace.h):
//
//  - A per-query QueryBudgetScope installs itself (RAII) as the `budget`
//    field of the thread's QueryExec record (common/query_exec.h), the
//    same record that carries the query's control and trace. Whoever owns
//    the query execution constructs it — the engine's worker around
//    NncSearch::Run, the CLI, or a test. Charge()/Release() reach it
//    through the record so deep call sites need no plumbed pointer.
//  - With no scope installed (the default), Charge() is one thread-local
//    load and a branch — the accounting layer costs nothing unless a
//    budget was asked for (bench/mem_overhead measures both sides).
//  - An optional engine-wide MemoryBudget sits behind all scopes. Its
//    counters are cache-line-padded shards (same layout as obs metrics);
//    scopes draw from it in kEngineReserveChunk slices so the per-charge
//    hot path stays entirely thread-local.
//
// Charges are *logical* bytes (container size * element size), not
// allocator capacity: the facility is an isolation mechanism with a
// deliberate safety margin, not an exact heap profiler.
//
// Breach semantics: Charge() throws MemoryExceeded, a std::runtime_error
// naming the site, the request and the cap that refused it; the engine
// fails the query with that text. NncSearch::Run instead converts a breach
// into a certified degraded superset when NncOptions::degraded_superset is
// set; see nnc_search.h.
//
// Thread-safety: MemoryBudget may be shared by any number of threads. A
// QueryBudgetScope belongs to the thread that constructed it; Charge and
// Release act on the calling thread's scope only.

#ifndef OSD_COMMON_MEMORY_BUDGET_H_
#define OSD_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/query_exec.h"

namespace osd {

/// Thrown by memory::Charge when a charge would exceed the per-query or
/// engine-wide budget.
class MemoryExceeded : public std::runtime_error {
 public:
  MemoryExceeded(const char* what_label, long requested_bytes,
                 long charged_bytes, long limit_bytes, bool engine_wide);

  long requested_bytes() const { return requested_; }
  long charged_bytes() const { return charged_; }
  long limit_bytes() const { return limit_; }
  /// True when the engine-wide cap (not the per-query cap) refused it.
  bool engine_wide() const { return engine_wide_; }

 private:
  long requested_;
  long charged_;
  long limit_;
  bool engine_wide_;
};

namespace memory {

/// Engine-wide memory accounting with cache-line-padded shards. cap_bytes
/// <= 0 means "track but never refuse" (the gauges stay meaningful).
class MemoryBudget {
 public:
  static constexpr int kShards = 16;

  explicit MemoryBudget(long cap_bytes = 0) : cap_(cap_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Charges `bytes` if the cap allows it; on refusal nothing is charged,
  /// the breach counter increments, and false is returned. Charges are
  /// expected to be coarse (scopes reserve in kEngineReserveChunk slices),
  /// so the full-shard sum per call is off any per-allocation path.
  bool TryCharge(long bytes);

  /// Returns previously charged bytes and wakes WaitUntilBelow sleepers.
  void Release(long bytes);

  /// Blocks until current_bytes() <= level_bytes (high-water backpressure
  /// for admission control). Returns immediately when already below.
  void WaitUntilBelow(long level_bytes) const;

  long current_bytes() const;
  long peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  long cap_bytes() const { return cap_; }
  /// Times TryCharge refused a charge.
  long breaches() const { return breaches_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Shard {
    std::atomic<long> bytes{0};
  };

  Shard shards_[kShards];
  long cap_;
  std::atomic<long> peak_{0};
  std::atomic<long> breaches_{0};
  mutable std::mutex wait_mu_;
  mutable std::condition_variable wait_cv_;
};

/// Engine-budget slice a scope reserves per refill, keeping the per-charge
/// hot path free of shared-counter traffic.
inline constexpr long kEngineReserveChunk = 1L << 20;

/// One query's budget scope. Constructing installs it as the `budget`
/// field of the calling thread's QueryExec record (stacking over any
/// enclosing scope); destruction restores the previous scope and returns
/// the engine reservation.
/// per_query_cap_bytes <= 0 disables the per-query cap (the scope still
/// tracks peak usage and still draws on the engine budget, if any).
class QueryBudgetScope {
 public:
  QueryBudgetScope(long per_query_cap_bytes, MemoryBudget* engine_budget);
  ~QueryBudgetScope();
  QueryBudgetScope(const QueryBudgetScope&) = delete;
  QueryBudgetScope& operator=(const QueryBudgetScope&) = delete;

  long cap_bytes() const { return cap_; }
  long charged_bytes() const { return charged_; }
  long peak_bytes() const { return peak_; }
  /// Charges this scope refused (each one threw MemoryExceeded).
  long breaches() const { return breaches_; }

 private:
  friend void Charge(long bytes, const char* what_label);
  friend void Release(long bytes);

  long cap_;
  MemoryBudget* engine_;
  QueryBudgetScope* prev_;
  long charged_ = 0;
  long peak_ = 0;
  long reserved_ = 0;  // engine-budget bytes held by this scope
  long breaches_ = 0;
};

/// The calling thread's active scope (QueryExec::budget), or null when
/// memory accounting is off for this execution.
inline QueryBudgetScope* CurrentScope() { return CurrentExec().budget; }

/// Charges `bytes` against the calling thread's scope, drawing on the
/// engine budget as needed; throws MemoryExceeded on breach (nothing is
/// charged then). A no-op without an installed scope or when bytes <= 0.
/// `what_label` flavours the exception message ("profile.matrix", ...).
/// Also attributes the bytes to the thread's current trace span.
/// Failpoint site: "mem.charge" (fires only under an installed scope).
void Charge(long bytes, const char* what_label = "");

/// Returns previously charged bytes to the scope. Tolerates releases that
/// exceed the charged amount (clamped at zero) so objects whose lifetime
/// straddles scope boundaries cannot corrupt the accounting.
void Release(long bytes);

/// RAII accumulator for charges whose owning container dies with the
/// enclosing block (frontier heap, result staging, flow networks):
/// everything Add()ed is released on destruction.
class ScopedCharge {
 public:
  explicit ScopedCharge(const char* what_label = "") : what_(what_label) {}
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ~ScopedCharge() { Release(held_); }

  /// Charges `bytes` more (may throw MemoryExceeded; held() unchanged
  /// then).
  void Add(long bytes) {
    Charge(bytes, what_);
    if (bytes > 0) held_ += bytes;
  }
  /// Returns up to `bytes` of the held charge early.
  void Sub(long bytes) {
    if (bytes > held_) bytes = held_;
    if (bytes <= 0) return;
    Release(bytes);
    held_ -= bytes;
  }
  long held() const { return held_; }

 private:
  const char* what_;
  long held_ = 0;
};

}  // namespace memory
}  // namespace osd

#endif  // OSD_COMMON_MEMORY_BUDGET_H_
