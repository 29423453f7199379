#include "common/memory_budget.h"

#include <cstdio>

#include "obs/trace.h"

namespace osd {

namespace {

std::string BreachMessage(const char* what_label, long requested_bytes,
                          long charged_bytes, long limit_bytes,
                          bool engine_wide) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "memory budget exceeded: charge of %ld bytes%s%s would pass "
                "the %s cap of %ld bytes (%ld already charged)",
                requested_bytes,
                (what_label != nullptr && *what_label != '\0') ? " for " : "",
                (what_label != nullptr && *what_label != '\0') ? what_label
                                                               : "",
                engine_wide ? "engine-wide" : "per-query", limit_bytes,
                charged_bytes);
  return buf;
}

}  // namespace

MemoryExceeded::MemoryExceeded(const char* what_label, long requested_bytes,
                               long charged_bytes, long limit_bytes,
                               bool engine_wide)
    : TransientError(BreachMessage(what_label, requested_bytes, charged_bytes,
                                   limit_bytes, engine_wide)),
      requested_(requested_bytes),
      charged_(charged_bytes),
      limit_(limit_bytes),
      engine_wide_(engine_wide) {}

namespace memory {

namespace {

/// Round-robin shard assignment per thread, cached in a thread_local.
int ThisShard() {
  static std::atomic<unsigned> next{0};
  thread_local int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % MemoryBudget::kShards);
  return shard;
}

}  // namespace

bool MemoryBudget::TryCharge(long bytes) {
  if (bytes <= 0) return true;
  std::atomic<long>& mine = shards_[ThisShard()].bytes;
  mine.fetch_add(bytes, std::memory_order_relaxed);
  const long current = current_bytes();
  if (cap_ > 0 && current > cap_) {
    mine.fetch_sub(bytes, std::memory_order_relaxed);
    breaches_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Peak is a monotone max; races only ever lose a transiently-lower value.
  long peak = peak_.load(std::memory_order_relaxed);
  while (current > peak &&
         !peak_.compare_exchange_weak(peak, current,
                                      std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryBudget::Release(long bytes) {
  if (bytes <= 0) return;
  shards_[ThisShard()].bytes.fetch_sub(bytes, std::memory_order_relaxed);
  // Releases are scope-granular (cold), so an unconditional wakeup is
  // cheaper to reason about than a waiter-count handshake.
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
  }
  wait_cv_.notify_all();
}

void MemoryBudget::WaitUntilBelow(long level_bytes) const {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [&] { return current_bytes() <= level_bytes; });
}

long MemoryBudget::current_bytes() const {
  long total = 0;
  for (const Shard& s : shards_) {
    total += s.bytes.load(std::memory_order_relaxed);
  }
  // Concurrent add/sub pairs can transiently undershoot a sum taken
  // mid-flight; clamp so callers never see a negative gauge.
  return total < 0 ? 0 : total;
}

QueryBudgetScope::QueryBudgetScope(long per_query_cap_bytes,
                                   MemoryBudget* engine_budget)
    : cap_(per_query_cap_bytes),
      engine_(engine_budget),
      prev_(CurrentExec().budget) {
  CurrentExec().budget = this;
}

QueryBudgetScope::~QueryBudgetScope() {
  CurrentExec().budget = prev_;
  if (engine_ != nullptr && reserved_ > 0) engine_->Release(reserved_);
}

void Charge(long bytes, const char* what_label) {
  if (bytes <= 0) return;
  QueryExec& exec = CurrentExec();
  QueryBudgetScope* scope = exec.budget;
  if (scope == nullptr) return;
  OSD_FAILPOINT("mem.charge");
  const long next = scope->charged_ + bytes;
  if (scope->cap_ > 0 && next > scope->cap_) {
    ++scope->breaches_;
    throw MemoryExceeded(what_label, bytes, scope->charged_, scope->cap_,
                         /*engine_wide=*/false);
  }
  if (scope->engine_ != nullptr && next > scope->reserved_) {
    const long need = next - scope->reserved_;
    const long chunk = need > kEngineReserveChunk ? need : kEngineReserveChunk;
    if (scope->engine_->TryCharge(chunk)) {
      scope->reserved_ += chunk;
    } else if (chunk != need && scope->engine_->TryCharge(need)) {
      // Near the engine cap a full chunk no longer fits; take exactly what
      // this charge needs so queries degrade one by one, not all at once.
      scope->reserved_ += need;
    } else {
      ++scope->breaches_;
      throw MemoryExceeded(what_label, bytes, scope->charged_,
                           scope->engine_->cap_bytes(), /*engine_wide=*/true);
    }
  }
  scope->charged_ = next;
  if (next > scope->peak_) scope->peak_ = next;
#if defined(OSD_TRACING_ENABLED)
  if (exec.trace != nullptr) exec.trace->AddBytes(bytes);
#endif
}

void Release(long bytes) {
  if (bytes <= 0) return;
  QueryBudgetScope* scope = CurrentScope();
  if (scope == nullptr) return;
  scope->charged_ -= bytes;
  if (scope->charged_ < 0) scope->charged_ = 0;
  // The engine reservation is returned wholesale at scope destruction;
  // giving back partial chunks mid-query would put shared-counter traffic
  // back on the release path for no isolation benefit.
}

}  // namespace memory
}  // namespace osd
