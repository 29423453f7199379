#include "engine/result_cache.h"

#include <cstring>

#include "common/check.h"
#include "common/memory_budget.h"

namespace osd {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

inline void HashDouble(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  HashBytes(h, &bits, sizeof(bits));
}

inline void HashInt(uint64_t* h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }

// Per-entry bookkeeping charged beside the vectors: the list node, the
// index slot and the shared answer's control block.
constexpr long kEntryOverheadBytes = 256;

}  // namespace

uint64_t ComputeQuerySignature(const UncertainObject& query, Metric metric) {
  uint64_t h = kFnvOffset;
  HashInt(&h, static_cast<uint64_t>(metric));
  HashInt(&h, static_cast<uint64_t>(query.dim()));
  HashInt(&h, static_cast<uint64_t>(query.num_instances()));
  const int nq = query.num_instances();
  const int dim = query.dim();
  for (int i = 0; i < nq; ++i) {
    const Point& p = query.Instance(i);
    for (int d = 0; d < dim; ++d) HashDouble(&h, p[d]);
    HashDouble(&h, query.Prob(i));
  }
  return h;
}

size_t ResultCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = key.signature;
  HashInt(&h, key.epoch);
  HashInt(&h, static_cast<uint64_t>(key.op));
  HashInt(&h, static_cast<uint64_t>(key.k));
  HashInt(&h, static_cast<uint64_t>(key.exclude_id));
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(long cap_bytes, memory::MemoryBudget* engine_budget)
    : cap_bytes_(cap_bytes), budget_(engine_budget) {
  OSD_CHECK(cap_bytes > 0);
}

ResultCache::~ResultCache() { Clear(); }

ResultCache::Key ResultCache::KeyFor(const UncertainObject& query,
                                     const NncOptions& options,
                                     uint64_t epoch) {
  Key key;
  key.signature = ComputeQuerySignature(query, options.metric);
  key.epoch = epoch;
  key.metric = options.metric;
  key.op = options.op;
  key.k = options.k;
  key.exclude_id = options.exclude_id;
  key.filters = options.filters;
  return key;
}

std::shared_ptr<const ResultCache::Answer> ResultCache::Lookup(
    const Key& key, const UncertainObject& query) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end() && it->second->probs == query.probs() &&
      it->second->coords == query.coords()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->answer;
  }
  ++misses_;
  return nullptr;
}

void ResultCache::Insert(const Key& key, const UncertainObject& query,
                         const NncResult& result) noexcept {
  try {
    auto answer = std::make_shared<Answer>();
    answer->emitted.reserve(result.timeline.size());
    for (const NncEmission& e : result.timeline) {
      answer->emitted.push_back(e.object_id);
    }
    answer->candidates = result.candidates;
    Entry entry{key, query.coords(), query.probs(), std::move(answer), 0};
    entry.bytes =
        kEntryOverheadBytes +
        static_cast<long>(sizeof(double)) *
            static_cast<long>(entry.coords.size() + entry.probs.size()) +
        static_cast<long>(sizeof(int)) *
            static_cast<long>(entry.answer->emitted.size() +
                              entry.answer->candidates.size());
    if (entry.bytes > cap_bytes_) return;  // never fits

    std::lock_guard<std::mutex> lock(mu_);
    if (key.epoch < epoch_) return;
    if (key.epoch > epoch_) {
      // A newer epoch retires every resident entry.
      while (!lru_.empty()) RemoveLocked(std::prev(lru_.end()));
      epoch_ = key.epoch;
    }
    if (const auto it = index_.find(key); it != index_.end()) {
      RemoveLocked(it->second);
    }
    while (bytes_ + entry.bytes > cap_bytes_) {
      RemoveLocked(std::prev(lru_.end()));
      ++evictions_;
    }
    if (budget_ != nullptr) {
      while (!budget_->TryCharge(entry.bytes)) {
        if (lru_.empty()) return;
        RemoveLocked(std::prev(lru_.end()));
        ++evictions_;
      }
    }
    bytes_ += entry.bytes;
    lru_.push_front(std::move(entry));
    index_[key] = lru_.begin();
  } catch (...) {
    // Best-effort: the query's own answer is already complete.
  }
}

void ResultCache::RemoveLocked(Lru::iterator it) {
  const auto indexed = index_.find(it->key);
  if (indexed != index_.end() && indexed->second == it) index_.erase(indexed);
  bytes_ -= it->bytes;
  if (budget_ != nullptr) budget_->Release(it->bytes);
  lru_.erase(it);
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) RemoveLocked(std::prev(lru_.end()));
}

ResultCache::Counters ResultCache::GetCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_, evictions_, bytes_};
}

}  // namespace osd
