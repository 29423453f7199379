#include "core/profile_cache.h"

#include <cstring>

#include "common/check.h"
#include "common/memory_budget.h"
#include "object/uncertain_object.h"

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

}  // namespace

long ProfileArtifactsBytes(const ProfileArtifacts& artifacts) {
  constexpr long kD = static_cast<long>(sizeof(double));
  long bytes = 0;
  if (artifacts.matrix != nullptr) {
    bytes += static_cast<long>(artifacts.matrix->size()) * kD;
  }
  if (artifacts.extremes != nullptr) {
    bytes += static_cast<long>(artifacts.extremes->min_q.size() +
                               artifacts.extremes->max_q.size()) *
             kD;
  }
  if (artifacts.mean != nullptr) {
    bytes += static_cast<long>(artifacts.mean->mean_q.size()) * kD;
  }
  if (artifacts.sorted_all != nullptr) {
    bytes += static_cast<long>(artifacts.sorted_all->values.size() +
                               artifacts.sorted_all->probs.size()) *
             kD;
  }
  if (artifacts.sorted_per_q != nullptr) {
    for (const std::vector<double>& row : artifacts.sorted_per_q->values) {
      bytes += static_cast<long>(row.size()) * kD;
    }
    for (const std::vector<double>& row : artifacts.sorted_per_q->probs) {
      bytes += static_cast<long>(row.size()) * kD;
    }
  }
  if (artifacts.distribution != nullptr) {
    bytes += 2L * artifacts.distribution->size() * kD;
  }
  return bytes;
}

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

ProfileCache::ProfileCache(long cap_bytes, memory::MemoryBudget* engine_budget)
    : cap_bytes_(cap_bytes), budget_(engine_budget) {
  OSD_CHECK(cap_bytes > 0);
}

ProfileCache::~ProfileCache() { Clear(); }

void ProfileCache::RemoveLocked(Shard& shard, std::list<Node>::iterator it) {
  const long bytes = it->value->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
  shard.bytes -= bytes;
  if (budget_ != nullptr) budget_->Release(bytes);
  bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

long ProfileCache::EvictOneLocked(Shard& shard) {
  if (shard.lru.empty()) return 0;
  const long bytes = shard.lru.back().value->bytes;
  RemoveLocked(shard, std::prev(shard.lru.end()));
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

bool ProfileCache::Admit(uint64_t signature, uint64_t epoch) {
  const Fingerprint fingerprint{signature, epoch};
  bool seen = false;
  {
    std::lock_guard<std::mutex> lock(record_.mu);
    seen = !record_.seen.insert(fingerprint).second;
    if (!seen) {
      record_.order.push_back(fingerprint);
      if (record_.order.size() > kAdmissionRecord) {
        record_.seen.erase(record_.order.front());
        record_.order.pop_front();
      }
    }
  }
  (seen ? admitted_ : declined_).fetch_add(1, std::memory_order_relaxed);
  return seen;
}

std::shared_ptr<const ProfileArtifacts> ProfileCache::Lookup(
    int object_id, uint64_t signature, uint64_t epoch) {
  const Key key{object_id, signature};
  Shard& shard = ShardFor(key);
  std::shared_ptr<const ProfileArtifacts> found;
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      const uint64_t entry_epoch = it->second->value->epoch;
      if (entry_epoch == epoch) {
        // Hit: pin the immutable entry and bump its recency.
        found = it->second->value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else if (entry_epoch < epoch) {
        // Superseded by a fold/mutation: lazy invalidation on the lookup
        // path keeps writers O(1) while guaranteeing no stale serve.
        RemoveLocked(shard, it->second);
        stale = true;
      }
      // entry_epoch > epoch: an older-pinned query must not consume it and
      // must not evict it either — leave it for the queries it belongs to.
    }
  }
  if (found != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  if (stale) stale_evictions_.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ProfileCache::Publish(
    int object_id, uint64_t signature,
    std::shared_ptr<const ProfileArtifacts> artifacts) noexcept {
  if (artifacts == nullptr || artifacts->bytes <= 0) return;
  const long bytes = artifacts->bytes;
  const long shard_cap = cap_bytes_ / kShards;
  if (bytes > shard_cap) return;  // never fits
  const Key key{object_id, signature};
  Shard& shard = ShardFor(key);
  try {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Retire the tail's superseded entries: only queries still pinned at
    // their epoch could hit them, and those keep the views they hold.
    long retired = 0;
    while (!shard.lru.empty() &&
           shard.lru.back().value->epoch < artifacts->epoch) {
      RemoveLocked(shard, std::prev(shard.lru.end()));
      ++retired;
    }
    if (retired > 0) {
      stale_evictions_.fetch_add(retired, std::memory_order_relaxed);
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      const ProfileArtifacts& existing = *it->second->value;
      const bool supersedes =
          artifacts->epoch > existing.epoch ||
          (artifacts->epoch == existing.epoch && bytes > existing.bytes);
      if (!supersedes) return;
      RemoveLocked(shard, it->second);
    }
    // The cache-wide cap is enforced as a per-shard slice (cap / kShards),
    // the standard striped-LRU approximation: each shard evicts its own
    // tail, so admission never takes more than one lock. The entry fits
    // an empty shard, so this ends with room for it.
    while (shard.bytes + bytes > shard_cap && !shard.lru.empty()) {
      EvictOneLocked(shard);
    }
    if (budget_ != nullptr) {
      // Charge-before-insert against the engine budget; evict our own LRU
      // tail to make room, and drop the publication if the budget still
      // refuses (other subsystems own the remaining headroom).
      while (!budget_->TryCharge(bytes)) {
        if (EvictOneLocked(shard) == 0) return;
      }
    }
    shard.lru.push_front(Node{key, std::move(artifacts)});
    shard.index[key] = shard.lru.begin();
    shard.bytes += bytes;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    inserts_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Best-effort by contract (runs in ObjectProfile destructors): an
    // allocation failure inside the index simply drops the publication.
  }
}

void ProfileCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    while (!shard.lru.empty()) {
      RemoveLocked(shard, std::prev(shard.lru.end()));
    }
  }
}

ProfileCache::Counters ProfileCache::GetCounters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.stale_evictions = stale_evictions_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.stale_serves_averted =
      stale_serves_averted_.load(std::memory_order_relaxed);
  c.bytes = bytes_.load(std::memory_order_relaxed);
  c.admitted = admitted_.load(std::memory_order_relaxed);
  c.declined = declined_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace osd
