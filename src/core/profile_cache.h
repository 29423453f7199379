// Engine-wide cross-query cache for ObjectProfile artifacts.
//
// The distance views ObjectProfile materializes — the |Q| x m matrix, the
// per-q extremes and means, the sorted U_Q / U_q views, and the merged
// CDF distribution — are pure functions of (object instances, query
// signature, metric). Production workloads overlap heavily on hot objects
// and repeated queries, so recomputing them per query wastes the dominant
// share of filter time. This cache shares the finished artifacts across
// queries:
//
//  - Key: (external object id, query signature hash). The signature is an
//    FNV-1a hash over the metric and the query's instance coordinates and
//    probabilities, so "same query shape" is decided by value, not by
//    object identity (see ComputeQuerySignature).
//  - Epoch versioning: every entry records the VersionedDataset epoch it
//    was built at. A lookup pinned at epoch E only ever returns an entry
//    built at exactly E; an older entry found under the key is evicted on
//    the spot (folds and mutations rotate the epoch, so lazily dropping
//    superseded entries keeps invalidation O(1) with no writer-side scan),
//    and a newer entry is left for queries pinned at that epoch.
//  - Admission: only a query that repeats within an epoch pays for the
//    cache. The cache keeps a fixed-size FIFO record of the most recent
//    kAdmissionRecord (query signature, epoch) fingerprints, and
//    NncSearch::Run asks it once per query (Admit). A query whose
//    fingerprint is already recorded binds its profiles to the cache; any
//    other query records its fingerprint and runs unbound — no lookup and
//    no publication. So a query's first run at an epoch is declined, its
//    second run misses and publishes, and its third run hits. On a stream
//    where a write opens an epoch every ~10 ms (osdbench serve_rw) the hit
//    ratio was 0.013 while every query published its views, churning
//    ~42k evictions per 10 s through the LRU; declining one-off queries
//    nearly doubled that server's qps and cut its peak RSS from ~460 to
//    ~135 MiB on a 4-CPU VM.
//  - Retirement: Publish first drops the shard's LRU-tail entries built at
//    an older epoch than the one it publishes. Only queries still pinned
//    at that older epoch could use them, and they keep the views they
//    already hold. Without it, the few repeats inside each epoch still
//    filled the cache with dead entries (peak RSS stayed at ~415 MiB).
//  - Memory governance: entry bytes are charged to the engine MemoryBudget
//    *before* insertion (charge-before-allocate, same contract as the
//    profile views themselves) and the cache evicts LRU entries until both
//    its own byte cap and the budget admit the newcomer; if neither can,
//    the publication is dropped. Clear() — called from QueryEngine::Drain —
//    releases every charge, so the budget drains to zero.
//  - Concurrency: kShards independently locked shards (key-hash striped),
//    mirroring the MemoryBudget shard layout. Event counters are relaxed
//    atomics read by GetCounters, which the engine's stats snapshot (and
//    through it the osd_profile_cache_* series) reads.
//
// Determinism contract: a cache hit hands back bit-identical artifacts to
// what a fresh build would produce (the build is deterministic by the
// sorted-view tie-break rules), and the adopting ObjectProfile charges the
// same bytes under the same labels and advances the same FilterStats
// counters. Candidate sets, filter counters, and termination statuses are
// therefore identical with the cache on or off; tests assert this A/B.

#ifndef OSD_CORE_PROFILE_CACHE_H_
#define OSD_CORE_PROFILE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geom/metric.h"
#include "prob/discrete_distribution.h"

namespace osd {

class UncertainObject;

namespace memory {
class MemoryBudget;
}

/// Per-q extremes (ObjectProfile::EnsureExtremes output).
struct ProfileExtremesView {
  double min_all = 0.0, max_all = 0.0;
  std::vector<double> min_q, max_q;
};

/// Per-q probability-weighted means (ObjectProfile::EnsureMean output).
/// Published only beside the extremes.
struct ProfileMeanView {
  double mean_all = 0.0;
  std::vector<double> mean_q;
};

/// Sorted all-pairs view U_Q (ObjectProfile::EnsureSortedAll output).
struct ProfileSortedAllView {
  std::vector<double> values, probs;
};

/// Per-query-instance sorted views U_q (EnsureSortedPerQ output).
struct ProfileSortedPerQView {
  std::vector<std::vector<double>> values, probs;
};

/// The views one (object, query signature) pair has materialized: an
/// ObjectProfile's own view set while it runs, and a cache entry once
/// published at `epoch`. Each view is immutable and shared — a profile
/// holds the pinned entry's views by shared_ptr, so eviction never
/// invalidates a view a running query reads.
struct ProfileArtifacts {
  uint64_t epoch = 0;
  std::shared_ptr<const std::vector<double>> matrix;  // |Q| x m, row-major
  std::shared_ptr<const ProfileExtremesView> extremes;
  std::shared_ptr<const ProfileMeanView> mean;
  std::shared_ptr<const ProfileSortedAllView> sorted_all;
  std::shared_ptr<const ProfileSortedPerQView> sorted_per_q;
  std::shared_ptr<const DiscreteDistribution> distribution;
  long bytes = 0;  // ProfileArtifactsBytes, set on publication
};

/// The resident size of the views an artifact carries: the doubles they
/// hold. It differs from a profile's charges for the same views where
/// those meter the build rather than the result (a fused statistics pass
/// charges 3·|Q| doubles and keeps the mean's |Q|; the distribution is
/// charged at its upper bound).
long ProfileArtifactsBytes(const ProfileArtifacts& artifacts);

/// FNV-1a hash over (metric, dim, |Q|, instance coordinates, instance
/// probabilities) identifying "the same query" for artifact-sharing
/// purposes. Operator, k, and filter switches are deliberately excluded:
/// the artifacts depend only on the distance geometry, so e.g. an S-SD and
/// a P-SD query over the same instance set share profiles.
uint64_t ComputeQuerySignature(const UncertainObject& query, Metric metric);

/// Sharded, epoch-versioned, LRU profile cache. Thread-safe.
class ProfileCache {
 public:
  struct Counters {
    long hits = 0;
    long misses = 0;
    long evictions = 0;        ///< capacity/budget LRU evictions
    /// superseded-epoch entries dropped on lookup or retired at publication
    long stale_evictions = 0;
    long inserts = 0;
    long admitted = 0;  ///< queries bound to the cache (a repeat sighting)
    long declined = 0;  ///< queries run unbound (a first sighting)
    long stale_serves_averted = 0;  ///< adoption-time epoch-guard trips (== 0)
    long bytes = 0;
  };

  /// `cap_bytes` must be positive; `engine_budget` may be null
  /// (accounting then stays cache-internal).
  ProfileCache(long cap_bytes, memory::MemoryBudget* engine_budget);
  ~ProfileCache();
  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  /// Capacity of the admission record, in fingerprints. Past it, the
  /// record forgets its oldest fingerprint.
  static constexpr int kAdmissionRecord = 4096;

  /// The admission decision for one query run: true when (signature,
  /// epoch) is already in the record (the query then binds to the cache),
  /// false after recording it (the query runs unbound).
  bool Admit(uint64_t signature, uint64_t epoch);

  /// The entry for (object_id, signature) built at exactly `epoch`, or
  /// null. An entry from an older epoch found under the key is evicted
  /// (lazy invalidation); an entry from a newer epoch is left in place.
  std::shared_ptr<const ProfileArtifacts> Lookup(int object_id,
                                                 uint64_t signature,
                                                 uint64_t epoch);

  /// Publishes freshly built artifacts. Best-effort and never throws. The
  /// shard first retires its LRU-tail entries built at an older epoch than
  /// `artifacts->epoch`. The entry is dropped when the byte cap or the
  /// engine budget cannot admit it even after evicting the shard's LRU
  /// tail. An existing entry at the same epoch is replaced only by a
  /// strictly larger artifact set (the publisher unions the views it
  /// adopted with the ones it built, so larger == superset); an entry at a
  /// newer epoch is never clobbered.
  void Publish(int object_id, uint64_t signature,
               std::shared_ptr<const ProfileArtifacts> artifacts) noexcept;

  /// Drops every entry and releases every budget charge.
  void Clear();

  /// Records an adoption-time epoch-guard trip (see ObjectProfile); by
  /// construction Lookup never lets one happen, and the chaos soak asserts
  /// the count stays zero.
  void NoteStaleServeAverted() {
    stale_serves_averted_.fetch_add(1, std::memory_order_relaxed);
  }

  Counters GetCounters() const;
  long bytes() const { return bytes_.load(std::memory_order_relaxed); }
  long cap_bytes() const { return cap_bytes_; }

 private:
  static constexpr int kShards = 16;

  struct Key {
    int object_id;
    uint64_t signature;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Mix the id into the (already well-distributed) signature.
      return static_cast<size_t>(k.signature ^
                                 (static_cast<uint64_t>(k.object_id) *
                                  0x9e3779b97f4a7c15ULL));
    }
  };
  struct Node {
    Key key;
    std::shared_ptr<const ProfileArtifacts> value;
  };
  struct Shard {
    std::mutex mu;
    std::list<Node> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index;
    long bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % kShards];
  }
  /// Drops the shard's least-recently-used entry; returns its bytes (0 when
  /// the shard is empty). Caller holds the shard mutex.
  long EvictOneLocked(Shard& shard);
  void RemoveLocked(Shard& shard, std::list<Node>::iterator it);

  struct Fingerprint {
    uint64_t signature;
    uint64_t epoch;
    bool operator==(const Fingerprint&) const = default;
  };
  struct FingerprintHash {
    size_t operator()(const Fingerprint& f) const {
      return static_cast<size_t>(f.signature ^
                                 (f.epoch * 0x9e3779b97f4a7c15ULL));
    }
  };

  Shard shards_[kShards];
  // The admission record: `seen` holds exactly the fingerprints in
  // `order`, oldest first.
  struct AdmissionRecord {
    std::mutex mu;
    std::deque<Fingerprint> order;
    std::unordered_set<Fingerprint, FingerprintHash> seen;
  } record_;
  const long cap_bytes_;
  memory::MemoryBudget* budget_;

  std::atomic<long> bytes_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> evictions_{0};
  std::atomic<long> stale_evictions_{0};
  std::atomic<long> inserts_{0};
  std::atomic<long> stale_serves_averted_{0};
  std::atomic<long> admitted_{0};
  std::atomic<long> declined_{0};
};

/// Binds one query execution to the cache: the cache, the query's
/// signature, and the pinned snapshot epoch. NncSearch::Run builds one for
/// a query the cache admits and passes its address to every ObjectProfile
/// it constructs; a profile without a binding neither looks up nor
/// publishes.
struct ProfileCacheBinding {
  ProfileCache* cache = nullptr;
  uint64_t signature = 0;
  uint64_t epoch = 0;
};

}  // namespace osd

#endif  // OSD_CORE_PROFILE_CACHE_H_
