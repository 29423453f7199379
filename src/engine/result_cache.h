// Engine-wide cache of complete NNC answers.
//
// At a fixed epoch the NNC answer is a pure function of the dataset, the
// query and its options: Algorithm 1 and every dominance verdict are
// deterministic. A query that repeats at the epoch it ran at can therefore
// be answered from its stored result, with no traversal at all.
//
//  - Key: (ComputeQuerySignature(query, metric), metric, operator, k,
//    filter switches, excluded snapshot index, epoch). A lookup also
//    compares the stored query's instances and probabilities by value, so
//    a signature collision is a miss, never a wrong answer.
//  - What is stored: only complete results (QueryEngine::Execute stores
//    nothing degraded, cancelled, deadline-cut or failed), as the
//    progressive emissions and the final candidates, each in emission
//    order, so a hit replays a streamed reply unchanged.
//  - Epochs: the cache holds one epoch at a time. An insert at a newer
//    epoch retires every entry, and an insert at an older one is dropped:
//    only queries still pinned at that epoch could have hit it.
//  - Memory: each entry is charged to the engine memory budget before it
//    is inserted; the cache evicts its least-recently-used entries until
//    both its byte cap and the budget admit the newcomer, and drops the
//    insert when neither can. Clear() — called from QueryEngine::Drain —
//    releases every charge.
//
// Thread-safety: every member is safe to call from any thread (one mutex;
// the engine takes it twice per query).

#ifndef OSD_ENGINE_RESULT_CACHE_H_
#define OSD_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/nnc_search.h"
#include "object/uncertain_object.h"

namespace osd {

namespace memory {
class MemoryBudget;
}

/// FNV-1a hash over (metric, dim, |Q|, instance coordinates, instance
/// probabilities): "the same query" by value, whatever its object id.
uint64_t ComputeQuerySignature(const UncertainObject& query, Metric metric);

/// Epoch-scoped LRU cache of complete answers.
class ResultCache {
 public:
  struct Key {
    uint64_t signature = 0;
    uint64_t epoch = 0;
    Metric metric = Metric::kL2;
    Operator op = Operator::kPSd;
    int k = 1;
    int exclude_id = -1;
    FilterConfig filters;
    bool operator==(const Key&) const = default;
  };

  /// A stored answer: the object indices in the order the traversal
  /// emitted them, and the final candidates.
  struct Answer {
    std::vector<int> emitted;
    std::vector<int> candidates;
  };

  struct Counters {
    long hits = 0;
    long misses = 0;
    long evictions = 0;  ///< LRU evictions under the byte cap or the budget
    long bytes = 0;
  };

  /// `cap_bytes` must be positive; `engine_budget` may be null.
  ResultCache(long cap_bytes, memory::MemoryBudget* engine_budget);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The key of `query` run with `options` at `epoch`.
  static Key KeyFor(const UncertainObject& query, const NncOptions& options,
                    uint64_t epoch);

  /// The answer stored under `key` for this very query, or null. Counts one
  /// hit or one miss.
  std::shared_ptr<const Answer> Lookup(const Key& key,
                                       const UncertainObject& query);

  /// Stores a complete `result` of `query` under `key`. Best-effort and
  /// never throws.
  void Insert(const Key& key, const UncertainObject& query,
              const NncResult& result) noexcept;

  /// Drops every entry and releases every budget charge.
  void Clear();

  Counters GetCounters() const;
  long cap_bytes() const { return cap_bytes_; }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    // The query's instances, row-major, and their probabilities: equal
    // probabilities fix the instance count, so equal coordinates fix dim.
    std::vector<double> coords;
    std::vector<double> probs;
    std::shared_ptr<const Answer> answer;
    long bytes = 0;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  /// Drops one entry and releases its charge. Caller holds mu_.
  void RemoveLocked(Lru::iterator it);

  const long cap_bytes_;
  memory::MemoryBudget* budget_;

  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<Key, Lru::iterator, KeyHash> index_;
  uint64_t epoch_ = 0;  // the epoch every resident entry was built at
  long bytes_ = 0;
  long hits_ = 0;
  long misses_ = 0;
  long evictions_ = 0;
};

}  // namespace osd

#endif  // OSD_ENGINE_RESULT_CACHE_H_
