// The (distance, index) order behind every sorted view of ObjectProfile.
//
// S-SD's all-pairs view, SS-SD's per-q rows and P-SD's rank rows all list
// distances ascending with ties broken by index, and the determinism
// contract needs that exact order: the probabilities paired with tied
// distances, and so every merge-scan and prefix mask, depend on it.
// OrderByDistance is the one place that order is produced, and it uses no
// comparator sort:
//
//  1. Each distance becomes its IEEE-754 bit pattern (-0.0 first mapped to
//     +0.0). A non-negative, non-NaN double orders exactly like its bit
//     pattern read as an unsigned integer, so the keys are exact.
//  2. One stable counting pass spreads the keys' range [lo, hi] over
//     2^ceil(log2 n) buckets (at most 2^16) by their high bits.
//  3. Each bucket is insertion-sorted on its key (one insertion pass over
//     the bucketed keys, which never moves a key out of its bucket). Both
//     passes are stable, so equal distances keep ascending index order.
//  4. A bucket of more than 32 entries is sorted on (key, index) with
//     std::sort first, so a tight cluster plus one far outlier — which
//     lands the whole cluster in one bucket — stays O(n log n).
//
// The scratch is the caller's (no thread-local pools), so the caller can
// charge OrderByDistanceBytes(n) to the query's memory budget first.

#ifndef OSD_CORE_DISTANCE_ORDER_H_
#define OSD_CORE_DISTANCE_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace osd {

/// Working storage for OrderByDistance, reusable across calls.
struct DistanceOrderScratch {
  std::vector<uint64_t> keys;         ///< bit pattern of each distance
  std::vector<uint64_t> bucket_keys;  ///< the keys in bucket order
  std::vector<int> order;             ///< the result
  std::vector<uint32_t> bucket_end;   ///< per-bucket counts, then ends
};

/// Bytes OrderByDistance holds in its scratch for n distances: the keys,
/// the bucketed keys and the order (20 per distance), plus the buckets.
long OrderByDistanceBytes(size_t n);

/// Indices of `dist` in ascending (distance, index) order. Every distance
/// must be >= 0 and not NaN. The span points into `scratch->order` and
/// stays valid until the scratch is next used.
std::span<const int> OrderByDistance(std::span<const double> dist,
                                     DistanceOrderScratch* scratch);

}  // namespace osd

#endif  // OSD_CORE_DISTANCE_ORDER_H_
