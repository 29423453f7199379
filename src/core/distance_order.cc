#include "core/distance_order.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"

namespace osd {
namespace {

constexpr int kMaxBucketBits = 16;
// Buckets up to this size are left to the insertion pass; larger ones are
// sorted with std::sort first.
constexpr uint32_t kInsertionSortMax = 32;

// ceil(log2 n), capped at kMaxBucketBits.
int BucketBits(size_t n) {
  return std::min(kMaxBucketBits,
                  static_cast<int>(std::bit_width(n > 0 ? n - 1 : 0)));
}

}  // namespace

long OrderByDistanceBytes(size_t n) {
  return static_cast<long>(n * (2 * sizeof(uint64_t) + sizeof(int)) +
                           (size_t{1} << BucketBits(n)) * sizeof(uint32_t));
}

std::span<const int> OrderByDistance(std::span<const double> dist,
                                     DistanceOrderScratch* scratch) {
  const size_t n = dist.size();
  scratch->keys.resize(n);
  scratch->bucket_keys.resize(n);
  scratch->order.resize(n);
  uint64_t* keys = scratch->keys.data();
  uint64_t* bucket_keys = scratch->bucket_keys.data();
  int* order = scratch->order.data();

  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    // The bit-pattern order below is the value order only for
    // non-negative doubles; `>= 0` is also false for NaN.
    OSD_DCHECK(dist[i] >= 0.0);
    // -0.0 + 0.0 is +0.0, so both zeros get one key, as they compare equal.
    const uint64_t key = std::bit_cast<uint64_t>(dist[i] + 0.0);
    keys[i] = key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  const uint64_t spread = n > 0 ? hi - lo : 0;
  if (spread == 0) {
    std::iota(order, order + n, 0);
    return {order, n};
  }

  // Bucket b holds the keys whose offset from lo has b as its high bits;
  // spread >> shift < 2^bits, so every key has a bucket.
  const int bits = BucketBits(n);
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(spread)) - bits);
  const size_t num_buckets = size_t{1} << bits;
  scratch->bucket_end.assign(num_buckets, 0);
  uint32_t* end = scratch->bucket_end.data();
  for (size_t i = 0; i < n; ++i) ++end[(keys[i] - lo) >> shift];
  uint32_t start = 0;
  bool crowded = false;
  for (size_t b = 0; b < num_buckets; ++b) {
    const uint32_t count = end[b];
    crowded |= count > kInsertionSortMax;
    end[b] = start;
    start += count;
  }
  // Scatter in index order (stable); afterwards end[b] is bucket b's end.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pos = end[(keys[i] - lo) >> shift]++;
    bucket_keys[pos] = keys[i];
    order[pos] = static_cast<int>(i);
  }

  if (crowded) {
    uint32_t begin = 0;
    for (size_t b = 0; b < num_buckets; ++b) {
      const uint32_t stop = end[b];
      if (stop - begin > kInsertionSortMax) {
        std::sort(order + begin, order + stop, [keys](int x, int y) {
          return keys[x] != keys[y] ? keys[x] < keys[y] : x < y;
        });
        for (uint32_t j = begin; j < stop; ++j) {
          bucket_keys[j] = keys[order[j]];
        }
      }
      begin = stop;
    }
  }
  // One stable insertion pass over all buckets at once: every key in a
  // bucket is below every key of the next, so no entry moves past its
  // bucket's start, and the sorted crowded buckets cost one step each.
  for (size_t j = 1; j < n; ++j) {
    const uint64_t key = bucket_keys[j];
    if (bucket_keys[j - 1] <= key) continue;
    const int idx = order[j];
    size_t k = j;
    for (; k > 0 && bucket_keys[k - 1] > key; --k) {
      bucket_keys[k] = bucket_keys[k - 1];
      order[k] = order[k - 1];
    }
    bucket_keys[k] = key;
    order[k] = idx;
  }
  return {order, n};
}

}  // namespace osd
