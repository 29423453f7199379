#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace osd {
namespace obs {

int LatencyBucketIndex(double seconds) {
  OSD_DCHECK(std::isfinite(seconds));
  const double us = seconds * 1e6;
  if (us <= 1.0) return 0;
  // ceil, not floor+1: bucket b is (2^(b-1), 2^b], so a sample exactly on
  // a power of two belongs to the LOWER bucket — the exposition publishes
  // the bucket bound as an inclusive `le`, and Prometheus cumulative
  // semantics require the boundary sample to be counted under it.
  const int b = static_cast<int>(std::ceil(std::log2(us)));
  return std::clamp(b, 1, kLatencyBuckets - 1);
}

double LatencyBucketUpperSeconds(int bucket) {
  return std::ldexp(1.0, bucket) * 1e-6;
}

void LatencyHistogram::Add(double seconds) {
  // NaN survives std::max and log2(NaN) -> float-to-int cast is UB, so
  // non-finite samples must never reach the bucket math; count them
  // instead of silently dropping so a poisoned clock stays visible.
  if (!std::isfinite(seconds)) {
    ++invalid_;
    return;
  }
  seconds = std::max(seconds, 0.0);
  ++buckets_[LatencyBucketIndex(seconds)];
  if (count_ == 0 || seconds < min_) min_ = seconds;
  if (seconds > max_) max_ = seconds;
  total_ += seconds;
  ++count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * count_;
  long cum = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (cum + buckets_[b] >= target) {
      const double frac = (target - cum) / buckets_[b];
      const double lo = b == 0 ? 0.0 : LatencyBucketUpperSeconds(b - 1);
      const double hi = LatencyBucketUpperSeconds(b);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    cum += buckets_[b];
  }
  return max_;
}

std::string MetricFamily(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

MetricSnapshot ScalarSnapshot(std::string name, std::string help,
                              MetricType type, double value) {
  MetricSnapshot snap;
  snap.family = MetricFamily(name);
  snap.name = std::move(name);
  snap.help = std::move(help);
  snap.type = type;
  snap.value = value;
  return snap;
}

}  // namespace obs
}  // namespace osd
