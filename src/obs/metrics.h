// Named metrics: the snapshot record every exposition renders, the one
// latency histogram and the bucket layout it fills.
//
// Nothing here keeps live counters. Each owner keeps its own book and maps
// it to name-sorted MetricSnapshots at scrape time: the engine renders its
// series from EngineStats (engine/engine_stats.h), the network server from
// its own atomics (net/server.cc). obs/export.h renders the snapshots as
// Prometheus text exposition or JSON.
//
// Naming follows Prometheus conventions: `osd_queries_total` or, with one
// level of labels baked into the name, `osd_queries_total{status="ok"}`.
// Metrics sharing the family (the part before '{') are grouped in the
// exposition; histograms must use label-free names.
//
// The one histogram layout is log2 microseconds (LatencyBucketIndex /
// LatencyBucketUpperSeconds): LatencyHistogram fills it and the renderers
// label it.

#ifndef OSD_OBS_METRICS_H_
#define OSD_OBS_METRICS_H_

#include <array>
#include <string>
#include <vector>

namespace osd {
namespace obs {

/// Log2 latency buckets: bucket 0 holds <= 1us, bucket b holds
/// (2^(b-1), 2^b] microseconds; the last bucket absorbs everything above.
/// 42 buckets reach ~25 days, far past any query.
inline constexpr int kLatencyBuckets = 42;
int LatencyBucketIndex(double seconds);
/// Inclusive upper bound of bucket b in seconds.
double LatencyBucketUpperSeconds(int bucket);

/// Fixed-size latency histogram over the log2 bucket layout above.
/// Quantiles interpolate linearly inside the hit bucket and are clamped to
/// the observed [min, max]. Non-finite samples (NaN, ±inf) are never mixed
/// into the buckets or the moments — they land in invalid() so a poisoned
/// clock read cannot corrupt every later percentile. Not internally
/// synchronized — owners guard it with their own lock.
class LatencyHistogram {
 public:
  void Add(double seconds);

  long count() const { return count_; }
  long invalid() const { return invalid_; }
  double min_seconds() const { return count_ == 0 ? 0.0 : min_; }
  double max_seconds() const { return max_; }
  double mean_seconds() const { return count_ == 0 ? 0.0 : total_ / count_; }
  double sum_seconds() const { return total_; }

  /// q in [0, 1]; 0 with no samples.
  double Quantile(double q) const;

  /// Per-bucket sample counts (see kLatencyBuckets for the bounds).
  const std::array<long, kLatencyBuckets>& buckets() const { return buckets_; }

 private:
  std::array<long, kLatencyBuckets> buckets_{};
  long count_ = 0;
  long invalid_ = 0;
  double total_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One collected metric, frozen at collection time.
struct MetricSnapshot {
  std::string name;    ///< full name, labels included
  std::string family;  ///< name with the label block stripped
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0.0;          ///< counter / gauge
  long count = 0;              ///< histogram sample count
  long invalid = 0;            ///< histogram non-finite observations
  double sum = 0.0;            ///< histogram sum of observations (seconds)
  std::vector<long> buckets;   ///< histogram per-bucket counts (not cumulative)
};

/// A counter or gauge snapshot; the family is derived from `name`.
MetricSnapshot ScalarSnapshot(std::string name, std::string help,
                              MetricType type, double value);

/// `name` with any {label} block stripped: family of the metric.
std::string MetricFamily(const std::string& name);

}  // namespace obs
}  // namespace osd

#endif  // OSD_OBS_METRICS_H_
