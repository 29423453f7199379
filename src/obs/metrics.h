// Named metrics: the snapshot record every exposition renders, and a
// registry of sharded-by-thread counters and gauges.
//
// A MetricsRegistry hands out stable pointers to named Counters and
// Gauges. Registration (by name) takes a mutex — it is a cold,
// once-per-process-area operation — but every update is a relaxed atomic
// on a per-shard, cache-line-padded slot selected by the calling thread,
// so the hot path takes no locks and concurrent writers on different
// threads (almost) never contend on a cache line. Reads sum the shards:
// they are eventually consistent point-in-time snapshots, which is all a
// scrape needs. The network server keeps its connection and tenant series
// here; the engine keeps no registry and renders its series from
// EngineStats (engine/engine_stats.h).
//
// Naming follows Prometheus conventions: `osd_queries_total` or, with one
// level of labels baked into the name, `osd_queries_total{status="ok"}`.
// Metrics sharing the family (the part before '{') are grouped in the
// exposition; histograms must use label-free names. Collect() returns
// plain snapshot structs; obs/export.h renders them as Prometheus text
// exposition or JSON.
//
// The one histogram layout is log2 microseconds (LatencyBucketIndex /
// LatencyBucketUpperSeconds): the engine's LatencyHistogram fills it and
// the renderers label it.

#ifndef OSD_OBS_METRICS_H_
#define OSD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace osd {
namespace obs {

/// Shards per metric. More shards = less contention, more memory; 16
/// covers the engine's worker counts comfortably.
inline constexpr int kMetricShards = 16;

/// Log2 latency buckets: bucket 0 holds <= 1us, bucket b holds
/// (2^(b-1), 2^b] microseconds; the last bucket absorbs everything above.
inline constexpr int kLatencyBuckets = 42;
int LatencyBucketIndex(double seconds);
double LatencyBucketUpperSeconds(int bucket);

namespace internal {
/// This thread's shard slot, cached in a thread_local.
int ThisShard();
}  // namespace internal

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(long delta = 1) {
    shards_[internal::ThisShard()].value.fetch_add(delta,
                                                   std::memory_order_relaxed);
  }
  long Value() const {
    long total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<long> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value. Set is rare (snapshot-time or
/// configuration-time), so a single atomic suffices.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One collected metric: a registry entry or an engine series, frozen at
/// collection time.
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

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by full name. The returned reference is stable for the
  /// registry's lifetime. Help text is keyed by family; the first
  /// registration of a family wins. Re-registering a name with a different
  /// type aborts (programmer error).
  Counter& GetCounter(const std::string& name, const std::string& help = {});
  Gauge& GetGauge(const std::string& name, const std::string& help = {});

  /// Point-in-time snapshots of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Collect() const;

 private:
  struct Entry {
    MetricType type;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
  };

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::map<std::string, Entry> by_name_;
  std::map<std::string, std::string> help_by_family_;
};

/// `name` with any {label} block stripped: family of the metric.
std::string MetricFamily(const std::string& name);

}  // namespace obs
}  // namespace osd

#endif  // OSD_OBS_METRICS_H_
