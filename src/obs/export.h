// Exposition formats for collected metrics, plus the slow-query log.
//
// RenderPrometheusMetrics emits the Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` headers per family, plain samples
// for counters and gauges, and cumulative `_bucket{le="..."}` series plus
// `_sum` / `_count` for histograms. RenderJsonMetrics emits the same data
// as a single-line JSON object keyed by full metric name, the shape
// embedded in EngineStats::ToJson.
//
// SlowQueryLog keeps the top-N slowest queries over a latency threshold
// as pre-rendered JSON entries (status, operator, latency, and the query's
// trace when one was collected). Recording takes a mutex but only fires
// for queries already past the threshold — a cold path by definition.

#ifndef OSD_OBS_EXPORT_H_
#define OSD_OBS_EXPORT_H_

#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace osd {
namespace obs {

/// Prometheus text exposition of the snapshots, which must be sorted by
/// name (MetricsRegistry::Collect and EngineMetrics return them so).
std::string RenderPrometheusMetrics(const std::vector<MetricSnapshot>& metrics);

/// Single-line JSON object: {"name":{"type":...,"value":...},...}.
std::string RenderJsonMetrics(const std::vector<MetricSnapshot>& metrics);

/// JSON string escaping for embedded names and labels.
std::string EscapeJson(const std::string& s);

class SlowQueryLog {
 public:
  /// threshold_seconds <= 0 disables the log entirely.
  SlowQueryLog(double threshold_seconds, int capacity);

  bool enabled() const { return threshold_seconds_ > 0.0; }
  double threshold_seconds() const { return threshold_seconds_; }

  /// Cheap pre-check, callable without the lock.
  bool ShouldRecord(double latency_seconds) const {
    return enabled() && latency_seconds >= threshold_seconds_;
  }

  /// Records one slow query; keeps only the `capacity` slowest. The entry
  /// must be a complete JSON object.
  void Record(double latency_seconds, std::string entry_json);

  /// Total queries that crossed the threshold (including evicted ones).
  long recorded_total() const;

  /// {"threshold_ms":...,"recorded_total":N,"entries":[...]} with entries
  /// ordered slowest first.
  std::string DumpJson() const;

 private:
  struct Entry {
    double latency_seconds;
    std::string json;
  };

  const double threshold_seconds_;
  const int capacity_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // min-heap on latency
  long recorded_total_ = 0;
};

}  // namespace obs
}  // namespace osd

#endif  // OSD_OBS_EXPORT_H_
