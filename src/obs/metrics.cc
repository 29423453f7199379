#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
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

namespace internal {

int ThisShard() {
  // Sequentially assigned, cached per thread: threads get distinct shards
  // until kMetricShards are in use, then wrap.
  static std::atomic<unsigned> next{0};
  thread_local int shard =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                       kMetricShards);
  return shard;
}

}  // namespace internal

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

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    OSD_CHECK(it->second.type == MetricType::kCounter);
    return *it->second.counter;
  }
  counters_.emplace_back();
  Entry entry;
  entry.type = MetricType::kCounter;
  entry.counter = &counters_.back();
  by_name_.emplace(name, entry);
  help_by_family_.emplace(MetricFamily(name), help);
  return counters_.back();
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    OSD_CHECK(it->second.type == MetricType::kGauge);
    return *it->second.gauge;
  }
  gauges_.emplace_back();
  Entry entry;
  entry.type = MetricType::kGauge;
  entry.gauge = &gauges_.back();
  by_name_.emplace(name, entry);
  help_by_family_.emplace(MetricFamily(name), help);
  return gauges_.back();
}

std::vector<MetricSnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(by_name_.size());
  for (const auto& [name, entry] : by_name_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.family = MetricFamily(name);
    const auto help = help_by_family_.find(snap.family);
    if (help != help_by_family_.end()) snap.help = help->second;
    snap.type = entry.type;
    snap.value = entry.type == MetricType::kCounter
                     ? static_cast<double>(entry.counter->Value())
                     : entry.gauge->Value();
    out.push_back(std::move(snap));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace obs
}  // namespace osd
