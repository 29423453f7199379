#include "obs/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace osd {
namespace obs {

namespace {

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Integral values print without a decimal point so counters stay exact;
/// everything else uses shortest-round-trip-ish %g. An integral value
/// other than -0 prints through std::to_chars, which writes the same
/// digits as "%.0f" at a fraction of snprintf's cost.
void AppendValue(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    if (v != 0 || !std::signbit(v)) {
      out->append(buf, std::to_chars(buf, buf + sizeof(buf),
                                     static_cast<long long>(v))
                           .ptr);
      return;
    }
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  out->append(buf);
}

std::string FormatValue(double v) {
  std::string out;
  AppendValue(&out, v);
  return out;
}

/// The "le" label of every latency bucket, formatted once.
const std::array<std::string, kLatencyBuckets>& BucketLabels() {
  static const std::array<std::string, kLatencyBuckets> labels = [] {
    std::array<std::string, kLatencyBuckets> out;
    for (int b = 0; b < kLatencyBuckets; ++b) {
      char le[32];
      std::snprintf(le, sizeof(le), "%g", LatencyBucketUpperSeconds(b));
      out[b] = le;
    }
    return out;
  }();
  return labels;
}

}  // namespace

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderPrometheusMetrics(
    const std::vector<MetricSnapshot>& metrics) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : metrics) {
    if (m.family != last_family) {
      last_family = m.family;
      if (!m.help.empty()) {
        out += "# HELP " + m.family + " " + m.help + "\n";
      }
      out += "# TYPE " + m.family + " " + TypeName(m.type) + "\n";
    }
    // Appends "<name><suffix> <value>\n".
    const auto line = [&out](const std::string& name, const char* suffix,
                             double value) {
      out += name;
      out += suffix;
      out += ' ';
      AppendValue(&out, value);
      out += '\n';
    };
    switch (m.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        line(m.name, "", m.value);
        break;
      case MetricType::kHistogram: {
        const auto& labels = BucketLabels();
        long cumulative = 0;
        for (size_t b = 0; b < m.buckets.size() && b < labels.size(); ++b) {
          cumulative += m.buckets[b];
          out += m.family;
          out += "_bucket{le=\"";
          out += labels[b];
          out += "\"} ";
          AppendValue(&out, static_cast<double>(cumulative));
          out += '\n';
        }
        line(m.family, "_bucket{le=\"+Inf\"}", static_cast<double>(m.count));
        line(m.family, "_sum", m.sum);
        line(m.family, "_count", static_cast<double>(m.count));
        if (m.invalid > 0) {
          out += "# TYPE " + m.family + "_invalid_total counter\n";
          line(m.family, "_invalid_total", static_cast<double>(m.invalid));
        }
        break;
      }
    }
  }
  return out;
}

std::string RenderJsonMetrics(const std::vector<MetricSnapshot>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + EscapeJson(m.name) + "\":{\"type\":\"";
    out += TypeName(m.type);
    out += "\"";
    switch (m.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += ",\"value\":" + FormatValue(m.value);
        break;
      case MetricType::kHistogram: {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ",\"count\":%ld,\"invalid\":%ld,\"sum\":%.6f",
                      m.count, m.invalid, m.sum);
        out += buf;
        out += ",\"buckets\":[";
        bool first_bucket = true;
        for (size_t b = 0; b < m.buckets.size(); ++b) {
          if (m.buckets[b] == 0) continue;
          std::snprintf(buf, sizeof(buf), "%s[%g,%ld]",
                        first_bucket ? "" : ",",
                        LatencyBucketUpperSeconds(static_cast<int>(b)),
                        m.buckets[b]);
          out += buf;
          first_bucket = false;
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

SlowQueryLog::SlowQueryLog(double threshold_seconds, int capacity)
    : threshold_seconds_(threshold_seconds),
      capacity_(std::max(1, capacity)) {}

void SlowQueryLog::Record(double latency_seconds, std::string entry_json) {
  if (!ShouldRecord(latency_seconds)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_total_;
  auto slower = [](const Entry& a, const Entry& b) {
    return a.latency_seconds > b.latency_seconds;  // min-heap on latency
  };
  if (static_cast<int>(entries_.size()) < capacity_) {
    entries_.push_back({latency_seconds, std::move(entry_json)});
    std::push_heap(entries_.begin(), entries_.end(), slower);
    return;
  }
  if (latency_seconds <= entries_.front().latency_seconds) return;
  std::pop_heap(entries_.begin(), entries_.end(), slower);
  entries_.back() = {latency_seconds, std::move(entry_json)};
  std::push_heap(entries_.begin(), entries_.end(), slower);
}

long SlowQueryLog::recorded_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_total_;
}

std::string SlowQueryLog::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const Entry& e : entries_) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(), [](const Entry* a, const Entry* b) {
    return a->latency_seconds > b->latency_seconds;  // slowest first
  });
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"threshold_ms\":%.4f,\"recorded_total\":%ld,\"entries\":[",
                threshold_seconds_ * 1e3, recorded_total_);
  std::string out = buf;
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (i > 0) out += ",";
    out += ordered[i]->json;
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace osd
