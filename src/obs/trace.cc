#include "obs/trace.h"

#include <cstdio>
#include <utility>

#include "common/check.h"

namespace osd {
namespace obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTraversal: return "traversal";
    case SpanKind::kCleanup: return "cleanup";
    case SpanKind::kFrontierDrain: return "frontier_drain";
    case SpanKind::kDominanceCheck: return "dominance_check";
    case SpanKind::kStatFilter: return "stat_filter";
    case SpanKind::kCoverFilter: return "cover_filter";
    case SpanKind::kLevelFilter: return "level_filter";
    case SpanKind::kGeometricFilter: return "geometric_filter";
    case SpanKind::kExactCheck: return "exact_check";
    case SpanKind::kFlowRun: return "flow_run";
    case SpanKind::kLocalTreeBuild: return "local_tree_build";
  }
  return "unknown";
}

namespace {

void Append(std::string* out, const char* fmt, auto... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n < 0) return;
  if (n < static_cast<int>(sizeof(buf))) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), fmt, args...);
  big.resize(static_cast<size_t>(n));
  *out += big;
}

}  // namespace

Trace::Trace(std::string label)
    : label_(std::move(label)), epoch_(std::chrono::steady_clock::now()) {}

void Trace::Begin(SpanKind kind) {
  const auto now = std::chrono::steady_clock::now();
  int recorded = -1;
  if (static_cast<int>(spans_.size()) < kMaxRecordedSpans) {
    recorded = static_cast<int>(spans_.size());
    spans_.push_back(
        {kind, open_.empty() ? -1 : open_.back().recorded,
         std::chrono::duration<double>(now - epoch_).count(), 0.0});
  } else {
    ++dropped_;
  }
  open_.push_back({kind, recorded, now});
}

void Trace::End() {
  OSD_CHECK(!open_.empty());
  const Open open = open_.back();
  open_.pop_back();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    open.start)
          .count();
  SpanAggregate& agg = aggregates_[static_cast<int>(open.kind)];
  ++agg.count;
  agg.seconds += seconds;
  if (open.recorded >= 0) spans_[open.recorded].seconds = seconds;
}

void Trace::AddBytes(long bytes) {
  if (bytes <= 0) return;
  total_bytes_ += bytes;
  if (open_.empty()) return;
  const Open& innermost = open_.back();
  aggregates_[static_cast<int>(innermost.kind)].bytes += bytes;
  if (innermost.recorded >= 0) spans_[innermost.recorded].bytes += bytes;
}

void Trace::SetSummary(const FilterStats& filters, long objects_examined,
                       long entries_pruned, long candidates,
                       const char* termination, long mem_peak_bytes) {
  have_summary_ = true;
  filters_ = filters;
  objects_examined_ = objects_examined;
  entries_pruned_ = entries_pruned;
  candidates_ = candidates;
  termination_ = termination;
  mem_peak_bytes_ = mem_peak_bytes;
}

std::string Trace::ToJson() const {
  std::string out = "{";
  Append(&out, "\"label\":\"%s\"", label_.c_str());
  if (have_summary_) {
    Append(&out,
           ",\"summary\":{\"termination\":\"%s\",\"candidates\":%ld,"
           "\"objects_examined\":%ld,\"entries_pruned\":%ld,",
           termination_, candidates_, objects_examined_, entries_pruned_);
    filters_.AppendJson(&out);
    Append(&out, ",\"mem_peak_bytes\":%ld}", mem_peak_bytes_);
  }
  out += ",\"aggregates\":{";
  bool first = true;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const SpanAggregate& agg = aggregates_[k];
    if (agg.count == 0) continue;
    Append(&out, "%s\"%s\":{\"count\":%ld,\"ms\":%.4f,\"bytes\":%ld}",
           first ? "" : ",", SpanKindName(static_cast<SpanKind>(k)),
           agg.count, agg.seconds * 1e3, agg.bytes);
    first = false;
  }
  out += "},\"spans\":[";
  for (size_t s = 0; s < spans_.size(); ++s) {
    const Span& span = spans_[s];
    Append(&out, "%s{\"kind\":\"%s\",\"parent\":%d,\"start_ms\":%.4f,"
           "\"ms\":%.4f,\"bytes\":%ld}",
           s == 0 ? "" : ",", SpanKindName(span.kind), span.parent,
           span.start_seconds * 1e3, span.seconds * 1e3, span.bytes);
  }
  Append(&out, "],\"mem_charged_bytes\":%ld,\"dropped_spans\":%ld}",
         total_bytes_, dropped_);
  return out;
}

}  // namespace obs
}  // namespace osd
