// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary regenerates one figure of the paper's evaluation
// (Section 6 / Appendix C) and prints the same rows/series the figure
// plots. Parameters follow Table 2 with documented scale-downs (see
// EXPERIMENTS.md) so each binary finishes in seconds on one laptop core.

#ifndef OSD_BENCH_BENCH_UTIL_H_
#define OSD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/workload.h"

namespace osd {
namespace bench {

/// The five NNC algorithms of Section 6, in the paper's order.
inline const Operator kAlgorithms[] = {Operator::kSSd, Operator::kSsSd,
                                       Operator::kPSd, Operator::kFSd,
                                       Operator::kFPlusSd};

/// Scaled defaults of Table 2 (paper defaults in comments).
struct ScaledDefaults {
  static constexpr int kDim = 3;            // d      (paper: 3)
  static constexpr int kNumObjects = 10'000;  // n    (paper: 100k, 1:10)
  static constexpr int kObjInstances = 40;  // m_d    (paper: 40)
  static constexpr double kObjEdge = 400.0; // h_d    (paper: 400)
  static constexpr int kQueryInstances = 30;  // m_q  (paper: 30)
  static constexpr double kQueryEdge = 200.0; // h_q  (paper: 200)
  static constexpr int kNumQueries = 5;     // workload (paper: 100, 1:20)
};

inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/// One FNV-1a (64-bit) step over the eight bytes of `v`, low byte first.
inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// One query's answer digest: FNV-1a over the candidate count and the
/// sorted candidate ids, the same digest osdbench prints per query.
inline uint64_t CandidateDigest(std::vector<int> candidates) {
  std::sort(candidates.begin(), candidates.end());
  uint64_t h = Fnv1a(kFnvOffset, candidates.size());
  for (const int c : candidates) h = Fnv1a(h, static_cast<uint64_t>(c));
  return h;
}

/// Aggregated result of one (dataset, operator) workload run.
struct WorkloadSummary {
  double avg_candidates = 0.0;
  double avg_ms = 0.0;
  FilterStats stats;
  long queries = 0;
  /// FNV-1a over every query's CandidateDigest, in workload order.
  uint64_t digest = kFnvOffset;
};

/// Runs the NNC search for every workload query and averages.
inline WorkloadSummary RunNncWorkload(
    const Dataset& dataset, const std::vector<QueryWorkloadEntry>& workload,
    Operator op, FilterConfig filters = FilterConfig::All()) {
  WorkloadSummary summary;
  NncOptions options;
  options.op = op;
  options.filters = filters;
  for (const auto& entry : workload) {
    NncOptions per_query = options;
    per_query.exclude_id = entry.seeded_from;
    const NncResult result =
        NncSearch(dataset, per_query).Run(entry.query);
    summary.avg_candidates += static_cast<double>(result.candidates.size());
    summary.digest = Fnv1a(summary.digest, CandidateDigest(result.candidates));
    summary.avg_ms += result.seconds * 1e3;
    summary.stats += result.stats;
    ++summary.queries;
  }
  if (summary.queries > 0) {
    summary.avg_candidates /= summary.queries;
    summary.avg_ms /= summary.queries;
  }
  return summary;
}

/// Default synthetic dataset (A-N / E-N) with one parameter overridden by
/// the caller before generation.
inline SyntheticParams DefaultSynthetic(CenterDistribution centers) {
  SyntheticParams p;
  p.dim = ScaledDefaults::kDim;
  p.num_objects = ScaledDefaults::kNumObjects;
  p.instances_per_object = ScaledDefaults::kObjInstances;
  p.object_edge = ScaledDefaults::kObjEdge;
  p.centers = centers;
  p.seed = 20150531;  // SIGMOD'15 opening day
  return p;
}

inline WorkloadParams DefaultWorkload() {
  WorkloadParams wp;
  wp.num_queries = ScaledDefaults::kNumQueries;
  wp.query_instances = ScaledDefaults::kQueryInstances;
  wp.query_edge = ScaledDefaults::kQueryEdge;
  wp.seed = 424242;
  return wp;
}

inline void PrintTableHeader(const char* xlabel) {
  std::printf("%-12s", xlabel);
  for (Operator op : kAlgorithms) std::printf(" %12s", OperatorName(op));
  std::printf("\n");
}

inline void PrintRow(const char* label, const double values[5]) {
  std::printf("%-12s", label);
  for (int i = 0; i < 5; ++i) std::printf(" %12.1f", values[i]);
  std::printf("\n");
}

/// Nearest-rank percentile, p in [0, 1]: the smallest sample that at least
/// a p share of the samples do not exceed. Sorts `v`; 0 when it is empty.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps p * n from rounding up past an exact integer rank.
  const double rank = std::ceil(p * static_cast<double>(v.size()) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace bench
}  // namespace osd

#endif  // OSD_BENCH_BENCH_UTIL_H_
