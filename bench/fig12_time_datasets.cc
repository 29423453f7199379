// Figure 12: average query response time (ms) per dataset for the five
// algorithms.
//
// Paper shape to reproduce: FSD/F+SD are fastest on most datasets thanks
// to cheap checks, PSD is slowest, and on the largest dataset (USA) the
// candidate blow-up of FSD/F+SD makes SSD/SSSD competitive or better.
//
// Two more tables follow the times, one cell per (dataset, operator): the
// answer digest (FNV-1a over every query's sorted candidates, in workload
// order) and the mean exact_checks per query. Both are deterministic, so
// scripts/run_benches.sh records them beside the times and
// scripts/check_fig12_digests.sh holds the digests to BENCH_kernels.json.

#include <array>
#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "datagen/surrogates.h"

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  using namespace osd;
  using namespace osd::bench;

  struct Entry {
    const char* name;
    Dataset dataset;
  };
  std::printf("=== Figure 12: avg query response time (ms) per dataset ===\n\n");

  std::vector<Entry> entries;
  entries.push_back(
      {"A-N", GenerateSynthetic(
                  DefaultSynthetic(CenterDistribution::kAntiCorrelated))});
  entries.push_back(
      {"E-N",
       GenerateSynthetic(DefaultSynthetic(CenterDistribution::kIndependent))});
  entries.push_back({"HOUSE", HouseLike(1, 8'000)});
  entries.push_back({"CA", CaLike(1)});
  entries.push_back({"NBA", NbaLike(1)});
  entries.push_back({"GW", GowallaLike(1)});
  entries.push_back({"USA", UsaLike(30'000, 10, 400.0, 1)});

  PrintTableHeader("dataset");
  std::vector<std::array<uint64_t, 5>> digests;
  std::vector<std::array<double, 5>> exact_checks;
  for (const auto& entry : entries) {
    const auto workload = GenerateWorkload(entry.dataset, DefaultWorkload());
    double row[5];
    int i = 0;
    digests.emplace_back();
    exact_checks.emplace_back();
    for (Operator op : kAlgorithms) {
      const WorkloadSummary s = RunNncWorkload(entry.dataset, workload, op);
      row[i] = s.avg_ms;
      digests.back()[i] = s.digest;
      exact_checks.back()[i] =
          static_cast<double>(s.stats.exact_checks) / s.queries;
      ++i;
    }
    PrintRow(entry.name, row);
  }

  std::printf("\n=== Answer digests (FNV-1a, sorted candidates) ===\n\n");
  std::printf("%-12s", "digest");
  for (Operator op : kAlgorithms) std::printf(" %16s", OperatorName(op));
  std::printf("\n");
  for (size_t d = 0; d < entries.size(); ++d) {
    std::printf("%-12s", entries[d].name);
    for (const uint64_t h : digests[d]) std::printf(" %016" PRIx64, h);
    std::printf("\n");
  }

  std::printf("\n=== Mean exact_checks per query ===\n\n");
  PrintTableHeader("exact_checks");
  for (size_t d = 0; d < entries.size(); ++d) {
    PrintRow(entries[d].name, exact_checks[d].data());
  }
  return 0;
}
