// Figure 16 (Appendix C): effectiveness of the filtering techniques.
// Average number of instance comparisons per query for SSD, SSSD and PSD
// as the number of object instances m_d grows on the HOUSE dataset, under
// five configurations:
//   BF  - no filtering (brute force)
//   P   - statistic-based pruning
//   G   - geometric (convex hull) technique
//   GP  - geometric + pruning
//   All - everything incl. cover-based rules
//
// The paper's L (level-by-level R-tree filtering) is not a column: no
// operator runs it, so the paper's L, LP, LG and LGP read as BF, P, G and
// GP here (EXPERIMENTS, Fig. 16).
//
// Paper shape to reproduce: each added technique reduces the comparison
// count; All/GP save 1-2 orders of magnitude over BF.

#include <cstdio>

#include "bench_util.h"
#include "datagen/surrogates.h"

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  using namespace osd;
  using namespace osd::bench;

  const struct {
    const char* name;
    FilterConfig config;
  } kConfigs[] = {
      {"BF", FilterConfig::BruteForce()}, {"P", FilterConfig::P()},
      {"G", FilterConfig::G()},           {"GP", FilterConfig::GP()},
      {"All", FilterConfig::All()},
  };
  const Operator kOps[] = {Operator::kSSd, Operator::kSsSd, Operator::kPSd};

  std::printf(
      "=== Figure 16: avg instance comparisons per query (HOUSE) ===\n");

  for (Operator op : kOps) {
    std::printf("\n--- %s ---\n", OperatorName(op));
    std::printf("%-6s", "m_d");
    for (const auto& c : kConfigs) std::printf(" %12s", c.name);
    std::printf("\n");
    for (int md : {20, 40, 60, 80, 100}) {
      // Smaller HOUSE surrogate so the BF column stays tractable.
      const Dataset house = HouseLike(1, 2'000, md);
      auto wp = DefaultWorkload();
      wp.num_queries = 4;
      const auto workload = GenerateWorkload(house, wp);
      std::printf("%-6d", md);
      for (const auto& c : kConfigs) {
        const WorkloadSummary s =
            RunNncWorkload(house, workload, op, c.config);
        std::printf(" %12.0f",
                    static_cast<double>(s.stats.InstanceComparisons()) /
                        s.queries);
      }
      std::printf("\n");
    }
  }
  return 0;
}
