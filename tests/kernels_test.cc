// The distance-kernel determinism contract (geom/kernels.h).
//
// Every kernel must be bit-exact with a Point-at-a-time scalar reference:
// candidate sets, golden files, and the engine determinism tests all
// assume that a distance is the same double on every code path. The unit
// tests here compare each kernel with EXPECT_EQ against its reference —
// PointDistance for the batched row kernel, the test_util.h oracles for
// the row-extremes, point-box and point-set kernels — for every dimension
// 1..8, both metrics, and ragged block tails. The end-to-end test runs
// concurrent queries through the shared dispatch tables.

#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/nnc_search.h"
#include "core/query_context.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "geom/kernels.h"
#include "geom/metric.h"
#include "geom/point.h"
#include "object/uncertain_object.h"
#include "test_util.h"

namespace osd {
namespace {

// Ragged and aligned instance counts: below / at / above the pad granule
// and the extremes kernel's lane width, plus long rows.
const int kCounts[] = {1, 2, 3, 7, 8, 9, 31, 64, 65, 127, 128, 129, 200};

UncertainObject RandomObject(int id, int dim, int m, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(-100.0, 100.0);
  std::vector<double> coords(static_cast<size_t>(m) * dim);
  for (double& c : coords) c = coord(rng);
  return UncertainObject::Uniform(id, dim, std::move(coords));
}

Point RandomPoint(int dim, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(-100.0, 100.0);
  std::vector<double> c(dim);
  for (double& x : c) x = coord(rng);
  return Point(c.data(), dim);
}

TEST(KernelsTest, PaddedCountRoundsUpToBlockPad) {
  EXPECT_EQ(kernels::PaddedCount(1), static_cast<size_t>(kernels::kBlockPad));
  EXPECT_EQ(kernels::PaddedCount(8), 8u);
  EXPECT_EQ(kernels::PaddedCount(9), 16u);
  EXPECT_EQ(kernels::PaddedCount(16), 16u);
}

TEST(KernelsTest, SoaLayoutMatchesInstancesAndPadsWithLastInstance) {
  std::mt19937_64 rng(1);
  for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
    for (int m : {1, 3, 8, 9}) {
      const UncertainObject obj = RandomObject(0, dim, m, rng);
      const double* soa = obj.soa_coords();
      const size_t stride = obj.soa_stride();
      ASSERT_EQ(stride, kernels::PaddedCount(m));
      for (int k = 0; k < dim; ++k) {
        for (int j = 0; j < m; ++j) {
          EXPECT_EQ(soa[k * stride + j], obj.Instance(j)[k]);
        }
        for (size_t j = m; j < stride; ++j) {
          EXPECT_EQ(soa[k * stride + j], obj.Instance(m - 1)[k]);
        }
      }
    }
  }
}

TEST(KernelsTest, BatchDistanceBitExactAllDimsMetricsAndTails) {
  std::mt19937_64 rng(2);
  for (Metric metric : {Metric::kL2, Metric::kL1}) {
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      const kernels::KernelSet& ks = kernels::Get(dim, metric);
      ASSERT_EQ(ks.dim, dim);
      ASSERT_EQ(ks.metric, metric);
      for (int m : kCounts) {
        const UncertainObject obj = RandomObject(0, dim, m, rng);
        const Point q = RandomPoint(dim, rng);
        std::vector<double> out(m, -1.0);
        ks.batch_distance(q.data(), obj.soa_coords(), obj.soa_stride(), m,
                          out.data());
        for (int j = 0; j < m; ++j) {
          const double ref = PointDistance(q, obj.Instance(j), metric);
          EXPECT_EQ(out[j], ref) << "metric=" << static_cast<int>(metric)
                                 << " dim=" << dim << " m=" << m
                                 << " j=" << j;
        }
      }
    }
  }
}

// The extremes kernel folds unrooted sums over independent lanes and
// roots twice per row; it must still return the rooted per-instance min
// and max, bit for bit. kCounts covers m = 1, partial lane groups and
// multi-group rows.
TEST(KernelsTest, RowExtremesBitExactAgainstScalarReference) {
  std::mt19937_64 rng(7);
  for (Metric metric : {Metric::kL2, Metric::kL1}) {
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      const kernels::KernelSet& ks = kernels::Get(dim, metric);
      for (int m : kCounts) {
        const UncertainObject obj = RandomObject(0, dim, m, rng);
        const Point q = RandomPoint(dim, rng);
        double mn = -1.0, mx = -1.0;
        ks.row_extremes(q.data(), obj.soa_coords(), obj.soa_stride(), m, &mn,
                        &mx);
        double rmn = -1.0, rmx = -1.0;
        test::RefRowExtremes(q, obj, metric, &rmn, &rmx);
        EXPECT_EQ(mn, rmn) << "metric=" << static_cast<int>(metric)
                           << " dim=" << dim << " m=" << m;
        EXPECT_EQ(mx, rmx) << "metric=" << static_cast<int>(metric)
                           << " dim=" << dim << " m=" << m;
      }
    }
  }
}

TEST(KernelsTest, PointBoxKernelsBitExactAgainstScalarMbrDistances) {
  std::mt19937_64 rng(4);
  for (Metric metric : {Metric::kL2, Metric::kL1}) {
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      const kernels::KernelSet& ks = kernels::Get(dim, metric);
      for (int rep = 0; rep < 20; ++rep) {
        const Point a = RandomPoint(dim, rng);
        const Point b = RandomPoint(dim, rng);
        Mbr box;
        box.Expand(a);
        box.Expand(b);
        // Inside, outside, and boundary query points.
        for (const Point& q :
             {RandomPoint(dim, rng), a, b}) {
          const double ref_min = test::RefPointBoxMin(box, q, metric);
          const double ref_max = test::RefPointBoxMax(box, q, metric);
          EXPECT_EQ(ks.box_min(q.data(), box.lo().data(), box.hi().data()),
                    ref_min);
          EXPECT_EQ(ks.box_max(q.data(), box.lo().data(), box.hi().data()),
                    ref_max);
          EXPECT_EQ(MbrMinDist(box, q, metric), ref_min);
          EXPECT_EQ(MbrMaxDist(box, q, metric), ref_max);
        }
      }
    }
  }
}

TEST(KernelsTest, StridedSetKernelsBitExactAgainstScalarSetDistances) {
  std::mt19937_64 rng(5);
  constexpr size_t kPointStride = sizeof(Point) / sizeof(double);
  for (Metric metric : {Metric::kL2, Metric::kL1}) {
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      const kernels::KernelSet& ks = kernels::Get(dim, metric);
      for (int m : {1, 2, 7, 31}) {
        std::vector<Point> set;
        set.reserve(m);
        for (int j = 0; j < m; ++j) set.push_back(RandomPoint(dim, rng));
        const Point q = RandomPoint(dim, rng);
        const double ref_min = test::RefSetDist(q, set, metric, false);
        const double ref_max = test::RefSetDist(q, set, metric, true);
        EXPECT_EQ(ks.set_min(q.data(), set.front().data(), kPointStride, m),
                  ref_min)
            << "metric=" << static_cast<int>(metric) << " dim=" << dim;
        EXPECT_EQ(ks.set_max(q.data(), set.front().data(), kPointStride, m),
                  ref_max)
            << "metric=" << static_cast<int>(metric) << " dim=" << dim;
        if (metric == Metric::kL2) {
          EXPECT_EQ(MinDistanceToSet(q, set), ref_min) << "dim=" << dim;
          EXPECT_EQ(MaxDistanceToSet(q, set), ref_max) << "dim=" << dim;
        }
      }
    }
  }
}

// --- End-to-end -----------------------------------------------------------

// Concurrent Run calls: the dispatch tables are immutable statics and
// every arena is thread-local, so this must be race-free under TSan.
TEST(KernelsEndToEndTest, ConcurrentRunsWithKernelsAreRaceFree) {
  SyntheticParams sp;
  sp.dim = 2;
  sp.num_objects = 120;
  sp.instances_per_object = 5;
  sp.seed = 5;
  const Dataset dataset = GenerateSynthetic(sp);
  WorkloadParams wp;
  wp.num_queries = 4;
  wp.query_instances = 4;
  wp.seed = 41;
  const auto workload = GenerateWorkload(dataset, wp);

  NncOptions options;
  options.op = Operator::kPSd;
  const NncSearch search(dataset, options);
  std::vector<std::vector<int>> results(workload.size());
  std::vector<std::thread> threads;
  threads.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    threads.emplace_back([&, i] {
      NncOptions o = options;
      o.exclude_id = workload[i].seeded_from;
      results[i] = NncSearch(dataset, o).Run(workload[i].query).candidates;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < workload.size(); ++i) {
    NncOptions o = options;
    o.exclude_id = workload[i].seeded_from;
    EXPECT_EQ(NncSearch(dataset, o).Run(workload[i].query).candidates,
              results[i]);
  }
}

}  // namespace
}  // namespace osd
