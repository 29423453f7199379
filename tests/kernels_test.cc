// The distance-kernel determinism contract (geom/kernels.h).
//
// Every kernel must be bit-exact with the scalar reference path it
// replaces: candidate sets, golden files, and the engine determinism tests
// all assume that switching the substrate never moves a single bit. The
// unit tests here compare each kernel against the scalar code for every
// dimension 1..8, both metrics, and ragged block tails; the end-to-end
// test runs all four operators with kernels on vs the scalar fallback flag
// and demands identical candidate sets, timelines, and work counters.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
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

using test::ScopedScalarFallback;

// Ragged and aligned instance counts: below / at / above the pad granule,
// plus multi-chunk sizes straddling the fused-pass chunk boundary.
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

TEST(KernelsTest, FusedRowStatsBitExactAgainstScalarFold) {
  std::mt19937_64 rng(3);
  for (Metric metric : {Metric::kL2, Metric::kL1}) {
    for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
      const kernels::KernelSet& ks = kernels::Get(dim, metric);
      for (int m : kCounts) {
        const UncertainObject obj = RandomObject(0, dim, m, rng);
        const Point q = RandomPoint(dim, rng);
        double mn = -1.0, mean = -1.0, mx = -1.0;
        ks.fused_row_stats(q.data(), obj.soa_coords(), obj.soa_stride(), m,
                           obj.probs().data(), &mn, &mean, &mx);
        // Scalar reference: the exact fold order of the matrix scan in
        // ObjectProfile::EnsureStats.
        double rmn = std::numeric_limits<double>::infinity();
        double rmx = 0.0;
        double rmean = 0.0;
        for (int j = 0; j < m; ++j) {
          const double d = PointDistance(q, obj.Instance(j), metric);
          rmn = std::min(rmn, d);
          rmx = std::max(rmx, d);
          rmean += d * obj.Prob(j);
        }
        EXPECT_EQ(mn, rmn) << "dim=" << dim << " m=" << m;
        EXPECT_EQ(mx, rmx) << "dim=" << dim << " m=" << m;
        EXPECT_EQ(mean, rmean) << "dim=" << dim << " m=" << m;
      }
    }
  }
}

TEST(KernelsTest, PointBoxKernelsBitExactAgainstScalarMbrDistances) {
  std::mt19937_64 rng(4);
  ScopedScalarFallback scalar(true);  // route MbrMin/MaxDist scalar
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
          EXPECT_EQ(ks.box_min(q.data(), box.lo().data(), box.hi().data()),
                    MbrMinDist(box, q, metric));
          EXPECT_EQ(ks.box_max(q.data(), box.lo().data(), box.hi().data()),
                    MbrMaxDist(box, q, metric));
        }
      }
    }
  }
}

TEST(KernelsTest, StridedSetKernelsBitExactAgainstScalarSetDistances) {
  std::mt19937_64 rng(5);
  for (int dim = 1; dim <= Point::kMaxDim; ++dim) {
    for (int m : {1, 2, 7, 31}) {
      std::vector<Point> set;
      set.reserve(m);
      for (int j = 0; j < m; ++j) set.push_back(RandomPoint(dim, rng));
      const Point q = RandomPoint(dim, rng);
      double ref_min, ref_max;
      {
        ScopedScalarFallback scalar(true);
        ref_min = MinDistanceToSet(q, set);
        ref_max = MaxDistanceToSet(q, set);
      }
      EXPECT_EQ(MinDistanceToSet(q, set), ref_min) << "dim=" << dim;
      EXPECT_EQ(MaxDistanceToSet(q, set), ref_max) << "dim=" << dim;
    }
  }
}

// --- End-to-end bit-identity ----------------------------------------------

TEST(KernelsEndToEndTest, CandidateSetsBitIdenticalKernelsVsScalarAllOps) {
  SyntheticParams sp;
  sp.dim = 3;
  sp.num_objects = 250;
  sp.instances_per_object = 6;
  sp.seed = 99;
  const Dataset dataset = GenerateSynthetic(sp);
  WorkloadParams wp;
  wp.num_queries = 6;
  wp.query_instances = 5;
  wp.seed = 17;
  const auto workload = GenerateWorkload(dataset, wp);

  constexpr Operator kOps[] = {Operator::kSSd, Operator::kSsSd,
                               Operator::kPSd, Operator::kFSd};
  for (Operator op : kOps) {
    for (const QueryWorkloadEntry& entry : workload) {
      NncOptions options;
      options.op = op;
      options.exclude_id = entry.seeded_from;

      NncResult scalar_result, kernel_result;
      {
        ScopedScalarFallback scalar(true);
        scalar_result = NncSearch(dataset, options).Run(entry.query);
      }
      {
        ScopedScalarFallback scalar(false);
        kernel_result = NncSearch(dataset, options).Run(entry.query);
      }
      SCOPED_TRACE(OperatorName(op));
      EXPECT_EQ(kernel_result.candidates, scalar_result.candidates);
      ASSERT_EQ(kernel_result.timeline.size(), scalar_result.timeline.size());
      for (size_t i = 0; i < kernel_result.timeline.size(); ++i) {
        EXPECT_EQ(kernel_result.timeline[i].object_id,
                  scalar_result.timeline[i].object_id);
      }
      // Identical pruning decisions imply identical work counters.
      EXPECT_EQ(kernel_result.stats.dominance_checks,
                scalar_result.stats.dominance_checks);
      EXPECT_EQ(kernel_result.stats.exact_checks,
                scalar_result.stats.exact_checks);
      EXPECT_EQ(kernel_result.stats.stat_prunes,
                scalar_result.stats.stat_prunes);
      EXPECT_EQ(kernel_result.objects_examined,
                scalar_result.objects_examined);
      EXPECT_EQ(kernel_result.entries_pruned, scalar_result.entries_pruned);
    }
  }
}

TEST(KernelsEndToEndTest, L1MetricBitIdenticalKernelsVsScalar) {
  SyntheticParams sp;
  sp.dim = 4;
  sp.num_objects = 150;
  sp.instances_per_object = 5;
  sp.seed = 11;
  const Dataset dataset = GenerateSynthetic(sp);
  WorkloadParams wp;
  wp.num_queries = 3;
  wp.query_instances = 4;
  wp.seed = 29;
  const auto workload = GenerateWorkload(dataset, wp);

  for (const QueryWorkloadEntry& entry : workload) {
    NncOptions options;
    options.op = Operator::kSsSd;
    options.metric = Metric::kL1;
    options.exclude_id = entry.seeded_from;
    NncResult scalar_result, kernel_result;
    {
      ScopedScalarFallback scalar(true);
      scalar_result = NncSearch(dataset, options).Run(entry.query);
    }
    {
      ScopedScalarFallback scalar(false);
      kernel_result = NncSearch(dataset, options).Run(entry.query);
    }
    EXPECT_EQ(kernel_result.candidates, scalar_result.candidates);
  }
}

// Concurrent Run calls with kernels enabled: the dispatch tables are
// immutable statics and every arena is thread-local, so this must be
// race-free under TSan.
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
