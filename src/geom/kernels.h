// Batched, dimension-specialized distance kernels for the dominance hot
// path.
//
// Every dominance check ultimately consumes distance views of an
// (object, query) pair, and profiling shows the scalar substrate — one
// Point copy plus a runtime-dimension loop plus a metric switch per
// evaluated pair — dominates the cost of matrix materialization. The
// kernels here fix all of that statically: the dimensionality (1..8) and
// the metric are template parameters resolved by one dispatch per query
// (QueryContext construction), and each kernel consumes a contiguous
// column-major (SoA) coordinate block so the compiler vectorizes the
// instance loop with unit-stride loads.
//
// Determinism contract (load-bearing — candidate sets, golden files, and
// the engine determinism tests depend on it): every kernel is bit-exact
// with a Point-at-a-time scalar reference.
//  - Per-element accumulation order is fixed: component k = 0..d-1 in
//    order, exactly like Distance()/PointDistance(), so each distance is
//    the same IEEE double the scalar code produces. Vectorization across
//    *instances* never reorders the per-instance sum.
//  - The library is built with -ffp-contract=off, so no build (e.g.
//    -march=native with FMA) fuses a multiply-add the reference rounds
//    twice.
//  - sqrt is applied per element (IEEE-correctly-rounded scalar or vector
//    sqrt are bit-identical).
//  - The row-extremes kernel, the profile's one statistics pass, folds
//    min and max over 8 independent lanes on the unrooted sums (squared
//    L2, or L1) and roots the two results once. min and max are
//    order-independent on non-negative doubles, and the correctly rounded
//    sqrt is monotone, so both are bit-identical to a scalar min/max fold
//    of the rooted row.
// kernels_test asserts all of this with EXPECT_EQ against the scalar
// references (PointDistance, and the point-box / point-set oracles in
// tests/test_util.h) for every dimension, both metrics, and ragged block
// tails. The kernels are the library's only point-box and point-set
// distance path.

#ifndef OSD_GEOM_KERNELS_H_
#define OSD_GEOM_KERNELS_H_

#include <cstddef>

#include "geom/metric.h"
#include "geom/point.h"

namespace osd {
namespace kernels {

/// Instance-count granule of the padded SoA coordinate blocks
/// (object/uncertain_object.h pads every component column to a multiple of
/// kBlockPad doubles so kernel loops can be unrolled without scalar tails).
inline constexpr int kBlockPad = 8;

/// Padded column length for m instances.
inline constexpr size_t PaddedCount(int m) {
  return (static_cast<size_t>(m) + kBlockPad - 1) / kBlockPad * kBlockPad;
}

/// dist(q, x_j) for j in [0, m), written to out[0..m). `block` is a
/// column-major coordinate block: component k of instance j lives at
/// block[k * stride + j]; stride >= m.
using BatchDistanceFn = void (*)(const double* q, const double* block,
                                 size_t stride, int m, double* out);

/// Row extremes without materializing the row: *min_out = min_j
/// dist(q, x_j), *max_out = max_j, bit-identical to a scalar fold of
/// BatchDistanceFn's row.
using RowExtremesFn = void (*)(const double* q, const double* block,
                               size_t stride, int m, double* min_out,
                               double* max_out);

/// Minimal / maximal distance from point q to the box [lo, hi].
using PointBoxDistFn = double (*)(const double* q, const double* lo,
                                  const double* hi);

/// Minimal / maximal distance from q to a strided point set (row j begins
/// at base + j * row_stride; row_stride is in doubles). Serves AoS layouts
/// such as Point arrays.
using StridedSetDistFn = double (*)(const double* q, const double* base,
                                    size_t row_stride, int m);

/// One query's worth of dispatched kernels: resolved once per query
/// (QueryContext construction) so the hot loops pay no per-call dispatch.
struct KernelSet {
  int dim = 0;
  Metric metric = Metric::kL2;
  BatchDistanceFn batch_distance = nullptr;
  RowExtremesFn row_extremes = nullptr;
  PointBoxDistFn box_min = nullptr;
  PointBoxDistFn box_max = nullptr;
  StridedSetDistFn set_min = nullptr;
  StridedSetDistFn set_max = nullptr;
};

/// The kernel set for (dim, metric); dim must be in [1, Point::kMaxDim].
/// The returned reference is to a static table entry and stays valid for
/// the process lifetime; safe to call from any thread.
const KernelSet& Get(int dim, Metric metric);

}  // namespace kernels
}  // namespace osd

#endif  // OSD_GEOM_KERNELS_H_
