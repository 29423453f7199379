#include "geom/kernels.h"

#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace osd {
namespace kernels {

namespace {

// Per-element accumulators. Component order k = 0..D-1 is fixed so every
// result is bit-identical to the scalar reference (Distance /
// PointDistance); see the determinism contract in kernels.h.

template <int D>
inline double SquaredL2At(const double* q, const double* block, size_t stride,
                          size_t j) {
  double s = 0.0;
  for (int k = 0; k < D; ++k) {
    const double d = q[k] - block[static_cast<size_t>(k) * stride + j];
    s += d * d;
  }
  return s;
}

template <int D>
inline double SumL1At(const double* q, const double* block, size_t stride,
                      size_t j) {
  double s = 0.0;
  for (int k = 0; k < D; ++k) {
    s += std::abs(q[k] - block[static_cast<size_t>(k) * stride + j]);
  }
  return s;
}

template <int D, Metric M>
void BatchDistanceImpl(const double* q, const double* block, size_t stride,
                       int m, double* out) {
  // One independent sum per instance: the compiler vectorizes this loop
  // across j with unit-stride loads per component, which never reorders
  // the (fixed, per-instance) component accumulation.
  for (int j = 0; j < m; ++j) {
    if constexpr (M == Metric::kL2) {
      out[j] = std::sqrt(SquaredL2At<D>(q, block, stride, j));
    } else {
      out[j] = SumL1At<D>(q, block, stride, j);
    }
  }
}

// Independent min/max lanes of the row-extremes kernel: one vector's worth
// of instances per step, so the compiler keeps each lane in a register.
constexpr int kExtremeLanes = 8;

template <int D, Metric M>
void RowExtremesImpl(const double* q, const double* block, size_t stride,
                     int m, double* min_out, double* max_out) {
  // Unrooted sums: squared L2 or L1. Each lane folds every kExtremeLanes-th
  // instance; the tail goes to lane 0.
  auto sum_at = [&](int j) {
    if constexpr (M == Metric::kL2) {
      return SquaredL2At<D>(q, block, stride, j);
    } else {
      return SumL1At<D>(q, block, stride, j);
    }
  };
  double lo[kExtremeLanes];
  double hi[kExtremeLanes];
  for (int l = 0; l < kExtremeLanes; ++l) {
    lo[l] = std::numeric_limits<double>::infinity();
    hi[l] = 0.0;
  }
  int j = 0;
  for (; j + kExtremeLanes <= m; j += kExtremeLanes) {
    for (int l = 0; l < kExtremeLanes; ++l) {
      const double s = sum_at(j + l);
      lo[l] = std::min(lo[l], s);
      hi[l] = std::max(hi[l], s);
    }
  }
  for (; j < m; ++j) {
    const double s = sum_at(j);
    lo[0] = std::min(lo[0], s);
    hi[0] = std::max(hi[0], s);
  }
  double mn = lo[0];
  double mx = hi[0];
  for (int l = 1; l < kExtremeLanes; ++l) {
    mn = std::min(mn, lo[l]);
    mx = std::max(mx, hi[l]);
  }
  if constexpr (M == Metric::kL2) {
    mn = std::sqrt(mn);
    mx = std::sqrt(mx);
  }
  *min_out = mn;
  *max_out = mx;
}

// Point-vs-box per-axis contributions, the same terms as geom/mbr.cc
// (MinDistSq1D / MaxDistSq1D) and geom/metric.cc (AxisMin / AxisMax) use
// in the MBR dominance gaps; tests/test_util.h holds the scalar reference
// the kernels are checked against bit for bit.

inline double MinDistSq1D(double t, double lo, double hi) {
  if (t < lo) return (lo - t) * (lo - t);
  if (t > hi) return (t - hi) * (t - hi);
  return 0.0;
}

inline double MaxDistSq1D(double t, double lo, double hi) {
  const double a = t - lo;
  const double b = hi - t;
  const double m = std::max(std::abs(a), std::abs(b));
  return m * m;
}

inline double AxisMin(double t, double lo, double hi) {
  if (t < lo) return lo - t;
  if (t > hi) return t - hi;
  return 0.0;
}

inline double AxisMax(double t, double lo, double hi) {
  return std::max(std::abs(t - lo), std::abs(hi - t));
}

template <int D, Metric M>
double PointBoxMinImpl(const double* q, const double* lo, const double* hi) {
  double s = 0.0;
  for (int k = 0; k < D; ++k) {
    if constexpr (M == Metric::kL2) {
      s += MinDistSq1D(q[k], lo[k], hi[k]);
    } else {
      s += AxisMin(q[k], lo[k], hi[k]);
    }
  }
  if constexpr (M == Metric::kL2) return std::sqrt(s);
  return s;
}

template <int D, Metric M>
double PointBoxMaxImpl(const double* q, const double* lo, const double* hi) {
  double s = 0.0;
  for (int k = 0; k < D; ++k) {
    if constexpr (M == Metric::kL2) {
      s += MaxDistSq1D(q[k], lo[k], hi[k]);
    } else {
      s += AxisMax(q[k], lo[k], hi[k]);
    }
  }
  if constexpr (M == Metric::kL2) return std::sqrt(s);
  return s;
}

// Strided (AoS) set kernels. For L2 the minimum/maximum is tracked on the
// squared distances and rooted once at the end — monotonicity of the
// correctly-rounded sqrt makes this bit-identical to rooting per element
// first.

template <int D, Metric M>
double StridedSetMinImpl(const double* q, const double* base,
                         size_t row_stride, int m) {
  double best = std::numeric_limits<double>::infinity();
  for (int j = 0; j < m; ++j) {
    const double* x = base + static_cast<size_t>(j) * row_stride;
    double s = 0.0;
    for (int k = 0; k < D; ++k) {
      if constexpr (M == Metric::kL2) {
        const double d = q[k] - x[k];
        s += d * d;
      } else {
        s += std::abs(q[k] - x[k]);
      }
    }
    best = std::min(best, s);
  }
  if constexpr (M == Metric::kL2) return std::sqrt(best);
  return best;
}

template <int D, Metric M>
double StridedSetMaxImpl(const double* q, const double* base,
                         size_t row_stride, int m) {
  double best = 0.0;
  for (int j = 0; j < m; ++j) {
    const double* x = base + static_cast<size_t>(j) * row_stride;
    double s = 0.0;
    for (int k = 0; k < D; ++k) {
      if constexpr (M == Metric::kL2) {
        const double d = q[k] - x[k];
        s += d * d;
      } else {
        s += std::abs(q[k] - x[k]);
      }
    }
    best = std::max(best, s);
  }
  if constexpr (M == Metric::kL2) return std::sqrt(best);
  return best;
}

template <int D, Metric M>
constexpr KernelSet MakeKernelSet() {
  KernelSet set;
  set.dim = D;
  set.metric = M;
  set.batch_distance = &BatchDistanceImpl<D, M>;
  set.row_extremes = &RowExtremesImpl<D, M>;
  set.box_min = &PointBoxMinImpl<D, M>;
  set.box_max = &PointBoxMaxImpl<D, M>;
  set.set_min = &StridedSetMinImpl<D, M>;
  set.set_max = &StridedSetMaxImpl<D, M>;
  return set;
}

template <Metric M>
constexpr std::array<KernelSet, Point::kMaxDim> MakeMetricTable() {
  return {MakeKernelSet<1, M>(), MakeKernelSet<2, M>(), MakeKernelSet<3, M>(),
          MakeKernelSet<4, M>(), MakeKernelSet<5, M>(), MakeKernelSet<6, M>(),
          MakeKernelSet<7, M>(), MakeKernelSet<8, M>()};
}

constexpr std::array<KernelSet, Point::kMaxDim> kL2Table =
    MakeMetricTable<Metric::kL2>();
constexpr std::array<KernelSet, Point::kMaxDim> kL1Table =
    MakeMetricTable<Metric::kL1>();

}  // namespace

const KernelSet& Get(int dim, Metric metric) {
  OSD_CHECK(dim >= 1 && dim <= Point::kMaxDim);
  const auto& table = metric == Metric::kL2 ? kL2Table : kL1Table;
  return table[dim - 1];
}

}  // namespace kernels
}  // namespace osd
