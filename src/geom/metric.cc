#include "geom/metric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geom/kernels.h"

namespace osd {

namespace {

// Per-axis distance from coordinate t to the farther endpoint of [lo, hi].
double AxisMax(double t, double lo, double hi) {
  return std::max(std::abs(t - lo), std::abs(hi - t));
}

// Per-axis distance from coordinate t to the interval [lo, hi].
double AxisMin(double t, double lo, double hi) {
  if (t < lo) return lo - t;
  if (t > hi) return t - hi;
  return 0.0;
}

// max over t in [qlo, qhi] of AxisMax(t, u) - AxisMin(t, v): both terms
// are piecewise linear with breakpoints at u's midpoint and v's
// endpoints, so the maximum of their difference over an interval is
// attained at the interval ends or a breakpoint.
double MaxGap1D(double qlo, double qhi, double ulo, double uhi, double vlo,
                double vhi) {
  double best = -std::numeric_limits<double>::infinity();
  const double candidates[5] = {qlo, qhi, 0.5 * (ulo + uhi), vlo, vhi};
  for (double t : candidates) {
    if (t < qlo || t > qhi) continue;
    best = std::max(best, AxisMax(t, ulo, uhi) - AxisMin(t, vlo, vhi));
  }
  return best;
}

// The L1 dominance gap: max over q in qbox of [maxdist(q,U) - mindist(q,V)]
// decomposes additively per axis because L1 distances do.
double L1DominanceGap(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox) {
  OSD_CHECK(ubox.valid() && vbox.valid() && qbox.valid());
  OSD_CHECK(ubox.dim() == vbox.dim() && ubox.dim() == qbox.dim());
  double total = 0.0;
  for (int i = 0; i < qbox.dim(); ++i) {
    total += MaxGap1D(qbox.lo()[i], qbox.hi()[i], ubox.lo()[i], ubox.hi()[i],
                      vbox.lo()[i], vbox.hi()[i]);
  }
  return total;
}

}  // namespace

double PointDistance(const Point& a, const Point& b, Metric metric) {
  OSD_DCHECK(a.dim() == b.dim());
  switch (metric) {
    case Metric::kL2:
      return Distance(a, b);
    case Metric::kL1: {
      double s = 0.0;
      for (int i = 0; i < a.dim(); ++i) s += std::abs(a[i] - b[i]);
      return s;
    }
  }
  return 0.0;
}

double MbrMinDist(const Mbr& box, const Point& q, Metric metric) {
  return kernels::Get(box.dim(), metric)
      .box_min(q.data(), box.lo().data(), box.hi().data());
}

double MbrMaxDist(const Mbr& box, const Point& q, Metric metric) {
  return kernels::Get(box.dim(), metric)
      .box_max(q.data(), box.lo().data(), box.hi().data());
}

double MbrMinDist(const Mbr& a, const Mbr& b, Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return std::sqrt(a.MinSquaredDist(b));
    case Metric::kL1: {
      double s = 0.0;
      for (int i = 0; i < a.dim(); ++i) {
        if (b.hi()[i] < a.lo()[i]) {
          s += a.lo()[i] - b.hi()[i];
        } else if (b.lo()[i] > a.hi()[i]) {
          s += b.lo()[i] - a.hi()[i];
        }
      }
      return s;
    }
  }
  return 0.0;
}

bool MbrDominatesM(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox,
                   Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return MbrDominates(ubox, vbox, qbox);
    case Metric::kL1:
      return L1DominanceGap(ubox, vbox, qbox) <= 0.0;
  }
  return false;
}

bool MbrStrictlyDominatesM(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox,
                           Metric metric, double margin) {
  switch (metric) {
    case Metric::kL2: {
      const double gap = MaxDominanceGap(ubox, vbox, qbox);
      if (gap >= 0.0 || margin == 0.0) return gap < 0.0;
      // The L2 gap is on squared distances. Where u is closer, maxdist(q, U)
      // < mindist(q, V) <= r, the farthest distance between qbox and vbox,
      // so a squared gap below -2 * margin * r leaves a distance gap above
      // margin.
      double r2 = 0.0;
      for (int i = 0; i < qbox.dim(); ++i) {
        const double a = std::max(std::abs(qbox.hi()[i] - vbox.lo()[i]),
                                  std::abs(vbox.hi()[i] - qbox.lo()[i]));
        r2 += a * a;
      }
      return gap < -2.0 * margin * std::sqrt(r2);
    }
    case Metric::kL1:
      return L1DominanceGap(ubox, vbox, qbox) < -margin;
  }
  return false;
}

}  // namespace osd
