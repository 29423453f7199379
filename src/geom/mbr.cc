#include "geom/mbr.h"

#include <algorithm>
#include <cmath>

namespace osd {

namespace {

// Per-dimension contribution to maxdist(q, box)^2: squared distance from
// coordinate t to the farther endpoint of [lo, hi].
double MaxDistSq1D(double t, double lo, double hi) {
  const double a = t - lo;
  const double b = hi - t;
  const double m = std::max(std::abs(a), std::abs(b));
  return m * m;
}

// Per-dimension contribution to mindist(q, box)^2: squared distance from
// coordinate t to the interval [lo, hi] (zero inside).
double MinDistSq1D(double t, double lo, double hi) {
  if (t < lo) return (lo - t) * (lo - t);
  if (t > hi) return (t - hi) * (t - hi);
  return 0.0;
}

// max over t in [qlo, qhi] of MaxDistSq1D(t, u) - MinDistSq1D(t, v).
//
// The difference is piecewise quadratic with breakpoints at the midpoint of
// u (where the max-side switches endpoints) and at v's endpoints (where the
// min-side changes branch). On every piece the t^2 terms either cancel
// (linear piece) or the function is an upward parabola (max at a piece
// endpoint), so the global maximum over the interval is attained at one of
// at most five candidate coordinates.
double MaxDiff1D(double qlo, double qhi, double ulo, double uhi, double vlo,
                 double vhi) {
  double best = -std::numeric_limits<double>::infinity();
  const double candidates[5] = {qlo, qhi, 0.5 * (ulo + uhi), vlo, vhi};
  for (double t : candidates) {
    if (t < qlo || t > qhi) continue;
    const double f = MaxDistSq1D(t, ulo, uhi) - MinDistSq1D(t, vlo, vhi);
    if (f > best) best = f;
  }
  return best;
}

}  // namespace

// Sum over dimensions of the per-axis maxima; the tight upper bound on
// maxdist(q,U)^2 - mindist(q,V)^2 over all q in qbox.
double MaxDominanceGap(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox) {
  OSD_CHECK(ubox.valid() && vbox.valid() && qbox.valid());
  OSD_CHECK(ubox.dim() == vbox.dim() && ubox.dim() == qbox.dim());
  double total = 0.0;
  for (int i = 0; i < qbox.dim(); ++i) {
    total += MaxDiff1D(qbox.lo()[i], qbox.hi()[i], ubox.lo()[i], ubox.hi()[i],
                       vbox.lo()[i], vbox.hi()[i]);
  }
  return total;
}

Mbr::Mbr(const Point& lo, const Point& hi) : lo_(lo), hi_(hi), valid_(true) {
  OSD_CHECK(lo.dim() == hi.dim());
  for (int i = 0; i < lo.dim(); ++i) OSD_CHECK(lo[i] <= hi[i]);
}

void Mbr::Expand(const Point& p) {
  if (!valid_) {
    lo_ = p;
    hi_ = p;
    valid_ = true;
    return;
  }
  OSD_DCHECK(p.dim() == lo_.dim());
  for (int i = 0; i < p.dim(); ++i) {
    lo_[i] = std::min(lo_[i], p[i]);
    hi_[i] = std::max(hi_[i], p[i]);
  }
}

void Mbr::Expand(const Mbr& other) {
  if (!other.valid_) return;
  Expand(other.lo_);
  Expand(other.hi_);
}

bool Mbr::Contains(const Point& p) const {
  if (!valid_) return false;
  OSD_DCHECK(p.dim() == lo_.dim());
  for (int i = 0; i < p.dim(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

bool Mbr::Contains(const Mbr& other) const {
  if (!valid_ || !other.valid_) return false;
  return Contains(other.lo_) && Contains(other.hi_);
}

bool Mbr::Intersects(const Mbr& other) const {
  if (!valid_ || !other.valid_) return false;
  OSD_DCHECK(other.dim() == dim());
  for (int i = 0; i < dim(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

double Mbr::MinSquaredDist(const Mbr& other) const {
  OSD_DCHECK(valid_ && other.valid_ && other.dim() == dim());
  double s = 0.0;
  for (int i = 0; i < dim(); ++i) {
    double gap = 0.0;
    if (other.hi_[i] < lo_[i]) {
      gap = lo_[i] - other.hi_[i];
    } else if (other.lo_[i] > hi_[i]) {
      gap = other.lo_[i] - hi_[i];
    }
    s += gap * gap;
  }
  return s;
}

bool MbrDominates(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox) {
  return MaxDominanceGap(ubox, vbox, qbox) <= 0.0;
}

bool MbrStrictlyDominates(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox) {
  return MaxDominanceGap(ubox, vbox, qbox) < 0.0;
}

}  // namespace osd
