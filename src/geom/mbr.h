// Minimal bounding rectangles (MBRs) and the optimal O(d) MBR dominance
// decision of Emrich et al., "Boosting Spatial Pruning: On Optimal Pruning
// of MBRs" (SIGMOD 2010), which the paper uses as the F-SD test on object
// approximations (the F+-SD operator) and as a cover-based validation rule
// for all other operators (Theorem 4).

#ifndef OSD_GEOM_MBR_H_
#define OSD_GEOM_MBR_H_

#include <limits>

#include "geom/point.h"

namespace osd {

/// Axis-aligned minimal bounding rectangle in d-dimensional space.
///
/// A default-constructed Mbr is empty (valid() is false) and can be grown
/// with Expand(). Degenerate boxes (lo == hi) represent single points.
class Mbr {
 public:
  Mbr() : lo_(), hi_(), valid_(false) {}

  /// Box spanning exactly one point.
  explicit Mbr(const Point& p) : lo_(p), hi_(p), valid_(true) {}

  /// Box with explicit corners; lo[i] <= hi[i] must hold per dimension.
  Mbr(const Point& lo, const Point& hi);

  bool valid() const { return valid_; }
  int dim() const { return lo_.dim(); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Grows the box to include `p`.
  void Expand(const Point& p);

  /// Grows the box to include `other`.
  void Expand(const Mbr& other);

  /// True iff `p` lies inside (or on the boundary of) this box.
  bool Contains(const Point& p) const;

  /// True iff `other` is fully inside this box.
  bool Contains(const Mbr& other) const;

  /// True iff this box and `other` intersect.
  bool Intersects(const Mbr& other) const;

  /// Center of the box along dimension i.
  double Center(int i) const { return 0.5 * (lo_[i] + hi_[i]); }

  /// Squared minimal distance between any points of the two boxes.
  double MinSquaredDist(const Mbr& other) const;

 private:
  Point lo_;
  Point hi_;
  bool valid_;
};

/// Optimal MBR-based spatial dominance [Emrich et al. 2010].
///
/// Decides in O(d) whether, for EVERY point q in `qbox`, every point of
/// `ubox` is at least as close to q as every point of `vbox`:
///
///   max_{q in qbox} [ maxdist(q, ubox)^2 - mindist(q, vbox)^2 ] <= 0
///
/// The squared distances decompose per dimension, so the maximization is
/// solved independently on each axis by evaluating the piecewise-quadratic
/// difference at its at most five candidate maximizers.
bool MbrDominates(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox);

/// The quantity MbrDominates compares with zero:
/// max over q in qbox of maxdist(q, ubox)^2 - mindist(q, vbox)^2.
double MaxDominanceGap(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox);

/// Strict variant: maxdist(q, ubox) < mindist(q, vbox) for all q in qbox.
/// Used for validation rules, where strictness guarantees the dominated
/// object's distance distribution differs from the dominator's.
bool MbrStrictlyDominates(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox);

}  // namespace osd

#endif  // OSD_GEOM_MBR_H_
