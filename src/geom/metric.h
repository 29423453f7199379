// Metric abstraction: Euclidean (L2) and Manhattan (L1) distances over
// points and MBRs, plus the metric-aware MBR dominance decision.
//
// The paper notes its techniques "can be trivially extended to other
// metric distances"; the one exception is the convex-hull reduction of
// query instances, which relies on bisector half-spaces and is therefore
// L2-only (under L1 the region {q : d(u,q) <= d(v,q)} need not be convex).
// QueryContext::pruning_indices() encapsulates that: it returns the hull
// under L2 and all instances otherwise. Everything else — statistic
// pruning, stochastic scans, the flow reduction, and the per-dimension
// MBR dominance decomposition — carries over unchanged (for L1 the
// per-axis gap is piecewise linear instead of piecewise quadratic, with
// the same candidate maximizers).

#ifndef OSD_GEOM_METRIC_H_
#define OSD_GEOM_METRIC_H_

#include "geom/mbr.h"
#include "geom/point.h"

namespace osd {

/// Supported distance metrics.
enum class Metric {
  kL2,  // Euclidean
  kL1,  // Manhattan
};

/// Distance between two points under the metric.
double PointDistance(const Point& a, const Point& b, Metric metric);

/// Minimal / maximal distance from a point to a box under the metric.
double MbrMinDist(const Mbr& box, const Point& q, Metric metric);
double MbrMaxDist(const Mbr& box, const Point& q, Metric metric);

/// Minimal distance between two boxes under the metric.
double MbrMinDist(const Mbr& a, const Mbr& b, Metric metric);

/// Metric-aware MBR dominance: for every q in qbox, is every point of
/// ubox at least as close to q as every point of vbox? Strict variant
/// requires closer by more than `margin`. Equivalent to MbrDominates /
/// MbrStrictlyDominates when metric == kL2 (and margin == 0).
bool MbrDominatesM(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox,
                   Metric metric);
bool MbrStrictlyDominatesM(const Mbr& ubox, const Mbr& vbox, const Mbr& qbox,
                           Metric metric, double margin = 0.0);

}  // namespace osd

#endif  // OSD_GEOM_METRIC_H_
