// Shared test helpers: definition-level brute-force implementations of the
// four spatial dominance operators, scalar references for the point-box and
// point-set distance kernels, and small random object generators.
//
// The brute-force implementations deliberately share no code with the
// library's checkers: S-SD/SS-SD check the CDF inequality at every support
// point, P-SD enumerates the Hall condition over instance subsets, and
// F-SD scans all (q, u, v) triples. They are the oracles the optimized
// checkers are validated against. Likewise the distance references walk
// one Point at a time; the library has only the kernels (geom/kernels.h),
// and kernels_test holds them bit-equal to these loops.

#ifndef OSD_TESTS_TEST_UTIL_H_
#define OSD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/filter_config.h"
#include "geom/metric.h"
#include "nnfun/n1_functions.h"
#include "object/dataset.h"
#include "object/uncertain_object.h"

namespace osd {
namespace test {

// Per-axis point-box terms: squared (L2) and plain (L1) distance from
// coordinate t to the interval [lo, hi] and to its farther endpoint.
inline double RefMinDistSq1D(double t, double lo, double hi) {
  if (t < lo) return (lo - t) * (lo - t);
  if (t > hi) return (t - hi) * (t - hi);
  return 0.0;
}

inline double RefMaxDistSq1D(double t, double lo, double hi) {
  const double a = t - lo;
  const double b = hi - t;
  const double m = std::max(std::abs(a), std::abs(b));
  return m * m;
}

inline double RefAxisMin(double t, double lo, double hi) {
  if (t < lo) return lo - t;
  if (t > hi) return t - hi;
  return 0.0;
}

inline double RefAxisMax(double t, double lo, double hi) {
  return std::max(std::abs(t - lo), std::abs(hi - t));
}

// Scalar reference for kernels::KernelSet::box_min: the per-axis terms
// summed in component order, rooted once under L2.
inline double RefPointBoxMin(const Mbr& box, const Point& q, Metric metric) {
  double s = 0.0;
  for (int i = 0; i < box.dim(); ++i) {
    s += metric == Metric::kL2 ? RefMinDistSq1D(q[i], box.lo()[i], box.hi()[i])
                               : RefAxisMin(q[i], box.lo()[i], box.hi()[i]);
  }
  return metric == Metric::kL2 ? std::sqrt(s) : s;
}

// Scalar reference for kernels::KernelSet::box_max.
inline double RefPointBoxMax(const Mbr& box, const Point& q, Metric metric) {
  double s = 0.0;
  for (int i = 0; i < box.dim(); ++i) {
    s += metric == Metric::kL2 ? RefMaxDistSq1D(q[i], box.lo()[i], box.hi()[i])
                               : RefAxisMax(q[i], box.lo()[i], box.hi()[i]);
  }
  return metric == Metric::kL2 ? std::sqrt(s) : s;
}

// Scalar references for kernels::KernelSet::set_min / set_max. Under L2
// the extreme is taken over squared distances and rooted once.
inline double RefSetDist(const Point& x, std::span<const Point> set,
                         Metric metric, bool farthest) {
  double best = farthest ? 0.0 : std::numeric_limits<double>::infinity();
  for (const Point& y : set) {
    const double d = metric == Metric::kL2 ? SquaredDistance(x, y)
                                           : PointDistance(x, y, metric);
    if (farthest ? d > best : d < best) best = d;
  }
  return metric == Metric::kL2 ? std::sqrt(best) : best;
}

// Scalar reference for kernels::KernelSet::row_extremes: the nearest and
// farthest instance of `obj` from q, one rooted distance at a time.
inline void RefRowExtremes(const Point& q, const UncertainObject& obj,
                           Metric metric, double* min_out, double* max_out) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = 0.0;
  for (int j = 0; j < obj.num_instances(); ++j) {
    const double d = PointDistance(q, obj.Instance(j), metric);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  *min_out = mn;
  *max_out = mx;
}

inline bool DistributionsEqual(const UncertainObject& u,
                               const UncertainObject& v,
                               const UncertainObject& q,
                               Metric metric = Metric::kL2) {
  return DiscreteDistribution::ApproxEqual(DistanceDistribution(u, q, metric),
                                           DistanceDistribution(v, q, metric));
}

// CDF-definition stochastic order on merged distributions.
inline bool BruteLeqSt(const DiscreteDistribution& x,
                       const DiscreteDistribution& y) {
  std::vector<double> support;
  for (const auto& a : x.atoms()) support.push_back(a.value);
  for (const auto& a : y.atoms()) support.push_back(a.value);
  for (double v : support) {
    if (x.CdfAt(v) + 1e-9 < y.CdfAt(v)) return false;
  }
  return true;
}

// Each operator's brute force takes a metric under a separate name (not a
// defaulted parameter), so that the L2 form stays usable as a
// three-argument dominance callback.
inline bool BruteSSdUnder(const UncertainObject& u, const UncertainObject& v,
                          const UncertainObject& q, Metric metric) {
  if (DistributionsEqual(u, v, q, metric)) return false;
  return BruteLeqSt(DistanceDistribution(u, q, metric),
                    DistanceDistribution(v, q, metric));
}

inline bool BruteSSd(const UncertainObject& u, const UncertainObject& v,
                     const UncertainObject& q) {
  return BruteSSdUnder(u, v, q, Metric::kL2);
}

inline bool BruteSsSdUnder(const UncertainObject& u, const UncertainObject& v,
                           const UncertainObject& q, Metric metric) {
  if (DistributionsEqual(u, v, q, metric)) return false;
  for (int qi = 0; qi < q.num_instances(); ++qi) {
    const Point qp = q.Instance(qi);
    if (!BruteLeqSt(DistanceDistribution(u, qp, metric),
                    DistanceDistribution(v, qp, metric))) {
      return false;
    }
  }
  return true;
}

inline bool BruteSsSd(const UncertainObject& u, const UncertainObject& v,
                      const UncertainObject& q) {
  return BruteSsSdUnder(u, v, q, Metric::kL2);
}

inline bool BruteFSdUnder(const UncertainObject& u, const UncertainObject& v,
                          const UncertainObject& q, Metric metric) {
  if (DistributionsEqual(u, v, q, metric)) return false;
  for (int qi = 0; qi < q.num_instances(); ++qi) {
    const Point qp = q.Instance(qi);
    for (int ui = 0; ui < u.num_instances(); ++ui) {
      for (int vj = 0; vj < v.num_instances(); ++vj) {
        if (PointDistance(qp, u.Instance(ui), metric) >
            PointDistance(qp, v.Instance(vj), metric) + 1e-12) {
          return false;
        }
      }
    }
  }
  return true;
}

inline bool BruteFSd(const UncertainObject& u, const UncertainObject& v,
                     const UncertainObject& q) {
  return BruteFSdUnder(u, v, q, Metric::kL2);
}

// P-SD for objects of any size: a dominating match exists iff the
// admissible-pair network carries all of V's mass (the max-flow form of
// the Hall condition BrutePSd enumerates). Simple Edmonds-Karp on an
// adjacency matrix; BrutePSd's objects above 20 instances come here.
inline bool BrutePSdByFlow(const UncertainObject& u, const UncertainObject& v,
                           const UncertainObject& q,
                           Metric metric = Metric::kL2) {
  if (DistributionsEqual(u, v, q, metric)) return false;
  const int nu = u.num_instances();
  const int nv = v.num_instances();
  // Nodes: source 0, U 1..nu, V nu+1..nu+nv, sink nu+nv+1.
  const int n = nu + nv + 2;
  const int sink = n - 1;
  std::vector<std::vector<double>> cap(n, std::vector<double>(n, 0.0));
  double mass = 0.0;
  for (int i = 0; i < nu; ++i) cap[0][1 + i] = u.Prob(i);
  for (int j = 0; j < nv; ++j) {
    cap[1 + nu + j][sink] = v.Prob(j);
    mass += v.Prob(j);
    for (int i = 0; i < nu; ++i) {
      bool leq = true;
      for (int qi = 0; qi < q.num_instances() && leq; ++qi) {
        const Point qp = q.Instance(qi);
        leq = PointDistance(qp, u.Instance(i), metric) <=
              PointDistance(qp, v.Instance(j), metric) + 1e-12;
      }
      if (leq) cap[1 + i][1 + nu + j] = 2.0;
    }
  }
  double flow = 0.0;
  for (;;) {  // Edmonds-Karp
    std::vector<int> parent(n, -1);
    parent[0] = 0;
    std::vector<int> queue = {0};
    for (size_t h = 0; h < queue.size() && parent[sink] < 0; ++h) {
      for (int w = 0; w < n; ++w) {
        if (parent[w] < 0 && cap[queue[h]][w] > 1e-12) {
          parent[w] = queue[h];
          queue.push_back(w);
        }
      }
    }
    if (parent[sink] < 0) break;
    double push = 2.0;
    for (int w = sink; w != 0; w = parent[w]) {
      push = std::min(push, cap[parent[w]][w]);
    }
    for (int w = sink; w != 0; w = parent[w]) {
      cap[parent[w]][w] -= push;
      cap[w][parent[w]] += push;
    }
    flow += push;
  }
  return flow >= mass - 1e-9;
}

// P-SD via the Hall condition on the admissible-pair bipartite graph:
// a dominating match exists iff, for every subset T of V's instances,
// p(T) <= p(N(T)). Enumerates the subsets for up to 20 instances per
// object, and checks the max-flow form above that.
inline bool BrutePSdUnder(const UncertainObject& u, const UncertainObject& v,
                          const UncertainObject& q, Metric metric) {
  const int nu = u.num_instances();
  const int nv = v.num_instances();
  if (nu > 20 || nv > 20) return BrutePSdByFlow(u, v, q, metric);
  if (DistributionsEqual(u, v, q, metric)) return false;
  std::vector<uint32_t> neighbors(nv, 0);
  for (int j = 0; j < nv; ++j) {
    for (int i = 0; i < nu; ++i) {
      bool leq = true;
      for (int qi = 0; qi < q.num_instances() && leq; ++qi) {
        const Point qp = q.Instance(qi);
        if (PointDistance(qp, u.Instance(i), metric) >
            PointDistance(qp, v.Instance(j), metric) + 1e-12) {
          leq = false;
        }
      }
      if (leq) neighbors[j] |= (1u << i);
    }
    if (neighbors[j] == 0) return false;
  }
  for (uint32_t mask = 1; mask < (1u << nv); ++mask) {
    double demand = 0.0;
    uint32_t nbr = 0;
    for (int j = 0; j < nv; ++j) {
      if (mask & (1u << j)) {
        demand += v.Prob(j);
        nbr |= neighbors[j];
      }
    }
    double supply = 0.0;
    for (int i = 0; i < nu; ++i) {
      if (nbr & (1u << i)) supply += u.Prob(i);
    }
    if (demand > supply + 1e-9) return false;
  }
  return true;
}

inline bool BrutePSd(const UncertainObject& u, const UncertainObject& v,
                     const UncertainObject& q) {
  return BrutePSdUnder(u, v, q, Metric::kL2);
}

/// The brute force of an instance operator (not F+-SD) under `metric`.
inline bool BruteUnder(Operator op, const UncertainObject& u,
                       const UncertainObject& v, const UncertainObject& q,
                       Metric metric) {
  switch (op) {
    case Operator::kSSd:
      return BruteSSdUnder(u, v, q, metric);
    case Operator::kSsSd:
      return BruteSsSdUnder(u, v, q, metric);
    case Operator::kPSd:
      return BrutePSdUnder(u, v, q, metric);
    default:
      return BruteFSdUnder(u, v, q, metric);
  }
}

/// Random object: `m` instances uniform in a box of the given edge around
/// a random center in [0, span]^dim; uniform probabilities.
inline UncertainObject RandomObject(int id, int dim, int m, double span,
                                    double edge, Rng& rng) {
  std::vector<double> coords;
  Point center(dim);
  for (int d = 0; d < dim; ++d) center[d] = rng.Uniform(0.0, span);
  for (int k = 0; k < m; ++k) {
    for (int d = 0; d < dim; ++d) {
      coords.push_back(center[d] + rng.Uniform(-edge / 2, edge / 2));
    }
  }
  return UncertainObject::Uniform(id, dim, std::move(coords));
}

/// A dataset whose NNC traversal keeps one object parked from its first
/// pop to its very last: `n` three-instance objects in [0, 100]^2, then a
/// wide object (index `n`) with instances at (-400, -400) and (500, 500).
/// Its MBR contains every query in [0, 100]^2, so its MBR key is 0, but
/// its exact min distance is the largest of all, and every other object
/// dominates it under every operator.
inline std::vector<UncertainObject> ParkingObjects(int n, Rng& rng) {
  std::vector<UncertainObject> objects;
  for (int i = 0; i < n; ++i) {
    objects.push_back(RandomObject(i, 2, 3, 100.0, 2.0, rng));
  }
  objects.push_back(
      UncertainObject::Uniform(n, 2, {-400.0, -400.0, 500.0, 500.0}));
  return objects;
}

/// Lattice object: `m` instances on integer coordinates in [0, span]^dim,
/// uniform probabilities. Such objects produce massive distance ties and
/// exact duplicates.
inline UncertainObject LatticeObject(int id, int dim, int m, int span,
                                     Rng& rng) {
  std::vector<double> coords;
  for (int k = 0; k < m * dim; ++k) {
    coords.push_back(static_cast<double>(rng.UniformInt(0, span)));
  }
  return UncertainObject::Uniform(id, dim, std::move(coords));
}

/// Random object with non-uniform instance probabilities.
inline UncertainObject RandomWeightedObject(int id, int dim, int m,
                                            double span, double edge,
                                            Rng& rng) {
  std::vector<double> coords;
  std::vector<double> weights;
  Point center(dim);
  for (int d = 0; d < dim; ++d) center[d] = rng.Uniform(0.0, span);
  for (int k = 0; k < m; ++k) {
    for (int d = 0; d < dim; ++d) {
      coords.push_back(center[d] + rng.Uniform(-edge / 2, edge / 2));
    }
    weights.push_back(rng.Uniform(0.5, 2.0));
  }
  return UncertainObject::FromWeighted(id, dim, std::move(coords),
                                       std::move(weights));
}

/// Brute-force NNC per Definition 6 for a given brute dominance predicate.
template <typename DominatesFn>
std::vector<int> BruteNnc(const std::vector<UncertainObject>& objects,
                          const UncertainObject& query, DominatesFn dominates,
                          int exclude_id = -1) {
  std::vector<int> result;
  for (size_t v = 0; v < objects.size(); ++v) {
    if (static_cast<int>(v) == exclude_id) continue;
    bool dominated = false;
    for (size_t u = 0; u < objects.size() && !dominated; ++u) {
      if (u == v || static_cast<int>(u) == exclude_id) continue;
      if (dominates(objects[u], objects[v], query)) dominated = true;
    }
    if (!dominated) result.push_back(static_cast<int>(v));
  }
  return result;
}

/// Brute-force k-NNC: an object survives while fewer than k others
/// dominate it.
template <typename DominatesFn>
std::vector<int> BruteKNnc(const std::vector<UncertainObject>& objects,
                           const UncertainObject& query,
                           DominatesFn dominates, int k) {
  std::vector<int> result;
  for (size_t v = 0; v < objects.size(); ++v) {
    int dominators = 0;
    for (size_t u = 0; u < objects.size() && dominators < k; ++u) {
      if (u == v) continue;
      if (dominates(objects[u], objects[v], query)) ++dominators;
    }
    if (dominators < k) result.push_back(static_cast<int>(v));
  }
  return result;
}


}  // namespace test
}  // namespace osd

#endif  // OSD_TESTS_TEST_UTIL_H_
