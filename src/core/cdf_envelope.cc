#include "core/cdf_envelope.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/failpoint.h"
#include "common/interrupt.h"
#include "common/memory_budget.h"
#include "index/rtree.h"

namespace osd {

namespace {

constexpr double kEps = 1e-9;

// Work caps for the refinement loop. Each undecided round costs two
// sort-and-sweep passes over the frontier, so deep refinement quickly
// exceeds the exact merge-scan it is meant to spare and is cut off here.
constexpr int kMaxRounds = 4;
constexpr int kMaxSegments = 64;

// One frontier element: a subtree, a single instance, or an exact atom.
struct Seg {
  enum Kind { kNode, kInstance, kAtom } kind;
  int32_t ref;   // node id (kNode) or instance id (kInstance); -1 for atoms
  double lo;     // lower bound on the distance of every atom below
  double hi;     // upper bound
  double prob;   // total probability mass
};

// Checks "X-CDF(x) >= Y-CDF(x) for all x" over two step functions given as
// unsorted jump lists, reporting whether a strict gap exists anywhere.
// Returns false as soon as Y's CDF exceeds X's.
//
// Jumps within kEps of each other are merged into one cluster and the CDFs
// are compared only after the whole cluster is absorbed. The envelope
// bounds are tight only up to floating-point rounding — in particular the
// instance/node upper bounds maximize over the hull query instances, and
// in degenerate symmetric configurations (several query instances exactly
// equidistant from a support point) a non-hull instance's computed
// distance can exceed the hull maximum by an ulp. With an exact == merge
// such epsilon-adjacent support points split into separate steps, and a
// mid-cluster comparison can see one side's mass before the other's:
// whenever the split mass exceeds the kEps *mass* slack this transiently
// refutes — i.e. wrongly prunes — a pair the exact merge-scan
// (stochastic_order.cc) would keep. Tolerance-grouping restores the
// invariant that every comparison happens at a point where both step
// functions have absorbed all mass attributable to the same real distance.
// Clusters anchor at their first value (no chaining drift): well-separated
// jumps, which genuine dominance gaps are made of, are never merged.
bool StepLeq(std::vector<std::pair<double, double>> x_jumps,
             std::vector<std::pair<double, double>> y_jumps, bool* strict,
             FilterStats* stats) {
  std::sort(x_jumps.begin(), x_jumps.end());
  std::sort(y_jumps.begin(), y_jumps.end());
  size_t i = 0, j = 0;
  double cum_x = 0.0, cum_y = 0.0;
  bool saw_strict = false;
  long steps = 0;
  while (i < x_jumps.size() || j < y_jumps.size()) {
    double v = std::numeric_limits<double>::infinity();
    if (i < x_jumps.size()) v = x_jumps[i].first;
    if (j < y_jumps.size()) v = std::min(v, y_jumps[j].first);
    const double limit = v + kEps;
    while (i < x_jumps.size() && x_jumps[i].first <= limit) {
      cum_x += x_jumps[i].second;
      ++i;
      ++steps;
    }
    while (j < y_jumps.size() && y_jumps[j].first <= limit) {
      cum_y += y_jumps[j].second;
      ++j;
      ++steps;
    }
    if (cum_x + kEps < cum_y) {
      if (stats != nullptr) stats->node_ops += steps;
      return false;
    }
    if (cum_x > cum_y + kEps) saw_strict = true;
  }
  if (stats != nullptr) stats->node_ops += steps;
  if (strict != nullptr) *strict = saw_strict;
  return true;
}

// Shared refinement state for one side (object) of the comparison.
class Frontier {
 public:
  Frontier(const UncertainObject& obj, const QueryContext& ctx,
           bool geometric, FilterStats* stats)
      : obj_(&obj),
        ctx_(&ctx),
        qidx_(geometric ? ctx.pruning_indices() : ctx.all_indices()),
        stats_(stats) {
    const RTree& tree = obj.LocalTree();
    segs_.push_back(MakeNodeSeg(tree.root()));
  }

  const std::vector<Seg>& segs() const { return segs_; }

  // Splits the widest refinable segment; returns false if none remains.
  bool RefineWidest() {
    int best = -1;
    double width = kEps;
    for (int i = 0; i < static_cast<int>(segs_.size()); ++i) {
      if (segs_[i].kind == Seg::kAtom) continue;
      const double w = segs_[i].hi - segs_[i].lo;
      if (w > width) {
        width = w;
        best = i;
      }
    }
    if (best < 0) return false;
    const Seg seg = segs_[best];
    segs_[best] = segs_.back();
    segs_.pop_back();
    const RTree& tree = obj_->LocalTree();
    if (seg.kind == Seg::kNode) {
      const RTree::Node& node = tree.nodes()[seg.ref];
      if (node.is_leaf) {
        for (int32_t e : node.children) {
          segs_.push_back(MakeInstanceSeg(tree.entries()[e].id));
        }
      } else {
        for (int32_t c : node.children) segs_.push_back(MakeNodeSeg(c));
      }
    } else {  // kInstance -> exact atoms, one per query instance
      const Point p = obj_->Instance(seg.ref);
      const double pu = obj_->Prob(seg.ref);
      for (int qi = 0; qi < ctx_->num_instances(); ++qi) {
        const double d = PointDistance(ctx_->points()[qi], p, ctx_->metric());
        segs_.push_back({Seg::kAtom, -1, d, d, pu * ctx_->probs()[qi]});
      }
      if (stats_ != nullptr) stats_->dist_evals += ctx_->num_instances();
    }
    return true;
  }

  int size() const { return static_cast<int>(segs_.size()); }

 private:
  Seg MakeNodeSeg(int32_t node_id) {
    const RTree::Node& node = obj_->LocalTree().nodes()[node_id];
    const double lo = MbrMinDist(node.box, ctx_->mbr(), ctx_->metric());
    double hi = 0.0;
    for (int qi : qidx_) {
      hi = std::max(hi,
                    MbrMaxDist(node.box, ctx_->points()[qi], ctx_->metric()));
    }
    if (stats_ != nullptr) stats_->node_ops += 1 + static_cast<long>(qidx_.size());
    return {Seg::kNode, node_id, lo, hi, node.weight};
  }

  Seg MakeInstanceSeg(int32_t inst_id) {
    const Point p = obj_->Instance(inst_id);
    // Lower bound must hold over ALL query instances, so use the query MBR;
    // the upper bound may use the hull (maxdist is convex in q for every
    // supported metric, so its maximum over Q is attained at a vertex).
    const double lo = MbrMinDist(ctx_->mbr(), Mbr(p), ctx_->metric());
    double hi = 0.0;
    for (int qi : qidx_) {
      hi = std::max(hi, PointDistance(ctx_->points()[qi], p, ctx_->metric()));
    }
    if (stats_ != nullptr) {
      stats_->node_ops += 1;
      stats_->dist_evals += static_cast<long>(qidx_.size());
    }
    return {Seg::kInstance, inst_id, lo, hi, obj_->Prob(inst_id)};
  }

  const UncertainObject* obj_;
  const QueryContext* ctx_;
  const std::vector<int>& qidx_;
  FilterStats* stats_;
  std::vector<Seg> segs_;
};

std::vector<std::pair<double, double>> JumpsAt(
    const std::vector<Seg>& segs, bool at_hi) {
  std::vector<std::pair<double, double>> jumps;
  jumps.reserve(segs.size());
  for (const Seg& s : segs) jumps.emplace_back(at_hi ? s.hi : s.lo, s.prob);
  return jumps;
}

}  // namespace

EnvelopeDecision EnvelopeSSd(const UncertainObject& u,
                             const UncertainObject& v,
                             const QueryContext& ctx, bool geometric,
                             FilterStats* stats) {
  // The refinement loop's footprint is bounded by the segment cap: two
  // frontiers plus the jump lists StepLeq sorts each round. Charged up
  // front as one transient block so an over-budget query breaches before
  // the loop allocates anything.
  memory::ScopedCharge env_mem("envelope.frontier");
  env_mem.Add(4L * (kMaxSegments + ctx.num_instances() + 8) *
              static_cast<long>(sizeof(Seg)));
  Frontier fu(u, ctx, geometric, stats);
  Frontier fv(v, ctx, geometric, stats);
  for (int round = 0; round < kMaxRounds; ++round) {
    // Each refinement round doubles the frontier work, so rounds are
    // interrupt points: a query past its deadline stops here instead of
    // finishing the envelope (NncSearch turns the throw into its usual
    // early-termination result).
    interrupt::Poll();
    OSD_FAILPOINT("envelope.round");
    // Validation: lowCDF_U (mass at seg.hi) >= upCDF_V (mass at seg.lo).
    bool strict = false;
    if (StepLeq(JumpsAt(fu.segs(), /*at_hi=*/true),
                JumpsAt(fv.segs(), /*at_hi=*/false), &strict, stats) &&
        strict) {
      if (stats != nullptr) ++stats->level_decisions;
      return EnvelopeDecision::kDominates;
    }
    // Pruning: upCDF_U (mass at seg.lo) must stay >= lowCDF_V (mass at
    // seg.hi) everywhere, or S-SD is impossible.
    if (!StepLeq(JumpsAt(fu.segs(), /*at_hi=*/false),
                 JumpsAt(fv.segs(), /*at_hi=*/true), nullptr, stats)) {
      if (stats != nullptr) ++stats->level_decisions;
      return EnvelopeDecision::kNotDominates;
    }
    if (fu.size() + fv.size() > kMaxSegments) break;
    const bool refined_u = fu.RefineWidest();
    const bool refined_v = fv.RefineWidest();
    if (!refined_u && !refined_v) break;  // both at exact atom granularity
  }
  return EnvelopeDecision::kUndecided;
}

}  // namespace osd
