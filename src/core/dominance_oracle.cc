#include "core/dominance_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "flow/max_flow.h"
#include "obs/trace.h"
#include "prob/stochastic_order.h"

namespace osd {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

DominanceOracle::DominanceOracle(const QueryContext& ctx, FilterConfig config,
                                 FilterStats* stats)
    : ctx_(&ctx), config_(config), stats_(stats) {}

const std::vector<int>& DominanceOracle::QIdx() const {
  return config_.geometric ? ctx_->pruning_indices() : ctx_->all_indices();
}

bool DominanceOracle::Dominates(Operator op, ObjectProfile& u,
                                ObjectProfile& v) {
  if (stats_ != nullptr) ++stats_->dominance_checks;
  OSD_FAILPOINT("dominance.check");
  OSD_TRACE_SPAN(obs::SpanKind::kDominanceCheck);
  // F+-SD needs no instance data at all.
  if (op == Operator::kFPlusSd) {
    return MbrStrictlyDominatesM(u.object().mbr(), v.object().mbr(),
                                 ctx_->mbr(), ctx_->metric());
  }
  // Cover (Theorem 4) puts every point of u's box more than 1e-9 closer to
  // every q than every point of v's box, so u.MaxQs()[q] < v.MinQs()[q] -
  // 1e-9 at each q. Until v's statistics exist this O(d) test may settle v
  // without building them. Once they exist it decides nothing the cascades
  // would not: the stat gate never refutes a covered pair, the extremes
  // certificate holds (F-SD: the order holds), and DistributionsDiffer
  // returns at its MinAll check. Without the gate, a covered pair would
  // reach the exact stage, so the test then runs on every pair.
  if (config_.cover_rules && (!config_.stat_pruning || !v.has_stats()) &&
      CoverValidates(u, v)) {
    return true;
  }
  switch (op) {
    case Operator::kSSd:
      return SSd(u, v);
    case Operator::kSsSd:
      return SsSd(u, v);
    case Operator::kPSd:
      return PSd(u, v);
    case Operator::kFSd:
      return FSd(u, v);
    case Operator::kFPlusSd:
      break;
  }
  return false;
}

bool DominanceOracle::SSdOrderHolds(ObjectProfile& u, ObjectProfile& v) {
  return StochasticallyLeqSorted(
      u.SortedValues(), u.SortedProbs(), v.SortedValues(), v.SortedProbs(),
      stats_ != nullptr ? &stats_->scan_steps : nullptr);
}

bool DominanceOracle::SsSdOrderHolds(ObjectProfile& u, ObjectProfile& v) {
  for (int qi = 0; qi < ctx_->num_instances(); ++qi) {
    if (!StochasticallyLeqSorted(
            u.SortedQValues(qi), u.SortedQProbs(qi), v.SortedQValues(qi),
            v.SortedQProbs(qi),
            stats_ != nullptr ? &stats_->scan_steps : nullptr)) {
      return false;
    }
  }
  return true;
}

bool DominanceOracle::DistributionsDiffer(ObjectProfile& u,
                                          ObjectProfile& v) {
  // The merged distribution's first and last atoms are bit-equal to
  // MinAll / MaxAll (DESIGN §10), and ApproxEqual compares atoms with the
  // same tolerance, so differing extremes settle the question without
  // sorting the |Q| * m all-pairs distances.
  if (std::abs(u.MinAll() - v.MinAll()) > kEps ||
      std::abs(u.MaxAll() - v.MaxAll()) > kEps) {
    return true;
  }
  return !DiscreteDistribution::ApproxEqual(u.Distribution(),
                                            v.Distribution(), kEps);
}

bool DominanceOracle::Covers(const Mbr& ubox, const Mbr& vbox) const {
  return MbrStrictlyDominatesM(ubox, vbox, ctx_->mbr(), ctx_->metric(), kEps);
}

bool DominanceOracle::CoverValidates(ObjectProfile& u, ObjectProfile& v) {
  OSD_TRACE_SPAN(obs::SpanKind::kCoverFilter);
  if (!Covers(u.object().mbr(), v.object().mbr())) return false;
  if (stats_ != nullptr) ++stats_->mbr_validations;
  return true;
}

bool DominanceOracle::StatRefutesAll(ObjectProfile& u, ObjectProfile& v) {
  OSD_TRACE_SPAN(obs::SpanKind::kStatFilter);
  const bool refuted =
      u.MinAll() > v.MinAll() + kEps || u.MaxAll() > v.MaxAll() + kEps;
  if (refuted && stats_ != nullptr) ++stats_->stat_prunes;
  return refuted;
}

bool DominanceOracle::StatRefutesPerQ(ObjectProfile& u, ObjectProfile& v) {
  OSD_TRACE_SPAN(obs::SpanKind::kStatFilter);
  // One lazy-init branch per view instead of two per query instance.
  const std::span<const double> umin = u.MinQs();
  const std::span<const double> umax = u.MaxQs();
  const std::span<const double> vmin = v.MinQs();
  const std::span<const double> vmax = v.MaxQs();
  for (int qi = 0; qi < ctx_->num_instances(); ++qi) {
    if (umin[qi] > vmin[qi] + kEps || umax[qi] > vmax[qi] + kEps) {
      if (stats_ != nullptr) ++stats_->stat_prunes;
      return true;
    }
  }
  return false;
}

bool DominanceOracle::ExtremesCertify(Operator op, ObjectProfile& u,
                                      ObjectProfile& v) {
  OSD_TRACE_SPAN(obs::SpanKind::kStatFilter);
  const bool certified =
      op == Operator::kPSd
          ? ExtremesOrderHolds(u, v, QIdx(), kEps)
          : ExtremesOrderHolds(u, v, ctx_->all_indices(), 0.0);
  if (certified && stats_ != nullptr) ++stats_->stat_validations;
  return certified;
}

bool DominanceOracle::SSd(ObjectProfile& u, ObjectProfile& v) {
  // S-SD implies the min/max order (Theorem 11), so the O(1) statistic
  // gate is the only filter before the exact merge-scan: behind it,
  // node-level envelopes cost more than they decide (DESIGN §5). The
  // extremes certificate reads what the gate built.
  if (config_.stat_pruning && StatRefutesAll(u, v)) return false;
  if (config_.stat_pruning && ExtremesCertify(Operator::kSSd, u, v)) {
    return DistributionsDiffer(u, v);
  }
  OSD_TRACE_SPAN(obs::SpanKind::kExactCheck);
  if (stats_ != nullptr) ++stats_->exact_checks;
  if (!SSdOrderHolds(u, v)) return false;
  return DistributionsDiffer(u, v);
}

bool DominanceOracle::SsSd(ObjectProfile& u, ObjectProfile& v) {
  // SS-SD implies the min/max order overall and at every q
  // (Theorem 11), so the O(|Q|) statistic gate is the only filter before
  // the exact per-q scans, as in S-SD.
  if (config_.stat_pruning &&
      (StatRefutesAll(u, v) || StatRefutesPerQ(u, v))) {
    return false;
  }
  if (config_.stat_pruning && ExtremesCertify(Operator::kSsSd, u, v)) {
    return DistributionsDiffer(u, v);
  }
  OSD_TRACE_SPAN(obs::SpanKind::kExactCheck);
  if (stats_ != nullptr) ++stats_->exact_checks;
  if (!SsSdOrderHolds(u, v)) return false;
  return DistributionsDiffer(u, v);
}

bool DominanceOracle::ExtremesOrderHolds(ObjectProfile& u, ObjectProfile& v,
                                         const std::vector<int>& qidx,
                                         double tolerance) {
  const std::span<const double> umax = u.MaxQs();
  const std::span<const double> vmin = v.MinQs();
  for (int qi : qidx) {
    if (umax[qi] > vmin[qi] + tolerance) return false;
  }
  return true;
}

double DominanceOracle::MemberKey(Operator op, ObjectProfile& u) {
  if (op == Operator::kFPlusSd) return 0.0;
  if (op != Operator::kFSd) return u.MaxAll();
  // reach(u): u's largest farthest-instance distance over QIdx().
  const std::span<const double> umax = u.MaxQs();
  double reach = 0.0;
  for (int qi : QIdx()) reach = std::max(reach, umax[qi]);
  return reach;
}

double DominanceOracle::MemberKeyBound(Operator op, ObjectProfile& v) {
  if (op == Operator::kFPlusSd ||
      (op != Operator::kFSd && !config_.stat_pruning)) {
    return std::numeric_limits<double>::infinity();
  }
  // S-SD, SS-SD and P-SD imply the max condition of Theorem 11, and
  // StatRefutesAll refutes every u past this bound by the same comparison
  // in doubles.
  if (op != Operator::kFSd) return v.MaxAll() + kEps;
  // If u ⪯_F v, the F-SD order holds at the q where u's max is largest:
  // reach(u) = umax[q] <= vmin[q] + kEps <= max over QIdx() of vmin + kEps.
  // Rounded addition is monotone, so the bound holds in doubles too.
  const std::span<const double> vmin = v.MinQs();
  double bound = 0.0;
  for (int qi : QIdx()) bound = std::max(bound, vmin[qi]);
  return bound + kEps;
}

bool DominanceOracle::FSd(ObjectProfile& u, ObjectProfile& v) {
  {
    OSD_TRACE_SPAN(obs::SpanKind::kExactCheck);
    if (!ExtremesOrderHolds(u, v, QIdx(), kEps)) return false;
  }
  if (stats_ != nullptr) ++stats_->exact_checks;
  return DistributionsDiffer(u, v);
}

std::vector<int> DominanceOracle::RankCounts(ObjectProfile& u,
                                             ObjectProfile& v) {
  const std::vector<int>& qidx = QIdx();
  const int nv = v.num_instances();
  std::vector<int> counts(qidx.size() * nv);
  for (size_t k = 0; k < qidx.size(); ++k) {
    const ObjectProfile::RankView ranks = u.Ranks(qidx[k]);
    const double* vq = v.Row(qidx[k]).data();
    for (int j = 0; j < nv; ++j) counts[k * nv + j] = ranks.Count(vq[j] + kEps);
  }
  return counts;
}

bool DominanceOracle::PSdRows(ObjectProfile& u, ObjectProfile& v,
                              std::span<const int> counts,
                              std::vector<uint64_t>* rows) {
  const std::vector<int>& qidx = QIdx();
  const int nu = u.num_instances();
  const int nv = v.num_instances();
  const int words = RowWords(nu);
  OSD_CHECK(counts.size() == qidx.size() * nv);
  // One rank lookup per query instance, hoisted out of the O(nv * |Q|)
  // row loop below.
  std::vector<const uint64_t*> prefix;
  prefix.reserve(qidx.size());
  for (int qi : qidx) prefix.push_back(u.Ranks(qi).prefix);
  rows->assign(static_cast<size_t>(nv) * words, ~uint64_t{0});
  long mask_tests = 0;
  bool covered = true;
  for (int j = 0; j < nv && covered; ++j) {
    uint64_t* row = rows->data() + static_cast<size_t>(j) * words;
    row[words - 1] = LastWordMask(nu);
    // u_i <=_Q v_j iff !(d(u_i, q) > d(v_j, q) + kEps) at every q, and for
    // non-NaN distances that is d(u_i, q) <= d(v_j, q) + kEps: the rank
    // prefix of the instance count at that double threshold.
    for (size_t k = 0; k < qidx.size(); ++k) {
      ++mask_tests;
      const uint64_t* within =
          prefix[k] + static_cast<long>(counts[k * nv + j]) * words;
      uint64_t any = 0;
      for (int w = 0; w < words; ++w) any |= (row[w] &= within[w]);
      if (any == 0) {
        covered = false;  // v_j can never be matched
        break;
      }
    }
  }
  if (stats_ != nullptr) stats_->pair_tests += mask_tests;
  return covered;
}

bool DominanceOracle::ProjectedHallRefutes(ObjectProfile& u,
                                           ObjectProfile& v,
                                           std::vector<int>* counts) {
  OSD_TRACE_SPAN(obs::SpanKind::kCoverFilter);
  const std::vector<int>& qidx = QIdx();
  const int nu = u.num_instances();
  const int nv = v.num_instances();
  const int64_t slack = nu + nv;  // BipartiteFeasible's rounding slack
  const std::span<const int64_t> v_mass = v.ScaledProbs();
  counts->resize(qidx.size() * nv);
  // demand[r]: mass of the V instances whose projected neighbourhood at q
  // is u's r nearest instances there.
  std::vector<int64_t> demand(nu + 1);
  long steps = 0;
  bool refuted = false;
  for (size_t k = 0; k < qidx.size() && !refuted; ++k) {
    const ObjectProfile::RankView ranks = u.Ranks(qidx[k]);
    const double* vq = v.Row(qidx[k]).data();
    int* count = counts->data() + k * nv;
    std::fill(demand.begin(), demand.end(), 0);
    // RankCounts' threshold: the counts PSdRows reads, so this
    // neighbourhood is a superset of v_j's exact row.
    for (int j = 0; j < nv; ++j) {
      count[j] = ranks.Count(vq[j] + kEps);
      demand[count[j]] += v_mass[j];
    }
    steps += nv;
    // The neighbourhoods are nested prefixes, so Hall's condition needs
    // only the sets "every v_j whose prefix fits in the r nearest".
    int64_t needed = 0;
    for (int r = 0; r <= nu && !refuted; ++r) {
      ++steps;
      needed += demand[r];
      refuted = needed - ranks.mass[r] > slack;
    }
  }
  if (stats_ != nullptr) {
    stats_->scan_steps += steps;
    if (refuted) ++stats_->cover_prunes;
  }
  return refuted;
}

bool DominanceOracle::PSdExactOrder(ObjectProfile& u, ObjectProfile& v,
                                    std::span<const int> counts) {
  std::vector<uint64_t> rows;
  if (!PSdRows(u, v, counts, &rows)) return false;
  const FeasibilityVerdict verdict =
      BipartiteFeasible(u.num_instances(), v.num_instances(), rows,
                        u.ScaledProbs(), v.ScaledProbs());
  if (verdict.exit == FeasibilityExit::kMaxFlow && stats_ != nullptr) {
    ++stats_->flow_runs;
  }
  return verdict.feasible;
}

bool DominanceOracle::PSd(ObjectProfile& u, ObjectProfile& v) {
  // P-SD implies SS-SD implies S-SD implies the min/max order
  // (Theorem 11), so the O(|Q|) statistic gate may refute before any
  // rank view or network is built for the pair. F-SD implies P-SD: when
  // the F-SD order holds, every row of the network is full.
  if (config_.stat_pruning &&
      (StatRefutesAll(u, v) || StatRefutesPerQ(u, v))) {
    return false;
  }
  if (config_.stat_pruning && ExtremesCertify(Operator::kPSd, u, v)) {
    return DistributionsDiffer(u, v);
  }
  // Cover-based pruning: not SS-SD implies not P-SD (Theorem 2), tested
  // one q at a time on the flow's own masses and slack, so it refutes
  // only pairs the exact check below would refute. Its rank counts build
  // the exact rows.
  std::vector<int> counts;
  if (config_.cover_rules && ProjectedHallRefutes(u, v, &counts)) {
    return false;
  }
  OSD_TRACE_SPAN(obs::SpanKind::kExactCheck);
  if (stats_ != nullptr) ++stats_->exact_checks;
  if (!config_.cover_rules) counts = RankCounts(u, v);
  if (!PSdExactOrder(u, v, counts)) return false;
  return DistributionsDiffer(u, v);
}

}  // namespace osd
