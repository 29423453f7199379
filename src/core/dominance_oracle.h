// Dominance checks for the four spatial dominance operators.
//
// Implements Section 5.1 of the paper:
//  - S-SD / SS-SD: single merge-scan over sorted pairwise distances
//    (worst-case optimal, Theorem 10), statistic-based pruning on the
//    min/max conditions of Theorem 11 and an extremes certificate. No
//    operator runs the paper's level-by-level filter on local R-trees
//    (Section 5.1.1, DESIGN §5): each goes from its statistic gate
//    straight to the exact scans.
//  - P-SD: reduction to max-flow (Theorem 12) over the admissible-pair
//    bipartite network, with convex-hull reduction of the query, an
//    extremes certificate and a per-query-instance Hall certificate that
//    refutes on the flow's own masses before any network is built. P-SD
//    builds no node-level networks.
//  - F-SD: per-hull-instance farthest/nearest comparisons on the
//    profile's per-q extremes (MaxQs against MinQs).
//  - F+-SD: the MBR-level test of [Emrich et al. 2010].
//
// The four instance operators share one cover rule (Theorem 4): cover
// validation runs before an operator's own tests while the dominated
// side has no statistics, and on every pair when the statistic gate is
// off. Once the statistics exist, a covered pair passes every operator's
// cheap tests anyway (DESIGN §5).
//
// All operators enforce the U_Q != V_Q side condition from Definitions
// 2/3/5 (we also apply it to F-SD so identical objects never eliminate
// each other; the paper leaves that case unspecified).

#ifndef OSD_CORE_DOMINANCE_ORACLE_H_
#define OSD_CORE_DOMINANCE_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/filter_config.h"
#include "core/object_profile.h"
#include "core/query_context.h"

namespace osd {

/// Stateful checker bound to one query; reusable across object pairs.
///
/// Thread-safety: NOT thread-safe — it writes the FilterStats sink and
/// mutates the (lazy) ObjectProfiles passed to it without synchronization.
/// Like ObjectProfile, an oracle is per-query-execution state: each
/// NncSearch::Run call builds its own oracle over its own stats sink, so
/// concurrent Run calls never share one. The QueryContext it is bound to
/// is read-only after construction and may be shared.
class DominanceOracle {
 public:
  DominanceOracle(const QueryContext& ctx, FilterConfig config,
                  FilterStats* stats);

  /// Does `u` dominate `v` under `op`? The one entry point: it runs the
  /// cover rule, then the operator's own cascade.
  bool Dominates(Operator op, ObjectProfile& u, ObjectProfile& v);

  /// Cover (Theorem 4) with the checks' 1e-9 tolerance: for every q in
  /// the query's MBR, every point of `ubox` is closer to q than every point
  /// of `vbox` by more than 1e-9. Then everything inside ubox dominates
  /// everything inside vbox under every operator, and their distance
  /// distributions differ beyond DiscreteDistribution::ApproxEqual's
  /// tolerance; a strict test without the margin would also accept pairs
  /// whose distances tie in the reals and differ by an ulp in doubles.
  bool Covers(const Mbr& ubox, const Mbr& vbox) const;

  /// Entry k * nv + j is u.Ranks(q).Count(d(v_j, q) + 1e-9) for the k-th
  /// q of QIdx(): v_j's neighbourhood at q is that prefix of u's ranks.
  std::vector<int> RankCounts(ObjectProfile& u, ObjectProfile& v);

  /// Fills `rows` with the exact P-SD network of (u, v): RowWords(nu)
  /// words per V instance, and bit i of row j set iff u_i <=_Q v_j, i.e.
  /// u_i is within d(v_j, q) + 1e-9 of every query instance q in QIdx().
  /// Row j is the AND over q of u's rank prefix of RankCounts' `counts`.
  /// Counts one pair test per (v_j, q) mask tested. Returns false, with
  /// the rows after j unfilled, as soon as a row j comes out empty.
  bool PSdRows(ObjectProfile& u, ObjectProfile& v,
               std::span<const int> counts, std::vector<uint64_t>* rows);

  /// A member's key in the order an object's check tries the members
  /// (ascending, stable on emission order). Any k dominators settle the
  /// verdict, so the order changes only the work. S-SD, SS-SD and P-SD:
  /// its MaxAll(). F-SD: its reach, the largest MaxQs() over QIdx().
  /// F+-SD: 0, so the order is emission order and no statistics are built.
  double MemberKey(Operator op, ObjectProfile& u);

  /// No member with a key above this can dominate v under `op`, so the
  /// scan stops at the first one. S-SD, SS-SD and P-SD: v's MaxAll() plus
  /// the stat gate's tolerance, where the gate would refute every member
  /// past it (+inf with the gate off). F-SD: the largest MinQs() of v over
  /// QIdx(), plus the F-SD order's tolerance. F+-SD: +inf.
  double MemberKeyBound(Operator op, ObjectProfile& v);

  /// The U_Q != V_Q side condition: the all-pairs distance distributions
  /// differ beyond the 1e-9 tolerance of DiscreteDistribution::ApproxEqual.
  static bool DistributionsDiffer(ObjectProfile& u, ObjectProfile& v);

  const QueryContext& ctx() const { return *ctx_; }
  const FilterConfig& config() const { return config_; }

 private:
  /// Query-instance indices used by <=_Q style tests: CH(Q) when the
  /// geometric filter is on, all instances otherwise.
  const std::vector<int>& QIdx() const;

  /// Each operator's cascade after the cover rule.
  bool SSd(ObjectProfile& u, ObjectProfile& v);
  bool SsSd(ObjectProfile& u, ObjectProfile& v);
  bool PSd(ObjectProfile& u, ObjectProfile& v);
  bool FSd(ObjectProfile& u, ObjectProfile& v);

  /// Exact S-SD order (without the distribution-inequality condition).
  bool SSdOrderHolds(ObjectProfile& u, ObjectProfile& v);

  /// Exact SS-SD order (without the distribution-inequality condition).
  bool SsSdOrderHolds(ObjectProfile& u, ObjectProfile& v);

  /// Whether MaxQs() of u is within `tolerance` of MinQs() of v at every q
  /// in `qidx`. Over QIdx() with 1e-9 it is the exact F-SD order (without
  /// the distribution-inequality condition): only hull query points need
  /// checking, because the q-region where U fully dominates V is an
  /// intersection of half-spaces, hence convex.
  bool ExtremesOrderHolds(ObjectProfile& u, ObjectProfile& v,
                          const std::vector<int>& qidx, double tolerance);

  /// Cover-based validation (Theorem 4): Covers(u's MBR, v's MBR), so u
  /// dominates v under every operator. Counts one MBR validation.
  bool CoverValidates(ObjectProfile& u, ObjectProfile& v);

  /// Statistic-based pruning on the full distributions: the min and max
  /// conditions of Theorem 11. Returns true when dominance is refuted.
  bool StatRefutesAll(ObjectProfile& u, ObjectProfile& v);

  /// Per-query-instance min/max pruning (SS-SD / P-SD).
  bool StatRefutesPerQ(ObjectProfile& u, ObjectProfile& v);

  /// Extremes certificate on the statistics the gates built. S-SD and
  /// SS-SD: ExtremesOrderHolds at every q without tolerance, so each U_q,
  /// and their mixture U_Q, is stochastically at most V_q. P-SD: the F-SD
  /// order, which fills every PSdRows row. Counts in stat_validations.
  bool ExtremesCertify(Operator op, ObjectProfile& u, ObjectProfile& v);

  /// Hall's condition for the P-SD network projected to one query
  /// instance q at a time. There v_j's neighbourhood is a prefix of u's
  /// rank order at q, so the condition is one running-sum check per
  /// prefix, on the integer masses and the nu + nv slack of
  /// BipartiteFeasible. The exact network is a subnetwork of every
  /// projection, so a refutation is one the exact flow check would make.
  /// Leaves RankCounts' entries for the q it tried in `counts`. Meters
  /// scan_steps; counts a refutation in cover_prunes.
  bool ProjectedHallRefutes(ObjectProfile& u, ObjectProfile& v,
                            std::vector<int>* counts);

  /// Exact P-SD via the admissible-pair max-flow (Theorem 12), without the
  /// distribution-inequality condition. Theorem 12's feasibility test
  /// (flow/max_flow.h) reads PSdRows' bit rows built from `counts`;
  /// flow_runs counts the networks that reach Dinic.
  bool PSdExactOrder(ObjectProfile& u, ObjectProfile& v,
                     std::span<const int> counts);

  const QueryContext* ctx_;
  FilterConfig config_;
  FilterStats* stats_;
};

}  // namespace osd

#endif  // OSD_CORE_DOMINANCE_ORACLE_H_
