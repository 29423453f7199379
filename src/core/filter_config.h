// Filtering-technique switches and instrumentation counters.
//
// Section 5.1 of the paper layers four acceleration techniques over the
// brute-force dominance checks; Appendix C ablates them (Fig. 16) by
// measuring the number of instance comparisons. FilterConfig selects the
// three this implementation keeps — no operator runs the level-by-level
// filter (DESIGN §5) — and FilterStats is the measurement currency.

#ifndef OSD_CORE_FILTER_CONFIG_H_
#define OSD_CORE_FILTER_CONFIG_H_

#include <string>

namespace osd {

/// The spatial dominance operators evaluated in the paper (Section 6).
enum class Operator {
  kSSd,      // stochastic SD            (optimal w.r.t. N1)
  kSsSd,     // strict stochastic SD     (optimal w.r.t. N1,2)
  kPSd,      // peer SD                  (optimal w.r.t. N1,2,3)
  kFSd,      // full SD on instances     (correct, not complete)
  kFPlusSd,  // full SD on object MBRs   [Emrich et al. 2010]
};

/// Short uppercase name as used in the paper's plots (SSD, SSSD, ...).
const char* OperatorName(Operator op);

/// Parses a lowercase operator name: ssd|sssd|psd|fsd|f+sd. Returns false
/// and leaves `op` alone on any other string.
bool ParseOperatorName(const std::string& s, Operator* op);

/// Switches for the acceleration techniques of Section 5.1.
struct FilterConfig {
  /// Statistic-based pruning ("P"): the min and max conditions of
  /// Theorem 11, overall and per query instance, on the profile's extremes.
  /// The paper's gate also compares the probability-weighted means; this
  /// one does not (DESIGN §5).
  bool stat_pruning = true;
  /// Convex-hull reduction of query instances ("G"). SS-SD's per-q tests
  /// read every query instance, so SS-SD ignores this switch.
  bool geometric = true;
  /// Cover-based rules: MBR validation (Theorem 4) and pruning via
  /// covering operators (Theorem 2).
  bool cover_rules = true;

  static FilterConfig All() { return {}; }
  static FilterConfig BruteForce() { return {false, false, false}; }
  static FilterConfig P() { return {true, false, false}; }
  static FilterConfig G() { return {false, true, false}; }
  static FilterConfig GP() { return {true, true, false}; }

  bool operator==(const FilterConfig&) const = default;
};

/// Parses a preset name: all|bf|p|g|gp. The Fig. 16 names l|lp|lg|lgp
/// stay accepted as aliases of bf|p|g|gp, since no operator has a level
/// stage. Returns false and leaves `config` alone on any other string.
bool ParseFilterName(const std::string& s, FilterConfig* config);

/// Work counters accumulated by the dominance checks. The Fig. 16 metric
/// is InstanceComparisons().
struct FilterStats {
  long dist_evals = 0;        ///< instance-to-instance distance evaluations
  long scan_steps = 0;        ///< CDF merge-scan steps
  long pair_tests = 0;        ///< P-SD (v_j, q) rank-mask tests
  long node_ops = 0;          ///< node-level MBR bound computations
  long flow_runs = 0;         ///< Dinic runs (networks no certificate decided)
  long mbr_validations = 0;   ///< dominance validated from MBRs alone
  long stat_validations = 0;  ///< order certified by per-q extremes
  long stat_prunes = 0;       ///< refuted by the min/max statistic gate
  long cover_prunes = 0;      ///< refuted via a covering operator
  long exact_checks = 0;      ///< fell through to the exact algorithm
  long dominance_checks = 0;  ///< total pairwise checks requested

  /// The ablation currency of Fig. 16.
  long InstanceComparisons() const {
    return dist_evals + scan_steps + pair_tests;
  }

  FilterStats& operator+=(const FilterStats& other);

  /// Appends the counters to `out` as JSON object members, without braces
  /// or a leading comma, in the one order every JSON surface prints them:
  /// "dominance_checks":N,"instance_comparisons":N,...,"exact_checks":N.
  void AppendJson(std::string* out) const;
};

}  // namespace osd

#endif  // OSD_CORE_FILTER_CONFIG_H_
