// Lazily computed per-(object, query) distance state.
//
// Every dominance check consumes some view of the pairwise distances
// between an object's instances and the query's instances: overall and
// per-query-instance statistics (statistic pruning), the sorted all-pairs
// distribution U_Q (S-SD), per-q sorted distributions U_q (SS-SD), or the
// raw matrix (<=_Q tests in P-SD). Each view is materialized at most once
// and only when a check actually needs it — the statistic gates read only
// the per-q statistics and F-SD only their extremes, so a pair they decide
// never pays for a sorted view, which is the effect the Fig. 16 ablation
// measures.
//
// The statistics come in two parts. MinQs/MaxQs/MinAll/MaxAll build only
// the extremes: one min/max pass per query instance, charged as 2·|Q|
// doubles under "profile.stats". MeanQs/MeanAll add the probability-
// weighted mean: when nothing is built yet, one fused pass builds all
// three (3·|Q| doubles, one distance pass); after the extremes, a mean
// pass charges |Q| more and leaves the extremes' storage, and every span
// taken from it, in place. Callers that will read the mean read it first
// (DominanceOracle::MinDistance) so they pay one distance pass.
//
// Every sorted view — the all-pairs order, the per-q rows and the rank
// rows — lists distances ascending with ties broken by index, and all
// three take that order from OrderByDistance (core/distance_order.h), a
// bucket sort on the distances' bit patterns. Its scratch is charged
// under "profile.sort_scratch": for the length of each all-pairs or per-q
// build (a cache hit charges the same bytes), and for the profile's life
// by the rank rows, which share one scratch.
//
// The views are computed by the batched distance kernels dispatched on the
// QueryContext (geom/kernels.h) over the object's padded SoA coordinate
// block, and the statistics use the one-pass row kernels: a profile that
// only ever answers statistic pruning never materializes — or charges the
// memory budget for — the full matrix.
//
// Cross-query sharing: when constructed with a ProfileCacheBinding
// (core/profile_cache.h) — a constructor argument, not a thread-local
// session — the first Ensure* call looks the (object, query signature,
// epoch) key up in the engine-wide cache. A hit adopts pinned
// immutable views with zero rebuild — but charges the same bytes under the
// same labels and advances the same FilterStats counters as a fresh build,
// so results and instrumentation stay bit-identical to the uncached path.
// A miss builds as before and the destructor publishes the freshly built
// views (the mutable profile itself is never shared — only the finished,
// immutable artifacts are).
//
// Rank view: Ranks(qi) memoizes, per query instance, the object's
// distances to ctx.points()[qi] sorted ascending, and for r = 0..m the
// prefix bit row "the r nearest instances" and their summed integer flow
// mass (ScaledProbs() in rank order). The P-SD exact check reads the set
// {i : Dist(qi, i) <= d} off it with one binary search instead of m
// comparisons, and the P-SD Hall certificate reads that set's mass the
// same way. It is per-query scratch, charged (distances, rows and masses)
// under "profile.ranks" with the cache on or off and never published;
// ScaledProbs() memoizes the object's integer flow masses under the same
// label.

#ifndef OSD_CORE_OBJECT_PROFILE_H_
#define OSD_CORE_OBJECT_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/distance_order.h"
#include "core/filter_config.h"
#include "core/profile_cache.h"
#include "core/query_context.h"
#include "object/uncertain_object.h"
#include "prob/discrete_distribution.h"

namespace osd {

/// Distance views of one object w.r.t. one query.
///
/// Thread-safety: NOT thread-safe — the lazy views mutate on first access
/// with no synchronization. A profile belongs to exactly one query
/// execution: NncSearch::Run constructs fresh profiles per call and never
/// shares them, which is what makes concurrent Run calls safe. Never share
/// a profile across queries or hand one to another thread mid-query (the
/// ProfileCache shares only the finished immutable artifacts, via
/// shared_ptr pins — never the profile object).
class ObjectProfile {
 public:
  /// `cache` binds the profile to the engine-wide cache for one query
  /// (not owned; must outlive the profile, which publishes through it on
  /// destruction). Null — the default — builds every view locally.
  ObjectProfile(const UncertainObject& object, const QueryContext& ctx,
                FilterStats* stats,
                const ProfileCacheBinding* cache = nullptr);
  /// Returns every byte the lazy views charged against the active memory
  /// budget scope (see common/memory_budget.h). A profile must be
  /// destroyed on the thread — and within the scope — that ran its query,
  /// which the per-execution ownership contract above already guarantees.
  ~ObjectProfile();
  ObjectProfile(const ObjectProfile&) = delete;
  ObjectProfile& operator=(const ObjectProfile&) = delete;

  const UncertainObject& object() const { return *object_; }
  int num_instances() const { return object_->num_instances(); }

  /// The object's instances ranked by distance to one query instance.
  struct RankView {
    std::span<const double> sorted;  ///< the m distances, ascending
    const uint64_t* prefix;  ///< row r (words long): the r nearest instances
    const int64_t* mass;     ///< mass[r]: ScaledProbs() of the r nearest
    int words;               ///< RowWords(m) (flow/max_flow.h)

    /// Number of instances i with Dist(qi, i) <= d. The sorted order
    /// breaks distance ties by instance index, and tied distances are all
    /// <= d or all > d, so those instances are exactly the first Count(d).
    int Count(double d) const {
      return static_cast<int>(
          std::upper_bound(sorted.begin(), sorted.end(), d) - sorted.begin());
    }

    /// Bit row of the instances i with Dist(qi, i) <= d.
    const uint64_t* Within(double d) const {
      return prefix + static_cast<long>(Count(d)) * words;
    }
  };

  /// delta(q_i, u_j); materializes the full matrix on first call.
  double Dist(int qi, int ui) {
    EnsureMatrix();
    return matrix_data_[static_cast<size_t>(qi) * num_instances() + ui];
  }

  /// Row of distances from query instance qi to all object instances.
  std::span<const double> Row(int qi) {
    EnsureMatrix();
    return {matrix_data_ + static_cast<size_t>(qi) * num_instances(),
            static_cast<size_t>(num_instances())};
  }

  /// Base pointer of the |Q| x m row-major matrix (materializes it): row
  /// qi starts at MatrixData() + qi * num_instances(). Lets checker inner
  /// loops hoist the lazy-init branch out of per-element Dist() calls.
  const double* MatrixData() {
    EnsureMatrix();
    return matrix_data_;
  }

  // Overall statistics of U_Q (Theorem 11 pruning).
  double MinAll() {
    EnsureExtremes();
    return min_all_;
  }
  double MeanAll() {
    EnsureMean();
    return mean_all_;
  }
  double MaxAll() {
    EnsureExtremes();
    return max_all_;
  }

  // Per-query-instance statistics of U_q.
  double MinQ(int qi) {
    EnsureExtremes();
    return min_q_view_[qi];
  }
  double MeanQ(int qi) {
    EnsureMean();
    return mean_q_view_[qi];
  }
  double MaxQ(int qi) {
    EnsureExtremes();
    return max_q_view_[qi];
  }

  // Whole per-q statistic vectors, indexed by qi (one lazy-init branch for
  // a loop over many query instances).
  std::span<const double> MinQs() {
    EnsureExtremes();
    return min_q_view_;
  }
  std::span<const double> MeanQs() {
    EnsureMean();
    return mean_q_view_;
  }
  std::span<const double> MaxQs() {
    EnsureExtremes();
    return max_q_view_;
  }

  /// Whether this profile's own calls have built the extremes above (with
  /// or without the mean), or adopted them from the cache, so reading them
  /// costs nothing more. A cache entry counts only from its first use, so
  /// the answer is the same with the cache on or off.
  bool has_stats() const { return have_extremes_; }

  /// Sorted all-pairs distances (values ascending, parallel probabilities).
  std::span<const double> SortedValues() {
    EnsureSortedAll();
    return sorted_values_view_;
  }
  std::span<const double> SortedProbs() {
    EnsureSortedAll();
    return sorted_probs_view_;
  }

  /// Sorted distances from query instance qi (parallel probabilities).
  std::span<const double> SortedQValues(int qi) {
    EnsureSortedPerQ();
    return (*sorted_q_values_view_)[qi];
  }
  std::span<const double> SortedQProbs(int qi) {
    EnsureSortedPerQ();
    return (*sorted_q_probs_view_)[qi];
  }

  /// The all-pairs distance distribution U_Q as a merged distribution
  /// (used for the U_Q != V_Q side condition and by the public API).
  const DiscreteDistribution& Distribution();

  /// Rank view at query instance qi, built from the matrix on first use.
  RankView Ranks(int qi) {
    if (ranks_.empty() || ranks_[qi].sorted.empty()) FillRanks(qi);
    const RankEntry& e = ranks_[qi];
    return {e.sorted, e.prefix.data(), e.mass.data(), rank_words_};
  }

  /// ScaleProbabilities(object().probs(), kProbScale), memoized.
  std::span<const int64_t> ScaledProbs();

 private:
  void EnsureMatrix();
  void EnsureExtremes();
  void EnsureMean();
  /// Points the extremes' views at a pinned cache entry's.
  void AdoptExtremes(const ProfileExtremesView& extremes);
  /// Takes freshly built per-q extremes as the profile's own.
  void KeepExtremes(std::vector<double> min_q, std::vector<double> max_q);
  void EnsureSortedAll();
  void EnsureSortedPerQ();
  /// Builds one rank-view entry (allocating and charging the |Q|-long
  /// entry table on the first call).
  void FillRanks(int qi);

  /// One-shot lookup in the bound cache (if any), pinning a hit entry for
  /// the profile's lifetime. Called by the first Ensure* that runs, so the
  /// cache's hit/miss counts reflect profiles that actually materialize
  /// views.
  void MaybeLookupCache();
  /// Publishes freshly built views to the cache (best-effort, from the
  /// destructor). Views adopted from an existing entry are carried over so
  /// the published entry is a superset of what was found.
  void PublishToCache() noexcept;

  /// Charges `bytes` against the active budget scope (throws
  /// MemoryExceeded on breach, before any state changes) and remembers it
  /// for release at destruction.
  void ChargeView(long bytes, const char* what_label);

  const UncertainObject* object_;
  const QueryContext* ctx_;
  FilterStats* stats_;
  long charged_bytes_ = 0;  // lazy-view bytes owed back to the budget

  // Cross-query cache state. `cached_` pins the hit entry (if any) so its
  // views outlive every adopted span below; the built_* flags mark views
  // constructed locally, i.e. the ones the destructor publishes.
  const ProfileCacheBinding* cache_;
  std::shared_ptr<const ProfileArtifacts> cached_;
  bool cache_checked_ = false;
  bool built_matrix_ = false, built_extremes_ = false, built_mean_ = false,
       built_sorted_all_ = false, built_sorted_per_q_ = false,
       built_distribution_ = false;

  // Each lazy view is an (owned storage, borrowed view) pair: the view
  // points either into the owned vectors (fresh build) or into the pinned
  // cache entry (hit). Readers go through the views only.
  bool have_matrix_ = false;
  std::vector<double> matrix_;  // |Q| x m, row-major; empty until needed
  const double* matrix_data_ = nullptr;
  bool have_extremes_ = false, have_mean_ = false;
  double min_all_ = 0.0, mean_all_ = 0.0, max_all_ = 0.0;
  std::vector<double> min_q_, mean_q_, max_q_;
  std::span<const double> min_q_view_, mean_q_view_, max_q_view_;
  bool have_sorted_all_ = false;
  std::vector<double> sorted_values_, sorted_probs_;
  std::span<const double> sorted_values_view_, sorted_probs_view_;
  bool have_sorted_per_q_ = false;
  std::vector<std::vector<double>> sorted_q_values_, sorted_q_probs_;
  const std::vector<std::vector<double>>* sorted_q_values_view_ = nullptr;
  const std::vector<std::vector<double>>* sorted_q_probs_view_ = nullptr;
  bool have_distribution_ = false;
  DiscreteDistribution distribution_;
  const DiscreteDistribution* distribution_view_ = nullptr;
  // Rank-view memo, one entry per query instance (empty = not yet built),
  // and the scaled masses; never cached.
  struct RankEntry {
    std::vector<double> sorted;
    std::vector<uint64_t> prefix;  // (m + 1) rows of rank_words_ words
    std::vector<int64_t> mass;     // (m + 1) prefix sums of scaled masses
  };
  std::vector<RankEntry> ranks_;
  int rank_words_ = 0;
  // Sort scratch shared by every FillRanks call (rows are filled one at a
  // time), charged once with the entry table.
  DistanceOrderScratch rank_scratch_;
  std::vector<int64_t> scaled_probs_;
};

}  // namespace osd

#endif  // OSD_CORE_OBJECT_PROFILE_H_
