// Lazily computed per-(object, query) distance state.
//
// Every dominance check consumes some view of the pairwise distances
// between an object's instances and the query's instances: overall and
// per-query-instance extremes (statistic pruning, F-SD), the sorted
// all-pairs distribution U_Q (S-SD), per-q sorted distributions U_q
// (SS-SD), or raw matrix rows (<=_Q tests in P-SD). Each view is
// materialized at most once and only when a check actually needs it — the
// statistic gates and F-SD read only the per-q extremes, so a pair they
// decide never pays for a sorted view, which is the effect the Fig. 16
// ablation measures.
//
// The statistics are the extremes alone: MinQs/MaxQs/MinAll/MaxAll, built
// together by one min/max pass per query instance (the row_extremes
// kernel) and charged as 2·|Q| doubles under "profile.stats". No
// statistic reads the probability-weighted mean (DESIGN §5).
//
// Every sorted view — the all-pairs order, the per-q rows and the rank
// rows — lists distances ascending with ties broken by index, and all
// three take that order from OrderByDistance (core/distance_order.h), a
// bucket sort on the distances' bit patterns. Its scratch is charged
// under "profile.sort_scratch": for the length of each all-pairs or per-q
// build, and for the profile's life by the rank rows, which share one
// scratch.
//
// The views are computed by the batched distance kernels dispatched on the
// QueryContext (geom/kernels.h) over the object's padded SoA coordinate
// block, and the statistics use the one-pass row-extremes kernel: a
// profile that only ever answers statistic pruning never materializes — or
// charges the memory budget for — the full matrix.
//
// The matrix fills row by row. Row(qi) computes just row qi of the one
// |Q| x m buffer; MatrixData() fills the rows still missing. Each row is
// charged under "profile.matrix" and counted in dist_evals (m distances)
// on its first read. P-SD reads only the rows of the query's hull
// instances (DominanceOracle::QIdx()). The statistics fold the rows
// already read and evaluate the others, so each distance is counted once.
//
// Every view is a plain member, built once and never resized after, so
// spans taken from it stay valid for the profile's life.
//
// Rank view: Ranks(qi) memoizes, per query instance, the object's
// distances to ctx.points()[qi] sorted ascending, for r = 0..m the prefix
// bit row "the r nearest instances" and their summed integer flow mass
// (ScaledProbs() in rank order), and a cell index over the sorted
// distances. The P-SD exact check reads the set {i : Dist(qi, i) <= d}
// off it with one cell lookup and a short forward walk instead of m
// comparisons, and the P-SD Hall certificate reads that set's mass the
// same way. It is charged (distances, rows, masses and cell index) under
// "profile.ranks"; ScaledProbs() memoizes the object's integer flow masses
// under the same label.

#ifndef OSD_CORE_OBJECT_PROFILE_H_
#define OSD_CORE_OBJECT_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/distance_order.h"
#include "core/filter_config.h"
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
/// a profile across queries or hand one to another thread mid-query.
class ObjectProfile {
 public:
  ObjectProfile(const UncertainObject& object, const QueryContext& ctx,
                FilterStats* stats);
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
  ///
  /// The cell index splits [front, back] of `sorted` into cells =
  /// 2^ceil(log2 m) equal-width cells; cell_start[c] is the first index
  /// whose distance lies in a cell >= c, and cell_start[cells] = m. CellOf
  /// is monotone in d, so every distance before cell_start[CellOf(d)] is
  /// <= d and every one from cell_start[CellOf(d) + 1] on is > d: Count()
  /// searches only the entries of d's own cell.
  struct RankView {
    std::span<const double> sorted;  ///< the m distances, ascending
    const uint64_t* prefix;  ///< row r (words long): the r nearest instances
    const int64_t* mass;     ///< mass[r]: ScaledProbs() of the r nearest
    int words;               ///< RowWords(m) (flow/max_flow.h)
    const int* cell_start;   ///< cells + 1 entries
    double scale;            ///< cells / (back - front); 0 on a zero span
    int last_cell;           ///< cells - 1

    /// Longest forward walk Count() takes before it binary-searches the
    /// rest of the cell, so a crowded cell costs O(log m).
    static constexpr int kMaxWalk = 8;

    /// The cell of a distance x >= front. Subtraction, multiplication by a
    /// non-negative scale, truncation and the clamp are all monotone.
    static int CellOf(double x, double front, double scale, int last_cell) {
      return std::min(last_cell, static_cast<int>((x - front) * scale));
    }

    /// Fills `cell_start` with the cell index over the ascending, non-empty
    /// `sorted` and returns its scale. A span too narrow for a finite scale
    /// puts every distance in cell 0, where Count() binary-searches.
    static double BuildCells(std::span<const double> sorted,
                             std::vector<int>* cell_start);

    /// Number of instances i with Dist(qi, i) <= d: exactly
    /// std::upper_bound over `sorted`. The sorted order breaks distance
    /// ties by instance index, and tied distances are all <= d or all
    /// > d, so those instances are exactly the first Count(d).
    int Count(double d) const {
      if (d < sorted.front()) return 0;
      if (d >= sorted.back()) return static_cast<int>(sorted.size());
      // front <= d < back: the answer lies in [i, end] and below m.
      const int c = CellOf(d, sorted.front(), scale, last_cell);
      int i = cell_start[c];
      const int end = cell_start[c + 1];
      if (end - i > kMaxWalk) {
        return static_cast<int>(
            std::upper_bound(sorted.begin() + i, sorted.begin() + end, d) -
            sorted.begin());
      }
      while (sorted[i] <= d) ++i;
      return i;
    }
  };

  /// delta(q_i, u_j); materializes the full matrix on first call.
  double Dist(int qi, int ui) {
    return MatrixData()[static_cast<size_t>(qi) * num_instances() + ui];
  }

  /// Row of distances from query instance qi to all object instances;
  /// computes only that row of the matrix on first call.
  std::span<const double> Row(int qi) {
    if (!RowRead(qi)) EnsureRows(qi);
    return {matrix_.data() + static_cast<size_t>(qi) * num_instances(),
            static_cast<size_t>(num_instances())};
  }

  /// Base pointer of the |Q| x m row-major matrix (fills every row still
  /// missing): row qi starts at MatrixData() + qi * num_instances(). Lets
  /// checker inner loops hoist the lazy-init branch out of per-element
  /// Dist() calls.
  const double* MatrixData() {
    if (!MatrixComplete()) EnsureRows(kAllRows);
    return matrix_.data();
  }

  // Overall extremes of U_Q (Theorem 11 pruning).
  double MinAll() { return Extremes().min_all; }
  double MaxAll() { return Extremes().max_all; }

  // Per-query-instance extremes of U_q.
  double MinQ(int qi) { return Extremes().min_q[qi]; }
  double MaxQ(int qi) { return Extremes().max_q[qi]; }

  // Whole per-q extreme vectors, indexed by qi (one lazy-init branch for
  // a loop over many query instances).
  std::span<const double> MinQs() { return Extremes().min_q; }
  std::span<const double> MaxQs() { return Extremes().max_q; }

  /// Whether the extremes above are built, so reading them costs nothing
  /// more.
  bool has_stats() const { return extremes_.has_value(); }

  /// Sorted all-pairs distances (values ascending, parallel probabilities).
  std::span<const double> SortedValues() { return SortedAll().values; }
  std::span<const double> SortedProbs() { return SortedAll().probs; }

  /// Sorted distances from query instance qi (parallel probabilities).
  std::span<const double> SortedQValues(int qi) {
    return SortedPerQ().values[qi];
  }
  std::span<const double> SortedQProbs(int qi) {
    return SortedPerQ().probs[qi];
  }

  /// The all-pairs distance distribution U_Q as a merged distribution
  /// (used for the U_Q != V_Q side condition and by the public API).
  const DiscreteDistribution& Distribution() {
    if (!distribution_.has_value()) EnsureDistribution();
    return *distribution_;
  }

  /// Rank view at query instance qi, built from the matrix on first use.
  RankView Ranks(int qi) {
    if (ranks_.empty() || ranks_[qi].sorted.empty()) FillRanks(qi);
    const RankEntry& e = ranks_[qi];
    return {e.sorted, e.prefix.data(), e.mass.data(), rank_words_,
            e.cell_start.data(), e.scale, e.last_cell};
  }

  /// ScaleProbabilities(object().probs(), kProbScale), memoized.
  std::span<const int64_t> ScaledProbs();

 private:
  /// Per-q extremes with the overall ones.
  struct ExtremesView {
    double min_all = 0.0, max_all = 0.0;
    std::vector<double> min_q, max_q;
  };
  /// Sorted distances (values ascending, parallel probabilities): all
  /// pairs for U_Q, one row per query instance for the U_q.
  struct SortedAllView {
    std::vector<double> values, probs;
  };
  struct SortedPerQView {
    std::vector<std::vector<double>> values, probs;
  };

  const ExtremesView& Extremes() {
    if (!extremes_.has_value()) EnsureExtremes();
    return *extremes_;
  }
  const SortedAllView& SortedAll() {
    if (!sorted_all_.has_value()) EnsureSortedAll();
    return *sorted_all_;
  }
  const SortedPerQView& SortedPerQ() {
    if (!sorted_per_q_.has_value()) EnsureSortedPerQ();
    return *sorted_per_q_;
  }

  static constexpr int kAllRows = -1;
  bool RowRead(int qi) const { return !row_read_.empty() && row_read_[qi]; }
  bool MatrixComplete() const {
    return matrix_rows_ == ctx_->num_instances();
  }
  /// Reads matrix row qi, or every unread row for kAllRows: charges and
  /// counts the rows, allocates the buffer on the first read, and computes
  /// the rows.
  void EnsureRows(int qi);

  // Each Ensure* charges, counts and builds one absent view.
  void EnsureExtremes();
  void EnsureSortedAll();
  void EnsureSortedPerQ();
  void EnsureDistribution();
  /// Builds one rank-view entry (allocating and charging the |Q|-long
  /// entry table on the first call).
  void FillRanks(int qi);

  /// Charges `bytes` against the active budget scope (throws
  /// MemoryExceeded on breach, before any state changes) and remembers it
  /// for release at destruction.
  void ChargeView(long bytes, const char* what_label);

  const UncertainObject* object_;
  const QueryContext* ctx_;
  FilterStats* stats_;
  long charged_bytes_ = 0;  // lazy-view bytes owed back to the budget

  // The |Q| x m matrix (empty until the first row is read; row-major with
  // stride m, no padding: the flattened pair-index tie-break in
  // EnsureSortedAll depends on that layout) and the rows read so far: a
  // flag per query instance and their count.
  std::vector<double> matrix_;
  std::vector<uint8_t> row_read_;
  int matrix_rows_ = 0;
  // The other views, each absent until first read.
  std::optional<ExtremesView> extremes_;
  std::optional<SortedAllView> sorted_all_;
  std::optional<SortedPerQView> sorted_per_q_;
  std::optional<DiscreteDistribution> distribution_;
  // Rank-view memo, one entry per query instance (empty = not yet built),
  // and the scaled masses.
  struct RankEntry {
    std::vector<double> sorted;
    std::vector<uint64_t> prefix;  // (m + 1) rows of rank_words_ words
    std::vector<int64_t> mass;     // (m + 1) prefix sums of scaled masses
    std::vector<int> cell_start;   // RankView's cell index
    double scale = 0.0;
    int last_cell = 0;
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
