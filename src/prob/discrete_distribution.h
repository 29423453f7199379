// Discrete (finite-support, real-valued) probability distributions.
//
// A DiscreteDistribution models a distance distribution U_Q or U_q from
// the paper: a finite set of (value, probability) atoms. Atoms are kept
// sorted by value, equal values are merged, and the probabilities sum to
// one (within tolerance). All stable aggregate statistics used by the
// N1-family NN functions (min, max, mean, phi-quantile) are provided here.

#ifndef OSD_PROB_DISCRETE_DISTRIBUTION_H_
#define OSD_PROB_DISCRETE_DISTRIBUTION_H_

#include <span>
#include <vector>

namespace osd {

/// Sorted, merged, finite-support distribution over real values.
class DiscreteDistribution {
 public:
  struct Atom {
    double value;
    double prob;
  };

  DiscreteDistribution() = default;

  /// Builds from unsorted atoms; values are sorted, duplicates merged.
  /// Probabilities must be positive and sum to 1 within `kSumTolerance`.
  static DiscreteDistribution FromAtoms(std::vector<Atom> atoms);

  /// Builds from parallel value/probability arrays.
  static DiscreteDistribution FromArrays(std::span<const double> values,
                                         std::span<const double> probs);

  const std::vector<Atom>& atoms() const { return atoms_; }
  bool empty() const { return atoms_.empty(); }
  int size() const { return static_cast<int>(atoms_.size()); }

  double Min() const;
  double Max() const;
  double Mean() const;

  /// phi-quantile per Definition 10: the smallest support value v with
  /// Pr(X <= v) >= phi, for phi in (0, 1].
  double Quantile(double phi) const;

  /// Pr(X <= value).
  double CdfAt(double value) const;

  /// The U_Q != V_Q side condition, negated: true iff the two
  /// distributions agree within `tolerance` once each one's atoms are
  /// grouped into clusters (maximal runs whose consecutive values lie
  /// within tolerance): the same number of clusters, and each pair's first
  /// values, last values and masses within tolerance. Distances that tie
  /// in the reals but differ by an ulp in doubles thus compare equal, so
  /// no two objects dominate each other. The first cluster starts at the
  /// minimum and the last ends at the maximum, so distributions whose
  /// extremes differ beyond tolerance are never equal.
  static bool ApproxEqual(const DiscreteDistribution& x,
                          const DiscreteDistribution& y,
                          double tolerance = 1e-9);

  static constexpr double kSumTolerance = 1e-6;

 private:
  std::vector<Atom> atoms_;
};

}  // namespace osd

#endif  // OSD_PROB_DISCRETE_DISTRIBUTION_H_
