#include "prob/discrete_distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace osd {

DiscreteDistribution DiscreteDistribution::FromAtoms(std::vector<Atom> atoms) {
  OSD_CHECK(!atoms.empty());
  std::sort(atoms.begin(), atoms.end(),
            [](const Atom& a, const Atom& b) { return a.value < b.value; });
  DiscreteDistribution dist;
  double sum = 0.0;
  for (const Atom& a : atoms) {
    OSD_CHECK(a.prob > 0.0);
    sum += a.prob;
    if (!dist.atoms_.empty() && dist.atoms_.back().value == a.value) {
      dist.atoms_.back().prob += a.prob;
    } else {
      dist.atoms_.push_back(a);
    }
  }
  OSD_CHECK(std::abs(sum - 1.0) < kSumTolerance);
  return dist;
}

DiscreteDistribution DiscreteDistribution::FromArrays(
    std::span<const double> values, std::span<const double> probs) {
  OSD_CHECK(values.size() == probs.size());
  std::vector<Atom> atoms(values.size());
  for (size_t i = 0; i < values.size(); ++i) atoms[i] = {values[i], probs[i]};
  return FromAtoms(std::move(atoms));
}

double DiscreteDistribution::Min() const {
  OSD_CHECK(!atoms_.empty());
  return atoms_.front().value;
}

double DiscreteDistribution::Max() const {
  OSD_CHECK(!atoms_.empty());
  return atoms_.back().value;
}

double DiscreteDistribution::Mean() const {
  OSD_CHECK(!atoms_.empty());
  double m = 0.0;
  for (const Atom& a : atoms_) m += a.value * a.prob;
  return m;
}

double DiscreteDistribution::Quantile(double phi) const {
  OSD_CHECK(!atoms_.empty());
  OSD_CHECK(phi > 0.0 && phi <= 1.0);
  double cum = 0.0;
  for (const Atom& a : atoms_) {
    cum += a.prob;
    // Small slack so phi == k/n boundaries are insensitive to rounding.
    if (cum >= phi - 1e-12) return a.value;
  }
  return atoms_.back().value;
}

double DiscreteDistribution::CdfAt(double value) const {
  double cum = 0.0;
  for (const Atom& a : atoms_) {
    if (a.value > value) break;
    cum += a.prob;
  }
  return cum;
}

bool DiscreteDistribution::ApproxEqual(const DiscreteDistribution& x,
                                       const DiscreteDistribution& y,
                                       double tolerance) {
  // A cluster: a maximal run of atoms, each within tolerance of the one
  // before it, with its first and last value and its total mass.
  struct Cluster {
    double first, last, prob;
  };
  auto next = [tolerance](const std::vector<Atom>& atoms, size_t* i) {
    Cluster c{atoms[*i].value, atoms[*i].value, atoms[*i].prob};
    while (++*i < atoms.size() && atoms[*i].value - c.last <= tolerance) {
      c.last = atoms[*i].value;
      c.prob += atoms[*i].prob;
    }
    return c;
  };
  size_t i = 0;
  size_t j = 0;
  while (i < x.atoms_.size() && j < y.atoms_.size()) {
    const Cluster a = next(x.atoms_, &i);
    const Cluster b = next(y.atoms_, &j);
    if (std::abs(a.first - b.first) > tolerance ||
        std::abs(a.last - b.last) > tolerance ||
        std::abs(a.prob - b.prob) > tolerance) {
      return false;
    }
  }
  return i == x.atoms_.size() && j == y.atoms_.size();
}

}  // namespace osd
