// Objects with multiple instances.
//
// An UncertainObject is a discrete random variable over points: instances
// with positive probabilities summing to one. Multi-valued objects (whose
// instances carry weights instead of probabilities) are normalized on
// construction, which the paper shows preserves NN ranks for every function
// family studied as long as total weight mass matches across objects.
//
// Instances are stored as a flat coordinate array (m x d doubles) so large
// datasets stay compact; the per-object local R-tree (fan-out 4 in the
// paper's experiments) is built on demand. No dominance check reads it
// since no operator has a level-by-level stage; osdbench's set-up still
// builds every tree. Construction
// additionally lays the coordinates out as a padded column-major (SoA)
// block so the batched distance kernels (geom/kernels.h) stream them with
// unit-stride vector loads.
//
// Thread-safety contract: after construction an UncertainObject is
// logically immutable, and every const member — including the lazily built
// LocalTree() — is safe to call from any number of threads concurrently
// (the build is serialized on a per-object mutex, and at most one tree is
// ever constructed). Copying/moving/assigning an object concurrently with
// reads is NOT safe; the query engine never mutates dataset objects after
// the Dataset is built.

#ifndef OSD_OBJECT_UNCERTAIN_OBJECT_H_
#define OSD_OBJECT_UNCERTAIN_OBJECT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geom/kernels.h"
#include "geom/mbr.h"
#include "geom/point.h"
#include "index/rtree.h"

namespace osd {

/// A multi-instance (discrete uncertain) object.
class UncertainObject {
 public:
  /// Default fan-out of per-object instance R-trees (paper Section 6).
  static constexpr int kLocalFanout = 4;

  UncertainObject() = default;

  /// Copies duplicate the instance data but not the cached local R-tree
  /// (it is rebuilt on demand).
  UncertainObject(const UncertainObject& other)
      : id_(other.id_),
        dim_(other.dim_),
        coords_(other.coords_),
        probs_(other.probs_),
        soa_(other.soa_),
        soa_stride_(other.soa_stride_),
        mbr_(other.mbr_) {}
  UncertainObject& operator=(const UncertainObject& other) {
    if (this != &other) {
      id_ = other.id_;
      dim_ = other.dim_;
      coords_ = other.coords_;
      probs_ = other.probs_;
      soa_ = other.soa_;
      soa_stride_ = other.soa_stride_;
      mbr_ = other.mbr_;
      lazy_tree_ = std::make_unique<LazyLocalTree>();
    }
    return *this;
  }
  // Moves carry the cached tree along; the moved-from object must be
  // reassigned before further use (its lazy slot is gone).
  UncertainObject(UncertainObject&&) = default;
  UncertainObject& operator=(UncertainObject&&) = default;

  /// Object with explicit instance probabilities (must sum to 1).
  UncertainObject(int id, int dim, std::vector<double> coords,
                  std::vector<double> probs);

  /// Multi-valued object: instance weights are normalized to probabilities
  /// (p_i = w_i / sum w), per Section 2.1.
  static UncertainObject FromWeighted(int id, int dim,
                                      std::vector<double> coords,
                                      std::vector<double> weights);

  /// Uniform-probability object (the experimental setting of the paper).
  static UncertainObject Uniform(int id, int dim, std::vector<double> coords);

  /// Validates an instance payload without constructing anything: dimension
  /// range, non-empty mass, coordinate/mass size agreement, finite
  /// coordinates, positive finite mass, and (probability inputs) mass
  /// summing to 1 within the constructor's tolerance. Returns false with a
  /// precise *error on the first violation. This is the single shared
  /// validation for every untrusted-input path (file loaders, wire-supplied
  /// instances, mutations): anything it accepts is guaranteed not to trip
  /// an OSD_CHECK in the constructors below.
  static bool ValidateInstances(int dim, const std::vector<double>& coords,
                                const std::vector<double>& mass,
                                bool weighted, std::string* error);

  /// Validating, error-returning counterpart of the probability
  /// constructor. On failure returns false with *error set and leaves *out
  /// untouched; never aborts.
  static bool TryCreate(int id, int dim, std::vector<double> coords,
                        std::vector<double> probs, UncertainObject* out,
                        std::string* error);

  /// Validating, error-returning counterpart of FromWeighted.
  static bool TryFromWeighted(int id, int dim, std::vector<double> coords,
                              std::vector<double> weights,
                              UncertainObject* out, std::string* error);

  int id() const { return id_; }
  int dim() const { return dim_; }
  int num_instances() const { return static_cast<int>(probs_.size()); }

  /// The i-th instance as a Point (copied out of the flat array).
  Point Instance(int i) const {
    OSD_DCHECK(i >= 0 && i < num_instances());
    return Point(coords_.data() + static_cast<size_t>(i) * dim_, dim_);
  }

  /// Probability of the i-th instance.
  double Prob(int i) const {
    OSD_DCHECK(i >= 0 && i < num_instances());
    return probs_[i];
  }

  /// The instances' coordinates, row-major (instance i at i * dim()).
  const std::vector<double>& coords() const { return coords_; }
  const std::vector<double>& probs() const { return probs_; }
  const Mbr& mbr() const { return mbr_; }

  /// Kernel-friendly coordinate block (geom/kernels.h): component k of
  /// instance j lives at soa_coords()[k * soa_stride() + j]. Every column
  /// is padded to a multiple of kernels::kBlockPad doubles; padding lanes
  /// replicate the last instance so out-of-range lanes read finite values.
  const double* soa_coords() const { return soa_.data(); }
  size_t soa_stride() const { return soa_stride_; }

  /// Returns the instance R-tree, building it on first use. Safe to call
  /// concurrently: at most one build runs at a time (serialized on a
  /// mutex) and every caller observes the same fully constructed tree. A
  /// build that throws (memory breach, injected fault) publishes nothing
  /// and releases the lock, so a later call simply retries. Calling this
  /// on a moved-from object throws std::logic_error in every build mode
  /// (a moved-from object's lazy slot is gone; dereferencing it would be a
  /// release-build null deref).
  const RTree& LocalTree() const;

  /// True iff a local tree has already been built (used by stats). Safe to
  /// call concurrently with LocalTree(); may lag a build in flight.
  bool HasLocalTree() const {
    return lazy_tree_ != nullptr &&
           lazy_tree_->published.load(std::memory_order_acquire) != nullptr;
  }

 private:
  // The lazy slot is a stable heap box so that concurrent LocalTree()
  // callers synchronize on one mutex even though the object itself is
  // copyable. `published` lets HasLocalTree() peek without blocking on a
  // build in progress. A plain mutex (not std::call_once) on purpose: the
  // budget-charged build may throw, and throwing through call_once
  // deadlocks under TSan's pthread_once interceptor, which is not
  // exception-safe.
  struct LazyLocalTree {
    std::mutex build_mu;
    std::unique_ptr<RTree> tree;
    std::atomic<const RTree*> published{nullptr};
  };

  int id_ = -1;
  int dim_ = 0;
  std::vector<double> coords_;  // m * dim, row-major
  std::vector<double> probs_;   // m
  std::vector<double> soa_;     // dim * soa_stride_, column-major, padded
  size_t soa_stride_ = 0;
  Mbr mbr_;
  mutable std::unique_ptr<LazyLocalTree> lazy_tree_ =
      std::make_unique<LazyLocalTree>();
};

}  // namespace osd

#endif  // OSD_OBJECT_UNCERTAIN_OBJECT_H_
