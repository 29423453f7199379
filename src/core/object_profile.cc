#include "core/object_profile.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/distance_order.h"
#include "flow/max_flow.h"
#include "geom/kernels.h"

namespace osd {

ObjectProfile::ObjectProfile(const UncertainObject& object,
                             const QueryContext& ctx, FilterStats* stats,
                             const ProfileCacheBinding* cache)
    : object_(&object), ctx_(&ctx), stats_(stats), cache_(cache) {
  OSD_CHECK(object.dim() == ctx.query().dim());
}

ObjectProfile::~ObjectProfile() {
  // Publish before releasing: the freshly built vectors move into the
  // shared entry (the cache charges them to the engine budget itself).
  PublishToCache();
  memory::Release(charged_bytes_);
}

void ObjectProfile::MaybeLookupCache() {
  if (cache_checked_) return;
  cache_checked_ = true;
  if (cache_ == nullptr) return;
  cached_ = cache_->cache->Lookup(object_->id(), cache_->signature,
                                  cache_->epoch);
  if (cached_ != nullptr && cached_->epoch != cache_->epoch) {
    // Defense in depth: Lookup filters by epoch, so this can never fire —
    // but a stale bound would silently corrupt pruning, so the guard (and
    // the chaos assertion that its counter stays zero) is cheap insurance.
    cache_->cache->NoteStaleServeAverted();
    cached_ = nullptr;
  }
}

void ObjectProfile::PublishToCache() noexcept {
  if (cache_ == nullptr) return;
  if (!built_matrix_ && !built_extremes_ && !built_mean_ &&
      !built_sorted_all_ && !built_sorted_per_q_ && !built_distribution_) {
    return;
  }
  try {
    auto artifacts = std::make_shared<ProfileArtifacts>();
    artifacts->epoch = cache_->epoch;
    if (cached_ != nullptr) {
      // Carry adopted views forward so the published entry supersedes the
      // one we found (Publish replaces same-epoch entries only by bigger —
      // i.e. superset — artifact sets).
      artifacts->matrix = cached_->matrix;
      artifacts->extremes = cached_->extremes;
      artifacts->mean = cached_->mean;
      artifacts->sorted_all = cached_->sorted_all;
      artifacts->sorted_per_q = cached_->sorted_per_q;
      artifacts->distribution = cached_->distribution;
    }
    if (built_matrix_) {
      artifacts->matrix =
          std::make_shared<const std::vector<double>>(std::move(matrix_));
    }
    if (built_extremes_) {
      auto extremes = std::make_shared<ProfileExtremesView>();
      extremes->min_all = min_all_;
      extremes->max_all = max_all_;
      extremes->min_q = std::move(min_q_);
      extremes->max_q = std::move(max_q_);
      artifacts->extremes = std::move(extremes);
    }
    if (built_mean_) {
      auto mean = std::make_shared<ProfileMeanView>();
      mean->mean_all = mean_all_;
      mean->mean_q = std::move(mean_q_);
      artifacts->mean = std::move(mean);
    }
    if (built_sorted_all_) {
      auto sorted = std::make_shared<ProfileSortedAllView>();
      sorted->values = std::move(sorted_values_);
      sorted->probs = std::move(sorted_probs_);
      artifacts->sorted_all = std::move(sorted);
    }
    if (built_sorted_per_q_) {
      auto sorted = std::make_shared<ProfileSortedPerQView>();
      sorted->values = std::move(sorted_q_values_);
      sorted->probs = std::move(sorted_q_probs_);
      artifacts->sorted_per_q = std::move(sorted);
    }
    if (built_distribution_) {
      artifacts->distribution = std::make_shared<const DiscreteDistribution>(
          std::move(distribution_));
    }
    artifacts->bytes = ProfileArtifactsBytes(*artifacts);
    cache_->cache->Publish(object_->id(), cache_->signature,
                           std::move(artifacts));
  } catch (...) {
    // Publication is best-effort; the query's own answer is already done.
  }
}

void ObjectProfile::ChargeView(long bytes, const char* what_label) {
  // Charge-before-allocate: a breach throws here with every lazy flag
  // still unset, so a later call (e.g. on a retry with a fresh budget)
  // simply rebuilds the view from scratch.
  memory::Charge(bytes, what_label);
  charged_bytes_ += bytes;
}

void ObjectProfile::EnsureMatrix() {
  if (have_matrix_) return;
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  const size_t total = static_cast<size_t>(nq) * m;
  OSD_FAILPOINT("mem.profile.matrix");
  MaybeLookupCache();
  if (cached_ != nullptr && cached_->matrix != nullptr) {
    // Cache hit: adopt the pinned immutable matrix with zero rebuild. The
    // view bytes are charged exactly as a fresh build charges them and
    // dist_evals advances by the same nq * m, so budget pressure, retry
    // points, and the Fig. 16 counters stay bit-identical to the unshared
    // path (the counters meter the logical plan, which sharing preserves).
    ChargeView(static_cast<long>(total) * static_cast<long>(sizeof(double)),
               "profile.matrix");
    matrix_data_ = cached_->matrix->data();
    have_matrix_ = true;
    if (stats_ != nullptr) {
      stats_->dist_evals += static_cast<long>(nq) * m;
    }
    return;
  }
  ChargeView(static_cast<long>(total) * static_cast<long>(sizeof(double)),
             "profile.matrix");
  std::vector<double> buf(total);
  // The matrix stays row-major with stride m (no padding): the flattened
  // pair-index tie-break in EnsureSortedAll depends on that layout.
  const kernels::KernelSet& ks = ctx_->kernels();
  const double* block = object_->soa_coords();
  const size_t stride = object_->soa_stride();
  for (int qi = 0; qi < nq; ++qi) {
    ks.batch_distance(ctx_->points()[qi].data(), block, stride, m,
                      buf.data() + static_cast<size_t>(qi) * m);
  }
  matrix_ = std::move(buf);
  matrix_data_ = matrix_.data();
  have_matrix_ = true;
  built_matrix_ = true;
  if (stats_ != nullptr) {
    stats_->dist_evals += static_cast<long>(nq) * m;
  }
}

void ObjectProfile::AdoptExtremes(const ProfileExtremesView& extremes) {
  min_all_ = extremes.min_all;
  max_all_ = extremes.max_all;
  min_q_view_ = extremes.min_q;
  max_q_view_ = extremes.max_q;
  have_extremes_ = true;
}

void ObjectProfile::KeepExtremes(std::vector<double> min_q,
                                 std::vector<double> max_q) {
  min_all_ = std::numeric_limits<double>::infinity();
  max_all_ = 0.0;
  for (size_t qi = 0; qi < min_q.size(); ++qi) {
    min_all_ = std::min(min_all_, min_q[qi]);
    max_all_ = std::max(max_all_, max_q[qi]);
  }
  min_q_ = std::move(min_q);
  max_q_ = std::move(max_q);
  min_q_view_ = min_q_;
  max_q_view_ = max_q_;
  have_extremes_ = true;
  built_extremes_ = true;
}

void ObjectProfile::EnsureExtremes() {
  if (have_extremes_) return;
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  MaybeLookupCache();
  // A cache hit charges and counts what a fresh build would: the distances
  // are evaluated once unless the matrix already holds them.
  ChargeView(2L * nq * static_cast<long>(sizeof(double)), "profile.stats");
  if (!have_matrix_ && stats_ != nullptr) {
    stats_->dist_evals += static_cast<long>(nq) * m;
  }
  if (cached_ != nullptr && cached_->extremes != nullptr) {
    AdoptExtremes(*cached_->extremes);
    return;
  }
  std::vector<double> mn(nq, std::numeric_limits<double>::infinity());
  std::vector<double> mx(nq, 0.0);
  if (have_matrix_) {
    for (int qi = 0; qi < nq; ++qi) {
      const double* row = matrix_data_ + static_cast<size_t>(qi) * m;
      for (int ui = 0; ui < m; ++ui) {
        mn[qi] = std::min(mn[qi], row[ui]);
        mx[qi] = std::max(mx[qi], row[ui]);
      }
    }
  } else {
    const kernels::KernelSet& ks = ctx_->kernels();
    for (int qi = 0; qi < nq; ++qi) {
      ks.row_extremes(ctx_->points()[qi].data(), object_->soa_coords(),
                      object_->soa_stride(), m, &mn[qi], &mx[qi]);
    }
  }
  KeepExtremes(std::move(mn), std::move(mx));
}

void ObjectProfile::EnsureMean() {
  if (have_mean_) return;
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  MaybeLookupCache();
  // Over an existing matrix the extremes are a fold, so build them first.
  if (have_matrix_) EnsureExtremes();
  // With no extremes yet, one fused pass builds all three statistics, and
  // is charged and counted as one; after the extremes the mean costs a
  // pass of its own. A cache hit charges and counts the same.
  const bool fused = !have_extremes_;
  ChargeView((fused ? 3L : 1L) * nq * static_cast<long>(sizeof(double)),
             "profile.stats");
  if (!have_matrix_ && stats_ != nullptr) {
    stats_->dist_evals += static_cast<long>(nq) * m;
  }
  if (fused && cached_ != nullptr && cached_->extremes != nullptr) {
    AdoptExtremes(*cached_->extremes);
  }
  if (cached_ != nullptr && cached_->mean != nullptr) {
    mean_all_ = cached_->mean->mean_all;
    mean_q_view_ = cached_->mean->mean_q;
    have_mean_ = true;
    return;
  }
  // Distances and the probability-weighted mean fold in (qi, ui) order, so
  // the matrix scan and the fused kernel give bit-identical results. The
  // extremes' vectors are never reallocated here: spans taken from them
  // stay valid.
  std::vector<double> mean(nq, 0.0);
  if (have_matrix_) {
    for (int qi = 0; qi < nq; ++qi) {
      const double* row = matrix_data_ + static_cast<size_t>(qi) * m;
      for (int ui = 0; ui < m; ++ui) mean[qi] += row[ui] * object_->Prob(ui);
    }
  } else {
    const bool build_extremes = !have_extremes_;
    std::vector<double> mn(build_extremes ? nq : 1);
    std::vector<double> mx(build_extremes ? nq : 1);
    const kernels::KernelSet& ks = ctx_->kernels();
    for (int qi = 0; qi < nq; ++qi) {
      const int slot = build_extremes ? qi : 0;
      ks.fused_row_stats(ctx_->points()[qi].data(), object_->soa_coords(),
                         object_->soa_stride(), m, object_->probs().data(),
                         &mn[slot], &mean[qi], &mx[slot]);
    }
    if (build_extremes) KeepExtremes(std::move(mn), std::move(mx));
  }
  mean_all_ = 0.0;
  for (int qi = 0; qi < nq; ++qi) mean_all_ += mean[qi] * ctx_->probs()[qi];
  mean_q_ = std::move(mean);
  mean_q_view_ = mean_q_;
  have_mean_ = true;
  built_mean_ = true;
}

void ObjectProfile::EnsureSortedAll() {
  if (have_sorted_all_) return;
  EnsureMatrix();
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  const size_t total = static_cast<size_t>(nq) * m;
  OSD_FAILPOINT("mem.profile.sorted");
  if (cached_ != nullptr && cached_->sorted_all != nullptr) {
    ChargeView(2L * static_cast<long>(total) * sizeof(double),
               "profile.sorted_all");
    {
      // Replicate the build path's transient sort-scratch charge so a
      // tight budget breaches at the same point with the cache on or off.
      memory::ScopedCharge scratch_mem("profile.sort_scratch");
      scratch_mem.Add(OrderByDistanceBytes(total));
    }
    sorted_values_view_ = cached_->sorted_all->values;
    sorted_probs_view_ = cached_->sorted_all->probs;
    have_sorted_all_ = true;
    return;
  }
  ChargeView(2L * static_cast<long>(total) * sizeof(double),
             "profile.sorted_all");
  // The sort scratch is transient: charged for the duration of the sort,
  // released when this function returns.
  memory::ScopedCharge scratch_mem("profile.sort_scratch");
  scratch_mem.Add(OrderByDistanceBytes(total));
  DistanceOrderScratch scratch;
  // Ties order by flattened pair index (OrderByDistance), so the (value,
  // prob) pairing of tied entries — and every downstream merge-scan — is
  // the same on every platform.
  const std::span<const int> order =
      OrderByDistance({matrix_data_, total}, &scratch);
  std::vector<double> values(total);
  std::vector<double> probs(total);
  for (size_t k = 0; k < total; ++k) {
    const int idx = order[k];
    const int qi = idx / m;
    const int ui = idx % m;
    values[k] = matrix_data_[idx];
    probs[k] = ctx_->probs()[qi] * object_->Prob(ui);
  }
  sorted_values_ = std::move(values);
  sorted_probs_ = std::move(probs);
  sorted_values_view_ = sorted_values_;
  sorted_probs_view_ = sorted_probs_;
  have_sorted_all_ = true;
  built_sorted_all_ = true;
}

void ObjectProfile::EnsureSortedPerQ() {
  if (have_sorted_per_q_) return;
  EnsureMatrix();
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  OSD_FAILPOINT("mem.profile.sorted");
  if (cached_ != nullptr && cached_->sorted_per_q != nullptr) {
    ChargeView(2L * nq * m * static_cast<long>(sizeof(double)),
               "profile.sorted_per_q");
    {
      memory::ScopedCharge scratch_mem("profile.sort_scratch");
      scratch_mem.Add(OrderByDistanceBytes(m));
    }
    sorted_q_values_view_ = &cached_->sorted_per_q->values;
    sorted_q_probs_view_ = &cached_->sorted_per_q->probs;
    have_sorted_per_q_ = true;
    return;
  }
  ChargeView(2L * nq * m * static_cast<long>(sizeof(double)),
             "profile.sorted_per_q");
  memory::ScopedCharge scratch_mem("profile.sort_scratch");
  scratch_mem.Add(OrderByDistanceBytes(m));
  DistanceOrderScratch scratch;
  sorted_q_values_.resize(nq);
  sorted_q_probs_.resize(nq);
  for (int qi = 0; qi < nq; ++qi) {
    const double* row = matrix_data_ + static_cast<size_t>(qi) * m;
    // Same determinism contract as EnsureSortedAll: ties order by
    // instance index.
    const std::span<const int> order =
        OrderByDistance({row, static_cast<size_t>(m)}, &scratch);
    sorted_q_values_[qi].resize(m);
    sorted_q_probs_[qi].resize(m);
    for (int k = 0; k < m; ++k) {
      sorted_q_values_[qi][k] = row[order[k]];
      sorted_q_probs_[qi][k] = object_->Prob(order[k]);
    }
  }
  sorted_q_values_view_ = &sorted_q_values_;
  sorted_q_probs_view_ = &sorted_q_probs_;
  have_sorted_per_q_ = true;
  built_sorted_per_q_ = true;
}

void ObjectProfile::FillRanks(int qi) {
  const int m = num_instances();
  if (ranks_.empty()) {
    const int nq = ctx_->num_instances();
    ChargeView(nq * static_cast<long>(sizeof(RankEntry)), "profile.ranks");
    ChargeView(OrderByDistanceBytes(m), "profile.sort_scratch");
    ranks_.resize(nq);
    rank_words_ = RowWords(m);
  }
  const double* row = MatrixData() + static_cast<size_t>(qi) * m;
  const std::span<const int64_t> scaled = ScaledProbs();
  ChargeView(m * static_cast<long>(sizeof(double)) +
                 (m + 1L) * rank_words_ * static_cast<long>(sizeof(uint64_t)) +
                 (m + 1L) * static_cast<long>(sizeof(int64_t)),
             "profile.ranks");
  // Same order as EnsureSortedPerQ: equal distances rank by index.
  const std::span<const int> order =
      OrderByDistance({row, static_cast<size_t>(m)}, &rank_scratch_);
  RankEntry& e = ranks_[qi];
  std::vector<uint64_t> prefix((m + 1L) * rank_words_, 0);
  std::vector<int64_t> mass(m + 1, 0);
  for (int r = 0; r < m; ++r) {
    uint64_t* next = prefix.data() + (r + 1L) * rank_words_;
    std::copy_n(next - rank_words_, rank_words_, next);
    next[order[r] / 64] |= uint64_t{1} << (order[r] % 64);
    mass[r + 1] = mass[r] + scaled[order[r]];
  }
  std::vector<double> sorted(m);
  for (int r = 0; r < m; ++r) sorted[r] = row[order[r]];
  e.prefix = std::move(prefix);
  e.mass = std::move(mass);
  e.sorted = std::move(sorted);
}

std::span<const int64_t> ObjectProfile::ScaledProbs() {
  if (scaled_probs_.empty()) {
    ChargeView(num_instances() * static_cast<long>(sizeof(int64_t)),
               "profile.ranks");
    scaled_probs_ = ScaleProbabilities(object_->probs(), kProbScale);
  }
  return scaled_probs_;
}

const DiscreteDistribution& ObjectProfile::Distribution() {
  if (!have_distribution_) {
    EnsureSortedAll();
    // The merged distribution holds at most one (value, prob) pair per
    // sorted entry; charge that upper bound.
    ChargeView(2L * static_cast<long>(sorted_values_view_.size()) *
                   static_cast<long>(sizeof(double)),
               "profile.distribution");
    if (cached_ != nullptr && cached_->distribution != nullptr) {
      distribution_view_ = cached_->distribution.get();
    } else {
      distribution_ = DiscreteDistribution::FromArrays(sorted_values_view_,
                                                       sorted_probs_view_);
      distribution_view_ = &distribution_;
      built_distribution_ = true;
    }
    have_distribution_ = true;
  }
  return *distribution_view_;
}

}  // namespace osd
