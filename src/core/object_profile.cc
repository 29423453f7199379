#include "core/object_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/distance_order.h"
#include "flow/max_flow.h"
#include "geom/kernels.h"

namespace osd {

ObjectProfile::ObjectProfile(const UncertainObject& object,
                             const QueryContext& ctx, FilterStats* stats)
    : object_(&object), ctx_(&ctx), stats_(stats) {
  OSD_CHECK(object.dim() == ctx.query().dim());
}

ObjectProfile::~ObjectProfile() { memory::Release(charged_bytes_); }

void ObjectProfile::ChargeView(long bytes, const char* what_label) {
  // Charge-before-allocate: a breach throws here with the view still
  // null, so a later call simply fills it from scratch.
  memory::Charge(bytes, what_label);
  charged_bytes_ += bytes;
}

void ObjectProfile::EnsureRows(int qi) {
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  const bool first_read = matrix_.empty();
  if (first_read) OSD_FAILPOINT("mem.profile.matrix");
  const int rows = qi == kAllRows ? nq - matrix_rows_ : 1;
  ChargeView(static_cast<long>(rows) * m * static_cast<long>(sizeof(double)),
             "profile.matrix");
  if (first_read) {
    row_read_.assign(nq, 0);
    matrix_.resize(static_cast<size_t>(nq) * m);
  }
  const kernels::KernelSet& ks = ctx_->kernels();
  const int begin = qi == kAllRows ? 0 : qi;
  const int end = qi == kAllRows ? nq : qi + 1;
  for (int r = begin; r < end; ++r) {
    if (row_read_[r] != 0) continue;
    ks.batch_distance(ctx_->points()[r].data(), object_->soa_coords(),
                      object_->soa_stride(), m,
                      matrix_.data() + static_cast<size_t>(r) * m);
    row_read_[r] = 1;
  }
  matrix_rows_ += rows;
  if (stats_ != nullptr) {
    stats_->dist_evals += static_cast<long>(rows) * m;
  }
}

void ObjectProfile::EnsureExtremes() {
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  // Each distance is evaluated once: the matrix rows already read fold,
  // the others take one extremes pass.
  ChargeView(2L * nq * static_cast<long>(sizeof(double)), "profile.stats");
  if (stats_ != nullptr) {
    stats_->dist_evals += static_cast<long>(nq - matrix_rows_) * m;
  }
  ExtremesView extremes;
  extremes.min_q.assign(nq, std::numeric_limits<double>::infinity());
  extremes.max_q.assign(nq, 0.0);
  extremes.min_all = std::numeric_limits<double>::infinity();
  const kernels::KernelSet& ks = ctx_->kernels();
  for (int qi = 0; qi < nq; ++qi) {
    double& mn = extremes.min_q[qi];
    double& mx = extremes.max_q[qi];
    if (RowRead(qi)) {
      for (const double d : Row(qi)) {
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
    } else {
      ks.row_extremes(ctx_->points()[qi].data(), object_->soa_coords(),
                      object_->soa_stride(), m, &mn, &mx);
    }
    extremes.min_all = std::min(extremes.min_all, mn);
    extremes.max_all = std::max(extremes.max_all, mx);
  }
  extremes_ = std::move(extremes);
}

void ObjectProfile::EnsureSortedAll() {
  const double* matrix = MatrixData();
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  const size_t total = static_cast<size_t>(nq) * m;
  OSD_FAILPOINT("mem.profile.sorted");
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
      OrderByDistance({matrix, total}, &scratch);
  SortedAllView sorted;
  sorted.values.resize(total);
  sorted.probs.resize(total);
  for (size_t k = 0; k < total; ++k) {
    const int idx = order[k];
    const int qi = idx / m;
    const int ui = idx % m;
    sorted.values[k] = matrix[idx];
    sorted.probs[k] = ctx_->probs()[qi] * object_->Prob(ui);
  }
  sorted_all_ = std::move(sorted);
}

void ObjectProfile::EnsureSortedPerQ() {
  const double* matrix = MatrixData();
  const int nq = ctx_->num_instances();
  const int m = num_instances();
  OSD_FAILPOINT("mem.profile.sorted");
  ChargeView(2L * nq * m * static_cast<long>(sizeof(double)),
             "profile.sorted_per_q");
  memory::ScopedCharge scratch_mem("profile.sort_scratch");
  scratch_mem.Add(OrderByDistanceBytes(m));
  DistanceOrderScratch scratch;
  SortedPerQView sorted;
  sorted.values.resize(nq);
  sorted.probs.resize(nq);
  for (int qi = 0; qi < nq; ++qi) {
    const double* row = matrix + static_cast<size_t>(qi) * m;
    // Same determinism contract as EnsureSortedAll: ties order by
    // instance index.
    const std::span<const int> order =
        OrderByDistance({row, static_cast<size_t>(m)}, &scratch);
    sorted.values[qi].resize(m);
    sorted.probs[qi].resize(m);
    for (int k = 0; k < m; ++k) {
      sorted.values[qi][k] = row[order[k]];
      sorted.probs[qi][k] = object_->Prob(order[k]);
    }
  }
  sorted_per_q_ = std::move(sorted);
}

void ObjectProfile::EnsureDistribution() {
  const SortedAllView& sorted = SortedAll();
  // The merged distribution holds at most one (value, prob) pair per
  // sorted entry; charge that upper bound.
  ChargeView(2L * static_cast<long>(sorted.values.size()) *
                 static_cast<long>(sizeof(double)),
             "profile.distribution");
  distribution_ = DiscreteDistribution::FromArrays(sorted.values, sorted.probs);
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
  const double* row = Row(qi).data();
  const std::span<const int64_t> scaled = ScaledProbs();
  const int cells = static_cast<int>(std::bit_ceil(static_cast<unsigned>(m)));
  ChargeView(m * static_cast<long>(sizeof(double)) +
                 (m + 1L) * rank_words_ * static_cast<long>(sizeof(uint64_t)) +
                 (m + 1L) * static_cast<long>(sizeof(int64_t)) +
                 (cells + 1L) * static_cast<long>(sizeof(int)),
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
  std::vector<int> cell_start;
  const double scale = RankView::BuildCells(sorted, &cell_start);
  e.prefix = std::move(prefix);
  e.mass = std::move(mass);
  e.cell_start = std::move(cell_start);
  e.scale = scale;
  e.last_cell = cells - 1;
  e.sorted = std::move(sorted);
}

double ObjectProfile::RankView::BuildCells(std::span<const double> sorted,
                                           std::vector<int>* cell_start) {
  const int m = static_cast<int>(sorted.size());
  const int cells = static_cast<int>(std::bit_ceil(static_cast<unsigned>(m)));
  const double front = sorted.front();
  const double span = sorted.back() - front;
  double scale = span > 0.0 ? cells / span : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;
  cell_start->resize(cells + 1);
  int c = 0;
  for (int r = 0; r < m; ++r) {
    const int cell = CellOf(sorted[r], front, scale, cells - 1);
    while (c <= cell) (*cell_start)[c++] = r;
  }
  while (c <= cells) (*cell_start)[c++] = m;
  return scale;
}

std::span<const int64_t> ObjectProfile::ScaledProbs() {
  if (scaled_probs_.empty()) {
    ChargeView(num_instances() * static_cast<long>(sizeof(int64_t)),
               "profile.ranks");
    scaled_probs_ = ScaleProbabilities(object_->probs(), kProbScale);
  }
  return scaled_probs_;
}

}  // namespace osd
