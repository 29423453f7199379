// Micro-benchmarks of the pairwise dominance checks: per-operator cost as
// the instance count grows, and the effect of the filter stack.
//
// Two separately-timed regions so wins are attributable:
//  - BM_ProfileBuild / BM_ProfileExtremes: distance-view materialization
//    (the batched and row-extremes kernels).
//  - BM_ProfileSortedAll / BM_ProfileSortedPerQ: the matrix plus S-SD's
//    all-pairs sorted view or SS-SD's per-q sorted rows; minus
//    BM_ProfileBuild at the same m, that is the sort's share.
//  - BM_DominanceCheck: the oracle decision over pre-materialized
//    profiles, with view construction outside the timer.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/dominance_oracle.h"
#include "datagen/generators.h"

namespace {

using namespace osd;

struct Fixture {
  UncertainObject query;
  UncertainObject u;
  UncertainObject v;
};

// U contracted toward the query (dominance likely), V independent.
Fixture MakeFixture(int m, uint64_t seed) {
  Rng rng(seed);
  const Point qc = GenerateCenter(CenterDistribution::kIndependent, 3,
                                  10'000.0, rng);
  Fixture f{GenerateObjectAt(-1, qc, 200.0, 30, 10'000.0, rng),
            GenerateObjectAt(0, qc, 300.0, m, 10'000.0, rng),
            GenerateObjectAt(1, qc, 400.0, m, 10'000.0, rng)};
  return f;
}

// Forces every lazy view an operator might consume, so the check benchmark
// below times only the decision logic.
void Prewarm(ObjectProfile& p) {
  (void)p.MinAll();
  (void)p.Dist(0, 0);
  (void)p.SortedValues();
  (void)p.SortedQValues(0);
  (void)p.Distribution();
}

// Matrix materialization per profile (the dominant cost of brute-force
// checks): one fresh profile per iteration, exactly like NncSearch::Run
// builds one per examined object.
void BM_ProfileBuild(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Fixture f = MakeFixture(m, 42);
  const QueryContext ctx(f.query);
  for (auto _ : state) {
    ObjectProfile pu(f.u, ctx, nullptr);
    benchmark::DoNotOptimize(pu.Dist(0, 0));
  }
  state.SetComplexityN(m);
  state.SetItemsProcessed(state.iterations() * ctx.num_instances() * m);
}

// Statistics pass per profile: the per-q extremes, all that the statistic
// gates and F-SD read. Never materializes the matrix.
void BM_ProfileExtremes(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Fixture f = MakeFixture(m, 42);
  const QueryContext ctx(f.query);
  for (auto _ : state) {
    ObjectProfile pu(f.u, ctx, nullptr);
    benchmark::DoNotOptimize(pu.MinAll());
  }
  state.SetComplexityN(m);
  state.SetItemsProcessed(state.iterations() * ctx.num_instances() * m);
}

// Matrix plus the sorted all-pairs view (S-SD's exact check), one fresh
// profile per iteration.
void BM_ProfileSortedAll(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Fixture f = MakeFixture(m, 42);
  const QueryContext ctx(f.query);
  for (auto _ : state) {
    ObjectProfile pu(f.u, ctx, nullptr);
    benchmark::DoNotOptimize(pu.SortedValues().data());
  }
  state.SetComplexityN(m);
  state.SetItemsProcessed(state.iterations() * ctx.num_instances() * m);
}

// Matrix plus the per-q sorted rows (SS-SD's exact check), one fresh
// profile per iteration.
void BM_ProfileSortedPerQ(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Fixture f = MakeFixture(m, 42);
  const QueryContext ctx(f.query);
  for (auto _ : state) {
    ObjectProfile pu(f.u, ctx, nullptr);
    benchmark::DoNotOptimize(pu.SortedQValues(0).data());
  }
  state.SetComplexityN(m);
  state.SetItemsProcessed(state.iterations() * ctx.num_instances() * m);
}

// The check itself, profiles pre-materialized outside the timer.
void BM_DominanceCheck(benchmark::State& state, Operator op,
                       FilterConfig cfg) {
  const int m = static_cast<int>(state.range(0));
  const Fixture f = MakeFixture(m, 42);
  const QueryContext ctx(f.query);
  FilterStats stats;
  DominanceOracle oracle(ctx, cfg, &stats);
  ObjectProfile pu(f.u, ctx, &stats);
  ObjectProfile pv(f.v, ctx, &stats);
  if (op != Operator::kFPlusSd) {
    Prewarm(pu);
    Prewarm(pv);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Dominates(op, pu, pv));
  }
  state.SetComplexityN(m);
}

}  // namespace

BENCHMARK(BM_ProfileBuild)->RangeMultiplier(2)->Range(8, 256);
BENCHMARK(BM_ProfileExtremes)->RangeMultiplier(2)->Range(8, 256);
BENCHMARK(BM_ProfileSortedAll)->RangeMultiplier(2)->Range(8, 256);
BENCHMARK(BM_ProfileSortedPerQ)->RangeMultiplier(2)->Range(8, 256);

BENCHMARK_CAPTURE(BM_DominanceCheck, ssd_all, Operator::kSSd,
                  FilterConfig::All())
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(BM_DominanceCheck, ssd_bruteforce, Operator::kSSd,
                  FilterConfig::BruteForce())
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(BM_DominanceCheck, sssd_all, Operator::kSsSd,
                  FilterConfig::All())
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(BM_DominanceCheck, psd_all, Operator::kPSd,
                  FilterConfig::All())
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(BM_DominanceCheck, psd_bruteforce, Operator::kPSd,
                  FilterConfig::BruteForce())
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_DominanceCheck, fsd_all, Operator::kFSd,
                  FilterConfig::All())
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(BM_DominanceCheck, fplus_sd, Operator::kFPlusSd,
                  FilterConfig::All())
    ->RangeMultiplier(2)
    ->Range(8, 128);

BENCHMARK_MAIN();
