// Micro-benchmarks of the substrates: R-tree bulk load,
// stochastic-order scans, P-SD network rows and rank counts, max-flow
// feasibility and EMD min-cost flow.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/dominance_oracle.h"
#include "core/object_profile.h"
#include "core/query_context.h"
#include "datagen/surrogates.h"
#include "flow/max_flow.h"
#include "index/rtree.h"
#include "nnfun/n3_functions.h"
#include "nnfun/rank_engine.h"
#include "prob/stochastic_order.h"

namespace {

using namespace osd;

std::vector<RTree::Entry> MakeEntries(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RTree::Entry> entries(n);
  for (int i = 0; i < n; ++i) {
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0),
            rng.Uniform(0.0, 1000.0)};
    entries[i] = {Mbr(p), i, 1.0 / n};
  }
  return entries;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto entries = MakeEntries(n, 7);
  for (auto _ : state) {
    auto copy = entries;
    benchmark::DoNotOptimize(RTree::BulkLoad(std::move(copy), 16));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeBulkLoad)->Range(1 << 10, 1 << 16);

void BM_StochasticOrderScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<double> xv(n), yv(n), p(n, 1.0 / n);
  for (int i = 0; i < n; ++i) {
    xv[i] = rng.Uniform(0.0, 100.0);
    yv[i] = xv[i] + rng.Uniform(0.0, 5.0);
  }
  std::sort(xv.begin(), xv.end());
  std::sort(yv.begin(), yv.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(StochasticallyLeqSorted(xv, p, yv, p));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StochasticOrderScan)->Range(1 << 6, 1 << 14);

void BM_MaxFlowFeasibility(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(13);
  // A random bipartite feasibility instance like a P-SD check, as the
  // bit rows the checker hands to the flow (flow/max_flow.h).
  const int words = RowWords(m);
  std::vector<uint64_t> rows(static_cast<size_t>(m) * words, 0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (rng.Flip(0.4)) {
        rows[static_cast<size_t>(j) * words + i / 64] |= uint64_t{1}
                                                        << (i % 64);
      }
    }
  }
  const std::vector<double> probs(m, 1.0 / m);
  const auto mass = ScaleProbabilities(probs, kProbScale);
  for (auto _ : state) {
    MaxFlow flow(2 * m + 2);
    flow.LoadBipartite(m, m, rows, mass, mass, kProbScale);
    benchmark::DoNotOptimize(flow.Compute(2 * m, 2 * m + 1));
  }
}
BENCHMARK(BM_MaxFlowFeasibility)->RangeMultiplier(2)->Range(8, 128);

// Builds the exact P-SD network rows of one (u, v) pair with m instances
// each against a 30-instance query, as the exact check does once the rank
// views of u are memoized and the Hall certificate has left its rank
// counts behind.
void BM_PSdRows(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(17);
  auto object = [&](int id, int count, double cx, double spread) {
    std::vector<double> coords;
    for (int k = 0; k < count; ++k) {
      coords.push_back(cx + rng.Uniform(-spread, spread));
      coords.push_back(rng.Uniform(-spread, spread));
    }
    return UncertainObject::Uniform(id, 2, std::move(coords));
  };
  const UncertainObject q = object(-1, 30, 0.0, 5.0);
  const UncertainObject u = object(0, m, 20.0, 4.0);
  const UncertainObject v = object(1, m, 24.0, 4.0);
  const QueryContext ctx(q);
  DominanceOracle oracle(ctx, FilterConfig::All(), nullptr);
  ObjectProfile pu(u, ctx, nullptr);
  ObjectProfile pv(v, ctx, nullptr);
  const std::vector<int> counts = oracle.RankCounts(pu, pv);
  std::vector<uint64_t> rows;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.PSdRows(pu, pv, counts, &rows));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_PSdRows)->RangeMultiplier(2)->Range(8, 128);

// RankView::Count as the Hall certificate calls it on the NBA surrogate
// (fig12's NBA cell): for the first workload query and its 64 nearest
// objects, every ordered pair's u rank row at each hull instance q,
// searched at every d(v_j, q) + 1e-9. Arg 0 counts with the cell index,
// arg 1 with std::upper_bound over the same rows.
void BM_RankCount(benchmark::State& state) {
  struct Probe {
    ObjectProfile::RankView ranks;
    std::span<const double> v_row;
  };
  struct Setup {
    Dataset dataset = NbaLike(1);
    std::vector<QueryWorkloadEntry> workload =
        GenerateWorkload(dataset, bench::DefaultWorkload());
    QueryContext ctx{workload.front().query};
    std::vector<std::unique_ptr<ObjectProfile>> profiles;
    std::vector<Probe> probes;
  };
  static Setup* const setup = [] {
    auto* s = new Setup;
    for (const UncertainObject& o : s->dataset.objects()) {
      s->profiles.push_back(
          std::make_unique<ObjectProfile>(o, s->ctx, nullptr));
    }
    std::sort(s->profiles.begin(), s->profiles.end(),
              [](const auto& a, const auto& b) {
                return a->MinAll() < b->MinAll();
              });
    s->profiles.resize(64);
    for (auto& pu : s->profiles) {
      for (auto& pv : s->profiles) {
        if (pu == pv) continue;
        for (const int qi : s->ctx.pruning_indices()) {
          s->probes.push_back({pu->Ranks(qi), pv->Row(qi)});
        }
      }
    }
    return s;
  }();
  const bool cells = state.range(0) == 0;
  long counts = 0;
  size_t next = 0;
  for (auto _ : state) {
    const Probe& p = setup->probes[next];
    next = next + 1 == setup->probes.size() ? 0 : next + 1;
    int sum = 0;
    for (const double d : p.v_row) {
      const double t = d + 1e-9;
      sum += cells ? p.ranks.Count(t)
                   : static_cast<int>(std::upper_bound(p.ranks.sorted.begin(),
                                                       p.ranks.sorted.end(),
                                                       t) -
                                      p.ranks.sorted.begin());
    }
    benchmark::DoNotOptimize(sum);
    counts += static_cast<long>(p.v_row.size());
  }
  state.SetItemsProcessed(counts);
}
BENCHMARK(BM_RankCount)->Arg(0)->Arg(1);

// A P-SD network as the exact check hands it to BipartiteFeasible.
struct Network {
  int nu, nv;
  std::vector<uint64_t> rows;
  std::vector<int64_t> u_mass, v_mass;
};

// The networks P-SD builds on the NBA surrogate (fig12's NBA cell): for
// each workload query, every ordered pair among its 64 nearest objects
// that cover validation, the statistic gate, the extremes certificate and
// the Hall certificate leave to the exact check, with a row for every V
// instance.
const std::vector<Network>& NbaNetworks() {
  static const std::vector<Network> networks = [] {
    const Dataset dataset = NbaLike(1);
    std::vector<Network> out;
    for (const QueryWorkloadEntry& entry :
         GenerateWorkload(dataset, bench::DefaultWorkload())) {
      const QueryContext ctx(entry.query);
      std::vector<std::unique_ptr<ObjectProfile>> profiles;
      for (const UncertainObject& o : dataset.objects()) {
        profiles.push_back(std::make_unique<ObjectProfile>(o, ctx, nullptr));
      }
      std::sort(profiles.begin(), profiles.end(),
                [](const auto& a, const auto& b) {
                  return a->MinAll() < b->MinAll();
                });
      profiles.resize(64);
      for (auto& pu : profiles) {
        for (auto& pv : profiles) {
          if (pu == pv) continue;
          FilterStats stats;
          DominanceOracle oracle(ctx, FilterConfig::All(), &stats);
          oracle.Dominates(Operator::kPSd, *pu, *pv);
          if (stats.exact_checks == 0) continue;
          const std::span<const int64_t> u_mass = pu->ScaledProbs();
          const std::span<const int64_t> v_mass = pv->ScaledProbs();
          Network n{pu->num_instances(), pv->num_instances(), {},
                    {u_mass.begin(), u_mass.end()},
                    {v_mass.begin(), v_mass.end()}};
          if (oracle.PSdRows(*pu, *pv, oracle.RankCounts(*pu, *pv),
                             &n.rows)) {
            out.push_back(std::move(n));
          }
        }
      }
    }
    return out;
  }();
  return networks;
}

// One BipartiteFeasible call per iteration, cycling through the NBA
// networks; the counters give the share of networks each exit decides.
void BM_BipartiteFeasible(benchmark::State& state) {
  const std::vector<Network>& networks = NbaNetworks();
  long exits[5] = {0, 0, 0, 0, 0};
  for (const Network& n : networks) {
    ++exits[static_cast<int>(
        BipartiteFeasible(n.nu, n.nv, n.rows, n.u_mass, n.v_mass).exit)];
  }
  size_t next = 0;
  for (auto _ : state) {
    const Network& n = networks[next];
    next = next + 1 == networks.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(
        BipartiteFeasible(n.nu, n.nv, n.rows, n.u_mass, n.v_mass));
  }
  const double total = static_cast<double>(networks.size());
  state.counters["networks"] = total;
  state.counters["greedy"] =
      exits[static_cast<int>(FeasibilityExit::kGreedy)] / total;
  state.counters["hall_deficit"] =
      exits[static_cast<int>(FeasibilityExit::kHallDeficit)] / total;
  state.counters["max_flow"] =
      exits[static_cast<int>(FeasibilityExit::kMaxFlow)] / total;
}
BENCHMARK(BM_BipartiteFeasible);

void BM_RankEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(19);
  std::vector<UncertainObject> objects;
  for (int i = 0; i < n; ++i) {
    std::vector<double> coords;
    for (int k = 0; k < 5; ++k) {
      coords.push_back(rng.Uniform(0.0, 100.0));
      coords.push_back(rng.Uniform(0.0, 100.0));
    }
    objects.push_back(UncertainObject::Uniform(i, 2, coords));
  }
  std::vector<double> qcoords;
  for (int k = 0; k < 4; ++k) {
    qcoords.push_back(rng.Uniform(0.0, 100.0));
    qcoords.push_back(rng.Uniform(0.0, 100.0));
  }
  const auto query = UncertainObject::Uniform(-1, 2, qcoords);
  std::vector<const UncertainObject*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  for (auto _ : state) {
    const RankEngine engine(ptrs, query);
    benchmark::DoNotOptimize(engine.RankProbability(0, 1));
  }
}
BENCHMARK(BM_RankEngine)->RangeMultiplier(2)->Range(8, 64);

void BM_EmdDistance(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(17);
  std::vector<double> uc, qc;
  for (int i = 0; i < m; ++i) {
    uc.push_back(rng.Uniform(0.0, 100.0));
    uc.push_back(rng.Uniform(0.0, 100.0));
    qc.push_back(rng.Uniform(0.0, 100.0));
    qc.push_back(rng.Uniform(0.0, 100.0));
  }
  const auto u = UncertainObject::Uniform(0, 2, uc);
  const auto q = UncertainObject::Uniform(-1, 2, qc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdDistance(u, q));
  }
}
BENCHMARK(BM_EmdDistance)->RangeMultiplier(2)->Range(4, 64);

}  // namespace

BENCHMARK_MAIN();
