// Read throughput under concurrent write load, plus fold latency vs.
// delta size — the cost of the epoch-snapshot machinery (ISSUE 8).
//
// Usage:
//   dynamic_throughput [--objects N] [--readers R] [--seconds S]
//                      [--write-rates 0,500,5000] [--out BENCH_dynamic.json]
//
// Part 1: for every target write rate (mutation ops/sec, 0 = static
// baseline) a fresh QueryEngine with the background fold thread enabled
// serves R synchronous reader threads for S seconds while a writer
// streams insert/delete batches through VersionedDataset::Apply at the
// target rate. Writes land in a far-away region so they never disturb
// the reader queries' candidate sets; what the bench measures is the
// snapshot/pin/fold overhead, not answer churn. Reported per round:
// read q/s, latency percentiles, achieved write ops/s, epochs and folds.
//
// Part 2: synchronous Fold() wall time as a function of delta size, on a
// store seeded with the same base.
//
// Results land in BENCH_dynamic.json; exit is non-zero if any query or
// admissible mutation failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "object/versioned_dataset.h"

namespace {

using namespace osd;
using namespace osd::bench;

struct Config {
  int objects = 4000;
  int readers = 4;
  double seconds = 1.5;
  std::vector<int> write_rates = {0, 500, 5000};
  std::vector<int> fold_deltas = {256, 1024, 4096};
  std::string out = "BENCH_dynamic.json";
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  auto parse_list = [](const std::string& v) {
    std::vector<int> out;
    for (size_t pos = 0; pos < v.size();) {
      const size_t comma = v.find(',', pos);
      out.push_back(std::atoi(v.substr(pos, comma - pos).c_str()));
      pos = comma == std::string::npos ? v.size() : comma + 1;
    }
    return out;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--objects") {
      cfg.objects = std::atoi(value().c_str());
    } else if (flag == "--readers") {
      cfg.readers = std::atoi(value().c_str());
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (flag == "--write-rates") {
      cfg.write_rates = parse_list(value());
    } else if (flag == "--fold-deltas") {
      cfg.fold_deltas = parse_list(value());
    } else if (flag == "--out") {
      cfg.out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// A fresh far-region object: 1-3 instances ~1e6 away from the synthetic
/// data, so reader candidate sets are untouched by the write stream.
std::shared_ptr<const UncertainObject> FarObject(int id, int dim,
                                                 uint64_t* rng) {
  auto next = [&]() {
    *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(*rng >> 33);
  };
  const int rows = 1 + static_cast<int>(next() % 3);
  std::vector<double> coords;
  coords.reserve(static_cast<size_t>(rows) * dim);
  for (int r = 0; r < rows; ++r) {
    for (int d = 0; d < dim; ++d) {
      coords.push_back(1e6 + static_cast<double>(next() % 10000) / 100.0);
    }
  }
  return std::make_shared<const UncertainObject>(
      UncertainObject::Uniform(id, dim, std::move(coords)));
}

struct ReaderStats {
  long completed = 0;
  long errors = 0;
  std::vector<double> latency_ms;
};

struct WriterStats {
  long applied = 0;       // mutation ops accepted
  long rejected = 0;      // Apply() refusals (should stay 0 here)
  std::vector<double> apply_ms;
};

struct Round {
  int write_rate;
  double read_qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double write_ops_per_s = 0.0;
  double apply_p95 = 0.0;
  long errors = 0;
  VersionedDataset::Stats store;
};

void ReaderLoop(QueryEngine* engine,
                const std::vector<QueryWorkloadEntry>* workload, int offset,
                const std::atomic<bool>* stop, ReaderStats* stats) {
  size_t next = static_cast<size_t>(offset) % workload->size();
  while (!stop->load(std::memory_order_relaxed)) {
    const QueryWorkloadEntry& entry = (*workload)[next];
    next = (next + 1) % workload->size();
    NncOptions options;
    options.op = Operator::kSSd;
    options.exclude_id = entry.seeded_from;
    QuerySpec spec;
    spec.query = entry.query;
    spec.options = options;
    const auto t0 = std::chrono::steady_clock::now();
    auto ticket = engine->Submit(spec);
    const QueryStatus status = ticket->Wait();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (status == QueryStatus::kOk || status == QueryStatus::kOkDegraded) {
      ++stats->completed;
      stats->latency_ms.push_back(ms);
    } else {
      ++stats->errors;
    }
  }
}

void WriterLoop(VersionedDataset* store, int dim, int ops_per_sec,
                const std::atomic<bool>* stop, WriterStats* stats) {
  constexpr int kBatch = 8;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  int next_id = 1'000'000;
  std::deque<int> backlog;  // live far-region ids, oldest first
  const auto start = std::chrono::steady_clock::now();
  long paced = 0;  // ops this loop has "earned" the right to send
  while (!stop->load(std::memory_order_relaxed)) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const long budget = static_cast<long>(elapsed * ops_per_sec);
    if (paced + kBatch > budget) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    std::vector<Mutation> ops;
    ops.reserve(kBatch);
    while (static_cast<int>(ops.size()) < kBatch) {
      if (backlog.size() > 64) {
        Mutation del;
        del.kind = Mutation::Kind::kDelete;
        del.id = backlog.front();
        backlog.pop_front();
        ops.push_back(std::move(del));
      } else {
        Mutation ins;
        ins.kind = Mutation::Kind::kInsert;
        ins.id = next_id++;
        ins.object = FarObject(ins.id, dim, &rng);
        backlog.push_back(ins.id);
        ops.push_back(std::move(ins));
      }
    }
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = store->Apply(std::move(ops), &error);
    stats->apply_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (ok) {
      stats->applied += kBatch;
    } else {
      ++stats->rejected;
      std::fprintf(stderr, "writer: Apply rejected: %s\n", error.c_str());
    }
    paced += kBatch;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);

  SyntheticParams sp = DefaultSynthetic(CenterDistribution::kAntiCorrelated);
  sp.num_objects = cfg.objects;
  const Dataset dataset = GenerateSynthetic(sp);
  const int dim = sp.dim;

  WorkloadParams wp = DefaultWorkload();
  wp.num_queries = 64;
  const auto workload = GenerateWorkload(dataset, wp);

  std::printf("dynamic_throughput: %d objects, %d readers, %.1fs rounds\n",
              cfg.objects, cfg.readers, cfg.seconds);

  long total_errors = 0;
  std::vector<Round> rounds;
  for (int rate : cfg.write_rates) {
    QueryEngine engine(dataset, {.num_threads = cfg.readers});
    engine.versioned().StartFoldThread(/*interval_s=*/0.05,
                                       /*delta_threshold=*/512);

    std::atomic<bool> stop{false};
    std::vector<ReaderStats> reader_stats(cfg.readers);
    WriterStats writer_stats;
    std::vector<std::thread> threads;
    threads.reserve(cfg.readers + 1);
    for (int r = 0; r < cfg.readers; ++r) {
      threads.emplace_back(ReaderLoop, &engine, &workload, r * 7, &stop,
                           &reader_stats[r]);
    }
    if (rate > 0) {
      threads.emplace_back(WriterLoop, &engine.versioned(), dim, rate, &stop,
                           &writer_stats);
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg.seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    engine.Drain();
    engine.versioned().StopFoldThread();

    Round round;
    round.write_rate = rate;
    std::vector<double> latency;
    for (const ReaderStats& rs : reader_stats) {
      round.read_qps += rs.completed;
      round.errors += rs.errors;
      latency.insert(latency.end(), rs.latency_ms.begin(),
                     rs.latency_ms.end());
    }
    round.read_qps /= secs;
    round.p50 = Percentile(latency, 0.50);
    round.p95 = Percentile(latency, 0.95);
    round.p99 = Percentile(latency, 0.99);
    round.write_ops_per_s = writer_stats.applied / secs;
    round.apply_p95 = Percentile(writer_stats.apply_ms, 0.95);
    round.errors += writer_stats.rejected;
    round.store = engine.versioned().GetStats();
    total_errors += round.errors;

    std::printf(
        "  writes=%-5d  read %8.1f q/s  p50=%.2fms p95=%.2fms  "
        "wrote %7.0f ops/s (apply p95=%.3fms)  epoch=%llu folds=%llu\n",
        rate, round.read_qps, round.p50, round.p95, round.write_ops_per_s,
        round.apply_p95,
        static_cast<unsigned long long>(round.store.epoch),
        static_cast<unsigned long long>(round.store.folds));
    rounds.push_back(std::move(round));
  }

  // Part 2: synchronous fold latency vs. delta size.
  struct FoldPoint {
    int delta;
    double fold_ms;
  };
  std::vector<FoldPoint> fold_points;
  for (int delta : cfg.fold_deltas) {
    VersionedDataset store(dataset);
    uint64_t rng = 0xc0ffee ^ static_cast<uint64_t>(delta);
    int next_id = 2'000'000;
    for (int done = 0; done < delta;) {
      const int batch = std::min(256, delta - done);
      std::vector<Mutation> ops;
      ops.reserve(batch);
      for (int i = 0; i < batch; ++i) {
        Mutation ins;
        ins.kind = Mutation::Kind::kInsert;
        ins.id = next_id++;
        ins.object = FarObject(ins.id, dim, &rng);
        ops.push_back(std::move(ins));
      }
      std::string error;
      if (!store.Apply(std::move(ops), &error)) {
        std::fprintf(stderr, "fold bench: Apply rejected: %s\n",
                     error.c_str());
        ++total_errors;
        break;
      }
      done += batch;
    }
    const auto t0 = std::chrono::steady_clock::now();
    store.Fold();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("  fold: delta=%-5d  %8.2f ms\n", delta, ms);
    fold_points.push_back({delta, ms});
  }

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"dynamic_throughput\",\"objects\":%d,"
               "\"readers\":%d,\"seconds\":%.2f,\"rounds\":[",
               cfg.objects, cfg.readers, cfg.seconds);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::fprintf(f,
                 "%s{\"write_rate\":%d,\"read_qps\":%.2f,\"p50_ms\":%.3f,"
                 "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"write_ops_per_s\":%.1f,"
                 "\"apply_p95_ms\":%.3f,\"errors\":%ld,\"epoch\":%llu,"
                 "\"folds\":%llu,\"mutations\":%llu}",
                 i == 0 ? "" : ",", r.write_rate, r.read_qps, r.p50, r.p95,
                 r.p99, r.write_ops_per_s, r.apply_p95, r.errors,
                 static_cast<unsigned long long>(r.store.epoch),
                 static_cast<unsigned long long>(r.store.folds),
                 static_cast<unsigned long long>(r.store.mutations));
  }
  std::fprintf(f, "],\"fold_latency\":[");
  for (size_t i = 0; i < fold_points.size(); ++i) {
    std::fprintf(f, "%s{\"delta\":%d,\"fold_ms\":%.3f}", i == 0 ? "" : ",",
                 fold_points[i].delta, fold_points[i].fold_ms);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", cfg.out.c_str());
  return total_errors == 0 ? 0 : 1;
}
