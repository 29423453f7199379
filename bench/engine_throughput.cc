// Engine throughput: queries/sec vs. thread count on the default synthetic
// workload, with a bit-identity check against serial execution.
//
// Usage:
//   engine_throughput [--objects N] [--queries Q] [--op ssd|sssd|psd|fsd|f+sd]
//                     [--threads 1,2,4,8] [--out BENCH_engine.json]
//
// For every thread count the binary runs the same batch through a fresh
// QueryEngine (cold local-tree caches each round, so rounds are
// comparable), reports queries/sec, and verifies the candidate sets are
// identical to a serial NncSearch loop. Results land in BENCH_engine.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"

namespace {

using namespace osd;
using namespace osd::bench;

struct Config {
  int objects = 4000;
  int queries = 128;
  Operator op = Operator::kSSd;
  std::vector<int> threads = {1, 2, 4, 8};
  std::string out = "BENCH_engine.json";
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
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
    } else if (flag == "--queries") {
      cfg.queries = std::atoi(value().c_str());
    } else if (flag == "--op") {
      const std::string v = value();
      if (!ParseOperatorName(v, &cfg.op)) {
        std::fprintf(stderr, "unknown --op %s\n", v.c_str());
        std::exit(2);
      }
    } else if (flag == "--threads") {
      cfg.threads.clear();
      const std::string v = value();
      for (size_t pos = 0; pos < v.size();) {
        const size_t comma = v.find(',', pos);
        cfg.threads.push_back(
            std::atoi(v.substr(pos, comma - pos).c_str()));
        pos = comma == std::string::npos ? v.size() : comma + 1;
      }
    } else if (flag == "--out") {
      cfg.out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);

  SyntheticParams sp = DefaultSynthetic(CenterDistribution::kAntiCorrelated);
  sp.num_objects = cfg.objects;
  const Dataset dataset = GenerateSynthetic(sp);

  WorkloadParams wp = DefaultWorkload();
  wp.num_queries = cfg.queries;
  const auto workload = GenerateWorkload(dataset, wp);

  std::printf("engine_throughput: %d objects, %d queries, operator %s\n",
              cfg.objects, cfg.queries, OperatorName(cfg.op));

  // Serial ground truth (fresh copy: cold local-tree caches, like each
  // engine round).
  std::vector<std::vector<int>> serial;
  serial.reserve(workload.size());
  {
    const Dataset cold = dataset;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& entry : workload) {
      NncOptions options;
      options.op = cfg.op;
      options.exclude_id = entry.seeded_from;
      serial.push_back(NncSearch(cold, options).Run(entry.query).candidates);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("  serial loop: %8.1f q/s (%.3f s)\n",
                workload.size() / secs, secs);
  }

  struct Round {
    int threads;
    double qps;
    bool identical;
    std::string stats_json;
  };
  std::vector<Round> rounds;

  for (int threads : cfg.threads) {
    QueryEngine engine(dataset, {.num_threads = threads});
    std::vector<QuerySpec> specs;
    specs.reserve(workload.size());
    for (const auto& entry : workload) {
      NncOptions options;
      options.op = cfg.op;
      options.exclude_id = entry.seeded_from;
      QuerySpec spec;
      spec.query = entry.query;
      spec.options = options;
      specs.push_back(std::move(spec));
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto tickets = engine.SubmitBatch(std::move(specs));
    engine.Drain();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    bool identical = true;
    for (size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i]->status() != QueryStatus::kOk ||
          tickets[i]->result().candidates != serial[i]) {
        identical = false;
        std::fprintf(stderr, "MISMATCH at query %zu (threads=%d)\n", i,
                     threads);
        break;
      }
    }
    const double qps = workload.size() / secs;
    std::printf("  threads=%-2d  %8.1f q/s (%.3f s)  identical=%s\n",
                threads, qps, secs, identical ? "yes" : "NO");
    rounds.push_back({threads, qps, identical, engine.Snapshot().ToJson()});
  }

  double base_qps = 0.0, best_qps = 0.0;
  bool all_identical = true;
  for (const Round& r : rounds) {
    if (r.threads == 1) base_qps = r.qps;
    if (r.qps > best_qps) best_qps = r.qps;
    all_identical = all_identical && r.identical;
  }
  if (base_qps > 0.0) {
    std::printf("  speedup best-vs-1: %.2fx, identical=%s\n",
                best_qps / base_qps, all_identical ? "yes" : "NO");
  }

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"engine_throughput\",\"objects\":%d,"
               "\"queries\":%d,\"operator\":\"%s\",\"identical\":%s,"
               "\"rounds\":[",
               cfg.objects, cfg.queries, OperatorName(cfg.op),
               all_identical ? "true" : "false");
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::fprintf(f, "%s{\"threads\":%d,\"qps\":%.2f,\"identical\":%s,"
                 "\"engine\":%s}",
                 i == 0 ? "" : ",", rounds[i].threads, rounds[i].qps,
                 rounds[i].identical ? "true" : "false",
                 rounds[i].stats_json.c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", cfg.out.c_str());
  return all_identical ? 0 : 1;
}
