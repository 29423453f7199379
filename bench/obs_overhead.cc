// Observability overhead: cost of the tracing span sites and the engine
// stats on the query hot path.
//
// Usage:
//   obs_overhead [--objects N] [--queries Q] [--rounds R]
//                [--out BENCH_obs.json]
//
// The binary runs the same serial workload twice per round — once with a
// null NncOptions::trace (the production default) and once with a per-query
// Trace attached — and reports the best queries/sec of each mode plus the
// relative overhead. When the build has tracing configured out
// (-DOSD_TRACING=OFF) both modes run the identical instruction stream, so
// the reported "untraced" figure doubles as the compiled-out baseline:
// comparing it across an ON and an OFF build measures the cost of the
// compiled-in-but-disabled span sites (target: <= 5%; compiled out the
// sites are textually absent, so <= 1% is just run-to-run noise).
// A third measurement drives the full QueryEngine, which records every
// completion in its stats (counters and latency histogram), to show the
// engine-level accounting cost in context.
//
// Modes alternate within each round so clock drift and cache warmup hit
// both equally; local trees are pre-warmed before any timing.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "obs/trace.h"

namespace {

using namespace osd;
using namespace osd::bench;

struct Config {
  int objects = 2000;
  int queries = 96;
  int rounds = 5;
  std::string out = "BENCH_obs.json";
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
    } else if (flag == "--rounds") {
      cfg.rounds = std::atoi(value().c_str());
    } else if (flag == "--out") {
      cfg.out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

double Elapsed(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);

#if defined(OSD_TRACING_ENABLED)
  const bool tracing_compiled = true;
#else
  const bool tracing_compiled = false;
#endif

  SyntheticParams sp = DefaultSynthetic(CenterDistribution::kAntiCorrelated);
  sp.num_objects = cfg.objects;
  const Dataset dataset = GenerateSynthetic(sp);

  WorkloadParams wp = DefaultWorkload();
  wp.num_queries = cfg.queries;
  const auto workload = GenerateWorkload(dataset, wp);

  std::printf("obs_overhead: %d objects, %d queries, %d rounds, tracing %s\n",
              cfg.objects, cfg.queries, cfg.rounds,
              tracing_compiled ? "compiled in" : "compiled OUT");

  auto run_serial = [&](bool traced) {
    for (const auto& entry : workload) {
      NncOptions options;
      options.op = Operator::kSSd;
      options.exclude_id = entry.seeded_from;
      obs::Trace trace;
      if (traced) options.trace = &trace;
      NncSearch(dataset, options).Run(entry.query);
    }
  };

  // Warmup: build every local tree and fault everything in, so neither
  // timed mode pays one-time costs.
  run_serial(false);

  double best_untraced_s = 0.0;
  double best_traced_s = 0.0;
  for (int r = 0; r < cfg.rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run_serial(false);
    const double untraced_s = Elapsed(t0);
    const auto t1 = std::chrono::steady_clock::now();
    run_serial(true);
    const double traced_s = Elapsed(t1);
    if (r == 0 || untraced_s < best_untraced_s) best_untraced_s = untraced_s;
    if (r == 0 || traced_s < best_traced_s) best_traced_s = traced_s;
  }
  const double qps_untraced = workload.size() / best_untraced_s;
  const double qps_traced = workload.size() / best_traced_s;
  const double overhead_pct =
      (best_traced_s / best_untraced_s - 1.0) * 100.0;
  std::printf("  untraced: %8.1f q/s\n", qps_untraced);
  std::printf("  traced:   %8.1f q/s  (overhead %+.2f%%)\n", qps_traced,
              overhead_pct);

  // Engine pass: stats + latency histogram recording per completion.
  double engine_s = 0.0;
  {
    QueryEngine engine(dataset, {.num_threads = 1});
    std::vector<QuerySpec> specs;
    specs.reserve(workload.size());
    for (const auto& entry : workload) {
      NncOptions options;
      options.op = Operator::kSSd;
      options.exclude_id = entry.seeded_from;
      QuerySpec spec;
      spec.query = entry.query;
      spec.options = options;
      specs.push_back(std::move(spec));
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine.SubmitBatch(std::move(specs));
    engine.Drain();
    engine_s = Elapsed(t0);
  }
  const double qps_engine = workload.size() / engine_s;
  std::printf("  engine(1 thread, metrics on): %8.1f q/s\n", qps_engine);

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"obs_overhead\",\"objects\":%d,\"queries\":%d,"
               "\"rounds\":%d,\"tracing_compiled\":%s,"
               "\"qps_untraced\":%.2f,\"qps_traced\":%.2f,"
               "\"traced_overhead_pct\":%.3f,\"qps_engine\":%.2f}\n",
               cfg.objects, cfg.queries, cfg.rounds,
               tracing_compiled ? "true" : "false", qps_untraced, qps_traced,
               overhead_pct, qps_engine);
  std::fclose(f);
  std::printf("  wrote %s\n", cfg.out.c_str());
  return 0;
}
